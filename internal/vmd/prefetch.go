// Readahead prefetch on demand-fault streams (StoreConfig.Readahead): a
// per-(namespace, client) detector watches the offsets of demand reads;
// k consecutive same-direction offsets arm an asynchronous readahead
// window that pulls the pages ahead of the stream into a client-side
// staging cache. Staged hits bypass the network entirely; useful windows
// double (up to MaxWindow) and a broken stream resets. Prefetch traffic
// rides the same simulated flows as foreground reads, so it genuinely
// competes for NIC bandwidth.

package vmd

import "agilemig/internal/trace"

// prefetcher is one client's readahead state on one namespace.
type prefetcher struct {
	ns *Namespace
	c  *Client

	lastOff uint32
	dir     int8 // +1 ascending, -1 descending, 0 unknown
	run     int  // current same-direction streak length
	seen    bool // lastOff is valid
	window  int  // next window size in pages
	busy    bool // a window is in flight

	staged   map[uint32]bool // pages ready in the staging cache
	order    []uint32        // FIFO of staged pages; may hold stale entries
	inflight map[uint32]bool // pages requested, not yet arrived

	issued int64 // pages requested by readahead
	hits   int64 // demand reads served from staging
	misses int64 // demand reads that had to go to the store
	wasted int64 // staged/fetched pages discarded unused

	// Per-window span accounting: the current window's span and how many of
	// its pages actually reached staging (a window that stages fewer pages
	// than it issued was partly refuted by invalidations or timeouts).
	windowSpan   trace.SpanID
	windowStaged int
}

// prefFor returns (lazily creating) the client's prefetcher. Callers gate
// on StoreConfig.Readahead.Enabled.
func (ns *Namespace) prefFor(c *Client) *prefetcher {
	for _, pf := range ns.pref {
		if pf.c == c {
			return pf
		}
	}
	pf := &prefetcher{ns: ns, c: c, window: ns.vmd.store.Readahead.InitWindow}
	pf.clearCache()
	ns.pref = append(ns.pref, pf)
	return pf
}

func (pf *prefetcher) clearCache() {
	pf.staged = make(map[uint32]bool)
	pf.order = nil
	pf.inflight = make(map[uint32]bool)
}

// clear drops all state (namespace destroyed).
func (pf *prefetcher) clear() {
	pf.clearCache()
	pf.seen = false
	pf.run = 0
	if pf.busy {
		pf.endWindow()
	}
}

// take consumes a staged page, reporting whether the read is a staging
// hit. The caller serves the page locally.
func (pf *prefetcher) take(off uint32) bool {
	if !pf.staged[off] {
		return false
	}
	delete(pf.staged, off)
	pf.hits++
	return true
}

// observe feeds a demand read that missed the staging cache.
func (pf *prefetcher) observe(off uint32) {
	pf.misses++
	pf.note(off)
	pf.maybeIssue(off)
}

// noteHit feeds a staged hit: the stream continues, and the next window
// can be pipelined, but no miss is counted.
func (pf *prefetcher) noteHit(off uint32) {
	pf.note(off)
	pf.maybeIssue(off)
}

// note updates the stream detector with one demand-read offset.
func (pf *prefetcher) note(off uint32) {
	cfg := &pf.ns.vmd.store.Readahead
	switch {
	case !pf.seen:
		pf.seen = true
		pf.run = 1
		pf.dir = 0
	case off == pf.lastOff+1 && pf.dir >= 0:
		pf.dir = 1
		pf.run++
	case pf.lastOff > 0 && off == pf.lastOff-1 && pf.dir <= 0:
		pf.dir = -1
		pf.run++
	default:
		// Stream broken: restart detection and shrink the window back.
		pf.run = 1
		pf.dir = 0
		pf.window = cfg.InitWindow
	}
	pf.lastOff = off
}

// maybeIssue launches the next readahead window when the detector has a
// streak, no window is in flight, and eligible offsets exist ahead of the
// stream.
func (pf *prefetcher) maybeIssue(off uint32) {
	ns := pf.ns
	cfg := &ns.vmd.store.Readahead
	if pf.busy || pf.dir == 0 || pf.run < cfg.Trigger {
		return
	}
	limit := len(ns.placement)
	var batch []uint32
	cur := int64(off)
	// Walk ahead of the stream: remote-primary offsets are fetchable;
	// already staged/inflight ones are skipped (the window extends past
	// them); anything else ends the window — the stream is about to break
	// on it anyway. The walk is bounded so skip chains cannot spin.
	for scanned := 0; len(batch) < pf.window && scanned < 4*cfg.MaxWindow; scanned++ {
		cur += int64(pf.dir)
		if cur < 0 || cur >= int64(limit) {
			break
		}
		o := uint32(cur)
		if pf.staged[o] || pf.inflight[o] {
			continue
		}
		if ns.placement[o] == noServer {
			break
		}
		batch = append(batch, o)
	}
	if len(batch) == 0 {
		return
	}
	pf.busy = true
	pf.issued += int64(len(batch))
	if pf.window < cfg.MaxWindow {
		pf.window *= 2
		if pf.window > cfg.MaxWindow {
			pf.window = cfg.MaxWindow
		}
	}
	for _, o := range batch {
		pf.inflight[o] = true
	}
	if ns.em.Enabled() {
		ns.em.Emitf(ns.vmd.eng.NowSeconds(), trace.VMDPrefetch, "readahead of %d pages from offset %d (dir %+d) for %s", len(batch), batch[0], pf.dir, pf.c.name)
	}
	pf.windowStaged = 0
	if ns.sp.Enabled() {
		pf.windowSpan = ns.sp.Begin(ns.vmd.eng.NowSeconds(), "prefetch-window", 0,
			trace.Num("from", float64(batch[0])),
			trace.Num("issued", float64(len(batch))))
	}
	pf.fetch(batch)
}

// endWindow closes the window: the next one may issue, and the window span
// records how much of the issued readahead actually landed in staging.
func (pf *prefetcher) endWindow() {
	pf.busy = false
	if pf.windowSpan != 0 {
		pf.ns.sp.End(pf.ns.vmd.eng.NowSeconds(), pf.windowSpan,
			trace.Num("staged", float64(pf.windowStaged)))
		pf.windowSpan = 0
	}
}

// fetch pulls a window into the staging cache, grouping contiguous
// same-server offsets into single transfers. The window completes (and
// unblocks the next one) when every group has arrived or timed out.
func (pf *prefetcher) fetch(batch []uint32) {
	ns := pf.ns
	v := ns.vmd
	step := pf.dirStep()
	groups := 0
	finishGroup := func() {
		groups--
		if groups == 0 {
			pf.endWindow()
		}
	}
	i := 0
	for i < len(batch) {
		sIdx := ns.placement[batch[i]]
		j := i + 1
		for j < len(batch) && batch[j] == batch[j-1]+step && ns.placement[batch[j]] == sIdx {
			j++
		}
		run := batch[i:j]
		i = j
		if sIdx == noServer {
			// Raced with a free between collection and fetch: drop the run.
			for _, o := range run {
				delete(pf.inflight, o)
			}
			continue
		}
		groups++
		ns.fetch(pf.c, v.servers[sIdx], run[0], len(run), step, pf, finishGroup)
	}
	if groups == 0 {
		pf.endWindow()
	}
}

// dirStep returns the offset delta of the current stream direction.
func (pf *prefetcher) dirStep() uint32 {
	if pf.dir < 0 {
		return ^uint32(0) // -1
	}
	return 1
}

// diskRead leaves the pages' tier alone: readahead is not an access.
func (pf *prefetcher) diskRead(*readXfer) {}

// arrived stages a readahead transfer's pages, skipping any invalidated
// (written or freed) while on the wire.
func (pf *prefetcher) arrived(x *readXfer) {
	for i := int32(0); i < x.n; i++ {
		o := x.at(i)
		if !pf.inflight[o] {
			pf.wasted++
			continue
		}
		delete(pf.inflight, o)
		pf.staged[o] = true
		pf.order = append(pf.order, o)
		pf.windowStaged++
		pf.c.prefetched++
	}
	pf.evictStaging()
	x.fn()
}

// expired gives up on a timed-out readahead transfer.
func (pf *prefetcher) expired(x *readXfer) {
	for i := int32(0); i < x.n; i++ {
		delete(pf.inflight, x.at(i))
	}
	x.fn()
}

// evictStaging discards oldest staged pages beyond the cache budget.
func (pf *prefetcher) evictStaging() {
	budget := pf.ns.vmd.store.Readahead.StagingPages
	for len(pf.staged) > budget && len(pf.order) > 0 {
		o := pf.order[0]
		pf.order = pf.order[1:]
		if pf.staged[o] {
			delete(pf.staged, o)
			pf.wasted++
		}
	}
}

// invalidate drops the offset from every prefetcher (the page was written
// or freed: staged bytes are stale).
func (ns *Namespace) invalidateStaging(off uint32) {
	for _, pf := range ns.pref {
		if pf.staged[off] {
			delete(pf.staged, off)
			pf.wasted++
		}
		if pf.inflight[off] {
			delete(pf.inflight, off)
		}
	}
}

// PrefetchStats returns cumulative readahead counters summed over the
// namespace's clients: pages requested, staging hits, misses, and pages
// fetched or staged that were never used.
func (ns *Namespace) PrefetchStats() (issued, hits, misses, wasted int64) {
	for _, pf := range ns.pref {
		issued += pf.issued
		hits += pf.hits
		misses += pf.misses
		wasted += pf.wasted
	}
	return issued, hits, misses, wasted
}
