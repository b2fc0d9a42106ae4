// Readahead prefetch on demand-fault streams (StoreConfig.Readahead): a
// per-(namespace, client) detector watches the offsets of demand reads;
// k consecutive same-direction offsets arm an asynchronous readahead
// window that pulls the pages ahead of the stream into a client-side
// staging cache. Staged hits bypass the network entirely; useful windows
// double (up to readaheadMaxWindow) and a broken stream resets. Prefetch
// traffic rides the same simulated flows as foreground reads, so it
// genuinely competes for NIC bandwidth.

package vmd

import (
	"agilemig/internal/mem"
	"agilemig/internal/trace"
)

const (
	// readaheadTrigger is how many consecutive same-direction offsets arm
	// a readahead window.
	readaheadTrigger = 4
	// readaheadInitWindow is the first window size in pages; each useful
	// window doubles it up to readaheadMaxWindow. A broken stream resets
	// to readaheadInitWindow.
	readaheadInitWindow = 8
	readaheadMaxWindow  = 64
	// stagingPages bounds the client-side staging cache; the oldest staged
	// pages are discarded (counted as wasted) beyond it.
	stagingPages = 512
)

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

	staged   *mem.Bitmap // pages ready in the staging cache
	order    []uint32    // FIFO of staged pages; may hold stale entries
	inflight *mem.Bitmap // pages requested, not yet arrived
	groups   int         // transfers of the current window not yet finished
	batch    []uint32    // scratch: the offsets of the window being issued

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
	n := len(ns.placement)
	pf := &prefetcher{ns: ns, c: c, window: readaheadInitWindow,
		staged: mem.NewBitmap(n), inflight: mem.NewBitmap(n)}
	ns.pref = append(ns.pref, pf)
	return pf
}

// isStaged reports whether the page is ready in the staging cache.
func (pf *prefetcher) isStaged(off uint32) bool { return pf.staged.Test(mem.PageID(off)) }

// clear drops all state (namespace destroyed).
func (pf *prefetcher) clear() {
	pf.staged.ClearAll()
	pf.inflight.ClearAll()
	pf.order = nil
	pf.seen = false
	pf.run = 0
	if pf.busy {
		pf.endWindow()
	}
}

// take consumes a staged page, reporting whether the read is a staging
// hit. The caller serves the page locally.
func (pf *prefetcher) take(off uint32) bool {
	if !pf.isStaged(off) {
		return false
	}
	pf.staged.Clear(mem.PageID(off))
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
		pf.window = readaheadInitWindow
	}
	pf.lastOff = off
}

// maybeIssue launches the next readahead window when the detector has a
// streak, no window is in flight, and eligible offsets exist ahead of the
// stream.
func (pf *prefetcher) maybeIssue(off uint32) {
	ns := pf.ns
	if pf.busy || pf.dir == 0 || pf.run < readaheadTrigger {
		return
	}
	limit := len(ns.placement)
	batch := pf.batch[:0]
	cur := int64(off)
	// Walk ahead of the stream: remote-primary offsets are fetchable;
	// already staged/inflight ones are skipped (the window extends past
	// them); anything else ends the window — the stream is about to break
	// on it anyway. The walk is bounded so skip chains cannot spin.
	for scanned := 0; len(batch) < pf.window && scanned < 4*readaheadMaxWindow; scanned++ {
		cur += int64(pf.dir)
		if cur < 0 || cur >= int64(limit) {
			break
		}
		o := uint32(cur)
		if pf.staged.Test(mem.PageID(o)) || pf.inflight.Test(mem.PageID(o)) {
			continue
		}
		if ns.placement[o] == noServer {
			break
		}
		batch = append(batch, o)
	}
	pf.batch = batch
	if len(batch) == 0 {
		return
	}
	pf.busy = true
	pf.issued += int64(len(batch))
	if pf.window < readaheadMaxWindow {
		pf.window *= 2
		if pf.window > readaheadMaxWindow {
			pf.window = readaheadMaxWindow
		}
	}
	for _, o := range batch {
		pf.inflight.Set(mem.PageID(o))
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
	pf.groups = 0
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
				pf.inflight.Clear(mem.PageID(o))
			}
			continue
		}
		pf.groups++
		ns.fetch(pf.c, v.servers[sIdx], run[0], len(run), step, pf, nil)
	}
	if pf.groups == 0 {
		pf.endWindow()
	}
}

// groupDone finishes one of the window's transfers; the last one closes
// the window.
func (pf *prefetcher) groupDone() {
	pf.groups--
	if pf.groups == 0 {
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
		o := mem.PageID(x.at(i))
		if !pf.inflight.Test(o) {
			pf.wasted++
			continue
		}
		pf.inflight.Clear(o)
		pf.staged.Set(o)
		pf.order = append(pf.order, uint32(o))
		pf.windowStaged++
		pf.c.prefetched++
	}
	pf.evictStaging()
	pf.groupDone()
}

// expired gives up on a timed-out readahead transfer.
func (pf *prefetcher) expired(x *readXfer) {
	for i := int32(0); i < x.n; i++ {
		pf.inflight.Clear(mem.PageID(x.at(i)))
	}
	pf.groupDone()
}

// evictStaging discards oldest staged pages beyond the cache budget, then
// keeps the FIFO bounded by the budget: pages consumed or invalidated
// leave stale entries behind, which a streaming scan would otherwise
// accumulate without end.
func (pf *prefetcher) evictStaging() {
	for pf.staged.Count() > stagingPages && len(pf.order) > 0 {
		o := mem.PageID(pf.order[0])
		pf.order = pf.order[1:]
		if pf.staged.Test(o) {
			pf.staged.Clear(o)
			pf.wasted++
		}
	}
	if len(pf.order) > 2*stagingPages {
		pf.compactOrder()
	}
}

// compactOrder drops the FIFO's stale entries, keeping each staged page
// once, at its latest staging position.
func (pf *prefetcher) compactOrder() {
	order := pf.order
	w := len(order)
	for i := len(order) - 1; i >= 0; i-- {
		// Clearing a kept page's bit marks it seen, so an earlier entry
		// of the same page is dropped; the bits are restored below.
		if o := mem.PageID(order[i]); pf.staged.Test(o) {
			pf.staged.Clear(o)
			w--
			order[w] = order[i]
		}
	}
	pf.order = append(order[:0], order[w:]...)
	for _, o := range pf.order {
		pf.staged.Set(mem.PageID(o))
	}
}

// invalidate drops the offset from every prefetcher (the page was written
// or freed: staged bytes are stale).
func (ns *Namespace) invalidateStaging(off uint32) {
	for _, pf := range ns.pref {
		if pf.isStaged(off) {
			pf.staged.Clear(mem.PageID(off))
			pf.wasted++
		}
		pf.inflight.Clear(mem.PageID(off))
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
