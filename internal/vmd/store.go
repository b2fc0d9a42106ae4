// VMD v2 store configuration and the tiered-store machinery: a per-client
// compressed-RAM tier in front of the remote pool, and a coarse-clock
// hot/cold scan that demotes idle pages from server memory to the server
// disk tier (promoting them back on access).
//
// Everything here is strictly opt-in. The zero StoreConfig — and an
// explicit config of BatchPages=1, prefetch off, flat tier, round-robin
// placement — executes the exact v1 event sequence: no extra flows,
// timers, or message-size changes.

package vmd

import (
	"agilemig/internal/mem"
	"agilemig/internal/sim"
	"agilemig/internal/trace"
)

// Placement selects the page-placement policy.
type Placement int

const (
	// PlaceRoundRobin is the paper's load-aware round robin (v1 default).
	PlaceRoundRobin Placement = iota
	// PlaceHash places pages on a consistent-hash ring with virtual nodes,
	// so membership changes move only the affected arc of the keyspace.
	PlaceHash
)

// StoreConfig is the VMD v2 store configuration. The zero value is exact
// v1 behavior.
type StoreConfig struct {
	// BatchPages coalesces up to this many contiguous-offset pages into one
	// request on the bulk paths (WriteBatch/ReadBatch, re-replication) and
	// caps the run length of coalesced reads. <= 1 means one page per
	// request (v1).
	BatchPages int

	// Readahead configures prefetch on sequential demand-fault streams.
	Readahead ReadaheadConfig

	// Tiers configures the compressed local tier and the server-side
	// hot/cold memory<->disk scan.
	Tiers TierConfig

	// Placement selects round-robin (default) or consistent hashing.
	Placement Placement
	// VirtualNodes is the number of ring points per server under PlaceHash
	// (default 16).
	VirtualNodes int
	// RebalanceBytesPerSec bounds the background rebalance bandwidth after
	// a membership change under PlaceHash. 0 disables background moves:
	// only new writes follow the updated ring.
	RebalanceBytesPerSec int64
}

// ReadaheadConfig tunes the per-client stream detector and staging cache.
type ReadaheadConfig struct {
	Enabled bool
	// Trigger is how many consecutive same-direction offsets arm a
	// readahead window (default 4).
	Trigger int
	// InitWindow is the first window size in pages (default 8); each
	// useful window doubles it up to MaxWindow (default 64). A broken
	// stream resets to InitWindow.
	InitWindow int
	MaxWindow  int
	// StagingPages bounds the client-side staging cache; the oldest staged
	// pages are discarded (counted as wasted) beyond it (default 512).
	StagingPages int
}

// TierConfig tunes the tier stack around the remote-DRAM pool.
type TierConfig struct {
	Enabled bool
	// CompressedCapPages is the raw RAM budget (in pages) a client may
	// spend on its compressed tier; it holds CompressRatio times as many
	// logical pages. 0 disables the client tier while keeping the
	// server-side hot/cold scan.
	CompressedCapPages int64
	// CompressRatio is the simulated compression ratio (default 3.0).
	CompressRatio float64
	// CompressSeconds is the simulated CPU cost to (de)compress one page
	// (default 3e-6 s, ~1.3 GB/s per core).
	CompressSeconds float64
	// EpochSeconds is the coarse-clock period of the hot/cold scan
	// (default 1 s).
	EpochSeconds float64
	// ColdEpochs is how many epochs without access make a page cold
	// (default 8).
	ColdEpochs int
	// ScanPagesPerEpoch bounds the demotion scan per namespace per epoch
	// (default 4096).
	ScanPagesPerEpoch int
}

// withDefaults fills unset tunables. BatchPages normalizes to >= 1 so the
// rest of the code can treat it as a run length.
func (cfg StoreConfig) withDefaults() StoreConfig {
	if cfg.BatchPages < 1 {
		cfg.BatchPages = 1
	}
	if cfg.Readahead.Enabled {
		r := &cfg.Readahead
		if r.Trigger <= 0 {
			r.Trigger = 4
		}
		if r.InitWindow <= 0 {
			r.InitWindow = 8
		}
		if r.MaxWindow < r.InitWindow {
			r.MaxWindow = 64
			if r.MaxWindow < r.InitWindow {
				r.MaxWindow = r.InitWindow
			}
		}
		if r.StagingPages <= 0 {
			r.StagingPages = 512
		}
	}
	if cfg.Tiers.Enabled {
		t := &cfg.Tiers
		if t.CompressRatio <= 1 {
			t.CompressRatio = 3.0
		}
		if t.CompressSeconds <= 0 {
			t.CompressSeconds = 3e-6
		}
		if t.EpochSeconds <= 0 {
			t.EpochSeconds = 1.0
		}
		if t.ColdEpochs <= 0 {
			t.ColdEpochs = 8
		}
		if t.ScanPagesPerEpoch <= 0 {
			t.ScanPagesPerEpoch = 4096
		}
	}
	if cfg.VirtualNodes <= 0 {
		cfg.VirtualNodes = 16
	}
	if cfg.RebalanceBytesPerSec < 0 {
		cfg.RebalanceBytesPerSec = 0
	}
	return cfg
}

// Configure installs the v2 store configuration. It must run before any
// server, client or namespace exists: placement and tier state are wired
// at creation time. Configuring the zero StoreConfig is a no-op relative
// to v1.
func (v *VMD) Configure(cfg StoreConfig) {
	if len(v.servers) > 0 || len(v.clients) > 0 || len(v.namespaces) > 0 {
		panic("vmd: Configure must run before servers, clients and namespaces are created")
	}
	v.store = cfg.withDefaults()
	if t := v.store.Tiers; t.Enabled {
		v.ctierCap = int64(t.CompressRatio * float64(t.CompressedCapPages))
		v.startTierScan()
	}
}

// BatchPages returns the store's normalized batch run length (>= 1).
// Backends route bulk reads through ReadBatch only when it exceeds 1.
func (ns *Namespace) BatchPages() int {
	if ns.vmd.store.BatchPages < 1 {
		return 1
	}
	return ns.vmd.store.BatchPages
}

// ReadaheadEnabled reports whether the store's readahead prefetcher is
// configured; callers route demand reads through ReadBatch so the stream
// detector sees them.
func (ns *Namespace) ReadaheadEnabled() bool {
	return ns.vmd.store.Readahead.Enabled
}

// touch records an access to the offset on the tier clock (no-op unless
// the tier scan is enabled).
func (ns *Namespace) touch(off uint32) {
	if ns.heat != nil {
		ns.heat[off] = ns.vmd.tierEpoch
	}
}

// startTierScan registers the coarse-clock ticker advancing the tier epoch
// and running the per-namespace demotion scan.
func (v *VMD) startTierScan() {
	v.eng.Every(v.eng.SecondsToTicks(v.store.Tiers.EpochSeconds), func(sim.Time) bool {
		v.tierEpoch++
		for _, ns := range v.namespaces {
			ns.demoteScan()
		}
		return true
	})
}

// demoteScan walks a bounded window of the placement table and demotes
// primary pages that have not been touched for ColdEpochs from server
// memory to the server's disk tier. The scan is a deterministic cursor
// sweep; per-server disk traffic for one scan is coalesced into a single
// device write.
func (ns *Namespace) demoteScan() {
	if ns.destroyed || ns.heat == nil {
		return
	}
	v := ns.vmd
	t := &v.store.Tiers
	epoch := v.tierEpoch
	n := len(ns.placement)
	scan := t.ScanPagesPerEpoch
	if scan > n {
		scan = n
	}
	counts := make([]int64, len(v.servers))
	demoted := 0
	for i := 0; i < scan; i++ {
		off := uint32(ns.demoteCursor % n)
		ns.demoteCursor++
		sIdx := ns.placement[off]
		if sIdx == noServer || ns.onDisk.Test(mem.PageID(off)) {
			continue
		}
		if ns.heat[off]+uint32(t.ColdEpochs) > epoch {
			continue
		}
		s := v.servers[sIdx]
		if s.down || s.disk == nil || s.diskUsed >= s.diskCap {
			continue
		}
		s.used--
		s.diskUsed++
		s.diskStores++
		ns.onDisk.Set(mem.PageID(off))
		counts[sIdx]++
		demoted++
	}
	if demoted == 0 {
		return
	}
	ns.demotions += int64(demoted)
	for i, cnt := range counts {
		if cnt > 0 {
			v.servers[i].disk.Write(mem.PagesToBytes(int(cnt)), nil)
		}
	}
	if ns.em.Enabled() {
		ns.em.Emitf(v.eng.NowSeconds(), trace.VMDTierMove, "%d cold pages demoted to server disk tiers", demoted)
	}
}

// maybePromote moves a disk-tier primary back into server memory after an
// access (the read itself already paid the disk latency). No-op unless the
// tier scan is enabled and the server has memory headroom.
func (ns *Namespace) maybePromote(s *Server, off uint32) {
	if ns.heat == nil || s.down || s.used >= s.capacity {
		return
	}
	if !ns.onDisk.Test(mem.PageID(off)) {
		return
	}
	s.used++
	s.diskUsed--
	ns.onDisk.Clear(mem.PageID(off))
	ns.promotions++
	if ns.em.Enabled() {
		ns.em.Emitf(ns.vmd.eng.NowSeconds(), trace.VMDTierMove, "offset %d promoted from %s disk tier on access", off, s.name)
	}
}

// TierStats returns the namespace's cumulative (demotions, promotions)
// between server memory and server disk tiers.
func (ns *Namespace) TierStats() (demotions, promotions int64) {
	return ns.demotions, ns.promotions
}

// Rebalanced returns how many pages background rebalance has moved to
// their ring-preferred server.
func (ns *Namespace) Rebalanced() int64 { return ns.rebalanced }

// ---------------------------------------------------------------------------
// Compressed local tier

// SetLocalTier opts the client into the compressed local tier configured
// by TierConfig: single-page writes through this client (the swap-eviction
// path) are absorbed into compressed local RAM up to the configured
// budget, evicting the oldest page to the remote pool when full. Bulk
// writes (WriteBatch — the migration paths) always bypass the tier: their
// purpose is to move pages OFF the host. The cluster wires this to the
// migration destination, where post-switchover eviction/re-fault churn is.
func (c *Client) SetLocalTier(on bool) { c.localTier = on }

// ctierState is one client's compressed tier on one namespace.
//
// Page lifecycle: a page is resident (pages, counted in used) until it is
// evicted, at which point it moves to wb (still readable, no longer
// counted) while its writeback to the remote pool is in flight. A write or
// free racing the writeback marks it stale: the landed remote copy is
// discarded on completion so the offset never holds both a live local and
// a live remote copy.
type ctierState struct {
	ns *Namespace
	c  *Client

	pages map[uint32]bool // resident (compressed) pages
	order []uint32        // FIFO of resident pages; may hold stale entries
	wb    map[uint32]bool // evicted, writeback to remote pool in flight
	stale map[uint32]bool // writeback result must be discarded
	used  int64           // == live entries in pages

	hits       int64 // reads served from the tier
	writebacks int64 // evictions pushed to the remote pool
}

func (st *ctierState) clear() {
	st.pages = make(map[uint32]bool)
	st.order = nil
	st.wb = make(map[uint32]bool)
	st.stale = make(map[uint32]bool)
	st.used = 0
}

// ctFor returns (lazily creating) the client's compressed tier on this
// namespace, or nil when the tier is off or the client has not opted in.
func (ns *Namespace) ctFor(c *Client) *ctierState {
	if !c.localTier || ns.vmd.ctierCap <= 0 {
		return nil
	}
	for _, st := range ns.ct {
		if st.c == c {
			return st
		}
	}
	st := &ctierState{ns: ns, c: c}
	st.clear()
	ns.ct = append(ns.ct, st)
	return st
}

// ctHolder returns the tier state holding the offset (resident or in
// writeback), or nil. Tier states are scanned in creation order, so the
// lookup is deterministic; a page is held by at most one tier.
func (ns *Namespace) ctHolder(off uint32) *ctierState {
	for _, st := range ns.ct {
		if st.pages[off] || st.wb[off] {
			return st
		}
	}
	return nil
}

// CtierPages returns how many logical pages currently live in compressed
// local tiers across all clients of the namespace.
func (ns *Namespace) CtierPages() int64 {
	var n int64
	for _, st := range ns.ct {
		n += st.used
	}
	return n
}

// CtierStats returns cumulative (reads served from the tier, writebacks
// evicted to the remote pool) across the namespace's tiers.
func (ns *Namespace) CtierStats() (hits, writebacks int64) {
	for _, st := range ns.ct {
		hits += st.hits
		writebacks += st.writebacks
	}
	return hits, writebacks
}

// ctierStore absorbs a fresh single-page write into the client's
// compressed tier, evicting the oldest resident page to the remote pool
// when the (ratio-expanded) budget is full. The write completes after the
// simulated compression cost; no network traffic.
func (ns *Namespace) ctierStore(st *ctierState, off uint32, fn func()) {
	v := ns.vmd
	for st.used >= v.ctierCap {
		if !st.evictOne() {
			// Everything left is already in writeback; overflow to remote.
			ns.writeRemote(st.c, off, 1, false, fn)
			return
		}
	}
	st.pages[off] = true
	st.order = append(st.order, off)
	st.used++
	ns.stored++
	ns.touch(off)
	v.eng.AfterSeconds(v.store.Tiers.CompressSeconds, func() {
		if fn != nil {
			fn()
		}
	})
}

// evictOne starts the writeback of the oldest resident page, reporting
// false when no page is evictable (all in writeback already).
func (st *ctierState) evictOne() bool {
	ns := st.ns
	v := ns.vmd
	for len(st.order) > 0 {
		victim := st.order[0]
		st.order = st.order[1:]
		if !st.pages[victim] {
			continue // stale queue entry: freed or already evicted
		}
		delete(st.pages, victim)
		st.used--
		st.wb[victim] = true
		st.writebacks++
		if ns.em.Enabled() {
			ns.em.Emitf(v.eng.NowSeconds(), trace.VMDTierMove, "offset %d evicted from %s compressed tier to remote pool", victim, st.c.name)
		}
		// Decompress, then push to the pool as a one-page run (which
		// bypasses this tier). ns.stored already counts the page.
		v.eng.AfterSeconds(v.store.Tiers.CompressSeconds, func() {
			ns.writeRemote(st.c, victim, 1, true, func() {
				st.finishWriteback(victim)
			})
		})
		return true
	}
	return false
}

// finishWriteback completes an eviction once every remote copy has acked.
// If the offset was rewritten or freed while the writeback was in flight,
// the just-landed remote copy is stale and is released.
func (st *ctierState) finishWriteback(off uint32) {
	ns := st.ns
	if ns.destroyed {
		return
	}
	delete(st.wb, off)
	if st.stale[off] {
		delete(st.stale, off)
		ns.freeRemoteOnly(off)
	}
}

// ctierRewrite overwrites a page the tier holds: pay the compression cost
// again, in place. A page in writeback is re-adopted as resident (its
// in-flight remote copy is marked stale).
func (ns *Namespace) ctierRewrite(st *ctierState, off uint32, fn func()) {
	v := ns.vmd
	if !st.pages[off] {
		// Mid-writeback: the rewrite makes the local copy authoritative.
		st.stale[off] = true
		for st.used >= v.ctierCap {
			if !st.evictOne() {
				break
			}
		}
		st.pages[off] = true
		st.order = append(st.order, off)
		st.used++
	}
	ns.touch(off)
	v.eng.AfterSeconds(v.store.Tiers.CompressSeconds, func() {
		if fn != nil {
			fn()
		}
	})
}

// ctierFree releases a tier-held offset (the hypervisor faulted the page
// back in). An in-flight writeback is marked stale so its remote copy is
// released on arrival.
func (ns *Namespace) ctierFree(st *ctierState, off uint32) {
	if st.pages[off] {
		delete(st.pages, off)
		st.used--
	} else {
		st.stale[off] = true
	}
	ns.stored--
}

// readCtier serves a read from the compressed tier: decompression cost,
// plus a network hop when the reader is not the holding client.
func (ns *Namespace) readCtier(st *ctierState, c *Client, off uint32, fn func()) {
	v := ns.vmd
	st.hits++
	ns.touch(off)
	if ns.em.Enabled() {
		ns.em.Emitf(v.eng.NowSeconds(), trace.VMDRead, "offset %d from %s compressed tier via %s", off, st.c.name, c.name)
	}
	v.eng.AfterSeconds(v.store.Tiers.CompressSeconds, func() {
		if st.c == c {
			c.countRead(originCtier)
			if fn != nil {
				fn()
			}
			return
		}
		v.peerFlow(st.c, c).SendMessage(PageMsgBytes, func() {
			c.countRead(originCtier)
			if fn != nil {
				fn()
			}
		})
	})
}

// freeRemoteOnly releases the offset's remote copies (or degraded-state
// bookkeeping) without touching ns.stored — used to discard a stale
// writeback whose local page is authoritative or already gone.
func (ns *Namespace) freeRemoteOnly(off uint32) {
	if sIdx := ns.placement[off]; sIdx != noServer {
		ns.releaseSlot(off, ns.vmd.servers[sIdx])
		if ns.replicas != nil {
			for _, cp := range ns.replicas[off] {
				ns.releaseCopy(cp)
			}
			ns.replicas[off] = nil
		}
		ns.placement[off] = noServer
		return
	}
	if ns.spilled != nil && ns.spilled[off] != nil {
		delete(ns.spilled, off)
		return
	}
	if ns.lost != nil && ns.lost.Test(mem.PageID(off)) {
		ns.lost.Clear(mem.PageID(off))
		ns.lostPages--
	}
}
