// Page transfers between clients and servers. Every write and read moves a
// run: n pages at contiguous offsets from first, carried as one message per
// copy. A single page is a run of length one, so Write/Read and the bulk
// WriteBatch/ReadBatch paths share one write op and one read transport;
// BatchMsgBytes(1) equals PageMsgBytes, so a one-page run pays exactly the
// per-page wire cost.

package vmd

import (
	"fmt"

	"agilemig/internal/mem"
	"agilemig/internal/trace"
)

// BatchMsgBytes is the wire size of an n-page transfer: the page bodies
// plus one shared header (the same 64-byte framing PageMsgBytes pays).
func BatchMsgBytes(n int) int64 {
	return mem.PagesToBytes(n) + 64
}

// runOp is one logical write of a run: the primary copy plus K-1 replicas,
// all sent when the op is issued. The copies share one exclusion mask, so
// a replica never lands on a server already chosen for another copy, and a
// redirect never returns to a server that NACKed or timed out.
type runOp struct {
	ns       *Namespace
	c        *Client
	fn       func()
	first    uint32
	n        int32
	attempts int32   // primary redirect budget (NACKs + timeouts)
	pending  int32   // copies not yet settled
	excl     uint64  // servers chosen for a copy, or that NACKed or timed out
	wasSpill *Client // spill holder the primary's landing displaced
	already  bool    // one-page run of a spilled/lost offset: ns.stored counts it
	counted  bool    // this op incremented ns.stored
	wasLost  bool    // the primary's landing cleared the offset's lost bit
}

// copySend is one copy of a run in flight to one server.
type copySend struct {
	op      *runOp
	s       *Server
	charged int64 // optimistic freeHint charge, returned if the copy never lands
	primary bool
	settled bool // a timeout and a late response cannot both act
	landed  bool
}

// writeRemote places a run of fresh offsets (or one spilled/lost offset)
// on the remote pool, bypassing the client-local compressed tier. Callers
// that already count the offset in ns.stored (the compressed tier's
// writeback) pass alreadyStored.
func (ns *Namespace) writeRemote(c *Client, first uint32, n int, alreadyStored bool, fn func()) {
	op := &runOp{
		ns: ns, c: c, fn: fn, first: first, n: int32(n),
		attempts: int32(2*len(c.links) + 2),
		pending:  int32(ns.k),
		already:  alreadyStored || (n == 1 && ns.hasDegraded(first)),
	}
	op.sendCopy(true)
	for j := 1; j < ns.k; j++ {
		op.sendCopy(false)
	}
}

// sendCopy places one copy of the run: the primary drives the attempts
// budget and degrades when the pool cannot take it; replicas are
// best-effort and settle silently when no distinct server can take them.
func (op *runOp) sendCopy(primary bool) {
	if primary && op.attempts <= 0 {
		op.degrade()
		return
	}
	s := op.c.placeServer(op.ns, op.first, op.excl)
	if s == nil {
		if primary {
			op.degrade()
		} else {
			op.settle()
		}
		return
	}
	bit := uint64(1) << uint(s.idx)
	if !primary && op.excl&bit != 0 {
		// placeServer ignores the mask when it has a single candidate; a
		// replica must land on a distinct, untried server or not at all.
		op.settle()
		return
	}
	op.excl |= bit
	op.send(s, primary)
}

// settle marks one copy finished; the write completes when all have.
func (op *runOp) settle() {
	op.pending--
	if op.pending == 0 && op.fn != nil {
		op.fn()
	}
}

// degrade handles a primary the pool cannot place: a one-page run spills
// to the writing client's local swap disk, a longer run splits into
// one-page primaries (its replicas are already on their way).
func (op *runOp) degrade() {
	if op.n == 1 {
		op.spill()
		return
	}
	left := op.n
	each := func() {
		left--
		if left == 0 {
			op.settle()
		}
	}
	for i := int32(0); i < op.n; i++ {
		sub := &runOp{
			ns: op.ns, c: op.c, fn: each, first: op.first + uint32(i), n: 1,
			attempts: int32(2*len(op.c.links) + 2),
			pending:  1,
			counted:  op.counted,
		}
		sub.sendCopy(true)
	}
}

// spill degrades a one-page write the pool cannot take onto the writing
// client's local swap disk.
func (op *runOp) spill() {
	ns, c, off := op.ns, op.c, op.first
	if ns.vmd.strict {
		panic(fmt.Sprintf("vmd: pool exhausted writing %s offset %d", ns.name, off))
	}
	if c.spillDev == nil {
		panic(fmt.Sprintf("vmd: pool exhausted writing %s offset %d and no spill device attached to %s", ns.name, off, c.name))
	}
	if ns.spilled == nil {
		ns.spilled = make(map[uint32]*Client)
	}
	ns.spilled[off] = c
	if op.already {
		if ns.lost != nil && ns.lost.Test(mem.PageID(off)) {
			ns.lost.Clear(mem.PageID(off))
			ns.lostPages--
		}
	} else if !op.counted {
		ns.stored++
		op.counted = true
	}
	ns.spilledPages++
	ns.em.Emitf(ns.vmd.eng.NowSeconds(), trace.VMDSpill, "offset %d spilled to %s local disk (pool exhausted)", off, c.name)
	c.spillIO().Write(mem.PageSize, op.settle)
}

// send transmits one copy of the run to the chosen server and handles
// ack, NACK and (with fault tolerance armed) timeout.
func (op *runOp) send(s *Server, primary bool) {
	v := op.ns.vmd
	link := op.c.links[s.idx]
	cs := &copySend{op: op, s: s, primary: primary}
	if link.freeHint > 0 {
		// Optimistic local accounting: the next gossip refreshes the true
		// value, but in-flight writes already consume the budget.
		cs.charged = min(int64(op.n), link.freeHint)
		link.freeHint -= cs.charged
	}
	if v.ft {
		v.eng.AfterSeconds(v.ftTimeout, cs.expire)
	}
	link.toServer.SendMessage(BatchMsgBytes(int(op.n)), cs.arrive)
}

// arrive runs when the copy reaches its server: NACK the whole run if the
// server cannot take every page, otherwise store it memory-first, spilling
// the remainder to the server's disk tier.
func (cs *copySend) arrive() {
	op, s := cs.op, cs.s
	if cs.settled || s.down {
		return
	}
	ns, n := op.ns, int(op.n)
	if s.freePages() < int64(n) {
		s.rejects++
		op.c.links[s.idx].freeHint = 0
		if ns.em.Enabled() {
			if n == 1 {
				ns.em.Emitf(ns.vmd.eng.NowSeconds(), trace.VMDNack, "%s full, %s retrying offset %d", s.name, op.c.name, op.first)
			} else {
				ns.em.Emitf(ns.vmd.eng.NowSeconds(), trace.VMDNack, "%s full, %s retrying %d-page batch at offset %d", s.name, op.c.name, n, op.first)
			}
		}
		op.c.links[s.idx].fromServer.SendMessage(AckBytes, cs.nacked)
		return
	}
	cs.landed = true
	memRoom := s.capacity - s.used
	diskN := 0
	for i := 0; i < n; i++ {
		off := op.first + uint32(i)
		onDisk := int64(i) >= memRoom
		if onDisk {
			s.diskUsed++
			s.diskStores++
			diskN++
		} else {
			s.used++
		}
		if cs.primary {
			ns.placement[off] = s.idx
			ns.touch(off)
		} else if ns.lost != nil && ns.placement[off] == noServer && ns.lost.Test(mem.PageID(off)) {
			// The primary's server crashed while this replica was on the
			// wire: the store resurrects the page as the new primary.
			ns.lost.Clear(mem.PageID(off))
			ns.lostPages--
			ns.placement[off] = s.idx
		} else {
			ns.replicas[off] = append(ns.replicas[off], replCopy{srv: s.idx, onDisk: onDisk})
			continue
		}
		if onDisk {
			ns.onDisk.Set(mem.PageID(off))
		}
	}
	if cs.primary {
		op.landPrimary()
	}
	if diskN > 0 {
		// The ack departs after the local disk write completes.
		s.disk.Write(mem.PagesToBytes(diskN), cs.durable)
		return
	}
	cs.durable()
}

// landPrimary updates the namespace's page count once the primary copy
// has landed. A one-page run of a spilled or lost offset instead takes the
// offset out of that state, remembering it so a timeout can put it back.
func (op *runOp) landPrimary() {
	ns, off := op.ns, op.first
	if !op.already {
		if !op.counted {
			ns.stored += int64(op.n)
			op.counted = true
		}
		return
	}
	op.wasLost = ns.lost != nil && ns.lost.Test(mem.PageID(off))
	if op.wasLost {
		ns.lost.Clear(mem.PageID(off))
		ns.lostPages--
	}
	op.wasSpill = ns.spillHolder(off)
	if op.wasSpill != nil {
		delete(ns.spilled, off)
	}
}

// durable runs once the copy is stored on its server's tiers: count it
// and send the ack.
func (cs *copySend) durable() {
	cs.s.pagesStored += int64(cs.op.n)
	cs.op.c.links[cs.s.idx].fromServer.SendMessage(AckBytes, cs.acked)
}

// acked completes the copy at the client.
func (cs *copySend) acked() {
	if cs.settled {
		return
	}
	cs.settled = true
	cs.op.c.pagesWritten += int64(cs.op.n)
	cs.op.settle()
}

// nacked redirects a copy its server refused.
func (cs *copySend) nacked() {
	if cs.settled {
		return
	}
	cs.settled = true
	cs.redirect()
}

// redirect sends a refused or timed-out copy elsewhere; a primary spends
// one of its attempts.
func (cs *copySend) redirect() {
	cs.op.c.retries++
	if cs.primary {
		cs.op.attempts--
	}
	cs.op.sendCopy(cs.primary)
}

// expire abandons an unanswered copy and redirects it. If the copy had
// landed but the ack was lost or stalled, the server-side lease expires:
// every page of the run that still holds this copy returns its slot to the
// tier it was recorded on, so accounting stays exact.
func (cs *copySend) expire() {
	if cs.settled {
		return
	}
	cs.settled = true
	op, s := cs.op, cs.s
	ns := op.ns
	if cs.landed {
		for i := uint32(0); i < uint32(op.n); i++ {
			off := op.first + i
			if ns.placement[off] != s.idx {
				if !cs.primary {
					if cp, ok := ns.removeCopy(off, s.idx); ok {
						ns.releaseCopy(cp)
					}
				}
				continue
			}
			ns.releaseSlot(off, s)
			ns.placement[off] = noServer
			if !cs.primary || op.wasLost {
				// A replica that resurrected a lost page, or a primary that
				// cleared the lost bit, puts the page back on the gauge.
				if ns.lost != nil {
					ns.lost.Set(mem.PageID(off))
					ns.lostPages++
				}
			}
			if cs.primary && op.wasSpill != nil {
				ns.spilled[off] = op.wasSpill
			}
		}
	} else if cs.charged > 0 {
		// The write never landed: hand its optimistic hint charge back so
		// the server is not under-counted until the next gossip.
		op.c.links[s.idx].freeHint += cs.charged
	}
	cs.redirect()
}

// WriteBatch stores a run of pages at strictly ascending contiguous
// offsets through the client, as one request per copy. fn runs when every
// copy of every page has been stored and acked.
//
// A run of fresh offsets (never written, not spilled, not lost, not
// tier-held) travels as one run; a single page, or a run touching any
// other offset, goes page by page through Write, which handles every
// degraded state. WriteBatch otherwise bypasses the compressed local tier:
// bulk writes are migration traffic whose purpose is to move pages off the
// host.
func (ns *Namespace) WriteBatch(c *Client, offs []uint32, fn func()) {
	if !ns.clients[c] {
		panic("vmd: write through unattached client " + c.name + " on namespace " + ns.name)
	}
	if len(offs) == 0 {
		panic("vmd: empty WriteBatch")
	}
	if int(offs[len(offs)-1]) >= len(ns.placement) {
		panic("vmd: write past end of namespace")
	}
	fresh := true
	for i, off := range offs {
		if i > 0 && off != offs[i-1]+1 {
			panic("vmd: WriteBatch offsets must be contiguous ascending")
		}
		ns.invalidateStaging(off)
		if ns.placement[off] != noServer || ns.hasDegraded(off) || ns.ctHolder(off) != nil {
			fresh = false
		}
	}
	if len(offs) > 1 && fresh {
		ns.writeRemote(c, offs[0], len(offs), false, fn)
		return
	}
	remaining := len(offs)
	each := func() {
		remaining--
		if remaining == 0 && fn != nil {
			fn()
		}
	}
	for _, off := range offs {
		ns.Write(c, off, each)
	}
}

// readXfer is one read transfer: a request for the n pages from first
// (stepping by step) goes to server s, and one message carrying them all
// comes back. What happens after a server disk read, on arrival and on
// timeout is up to the caller's sink.
type readXfer struct {
	ns      *Namespace
	c       *Client
	s       *Server
	fn      func()
	sink    readSink
	first   uint32
	n       int32
	step    uint32
	settled bool // a timeout and a late response cannot both act
}

// readSink is a read transfer's caller: demand reads deliver each page to
// fn and fail over page by page on timeout; readahead (the prefetcher)
// stages the pages and calls fn once, whether they arrived or timed out.
type readSink interface {
	diskRead(x *readXfer) // the server read the run's disk-tier pages
	arrived(x *readXfer)
	expired(x *readXfer)
}

// fetch starts one read transfer.
func (ns *Namespace) fetch(c *Client, s *Server, first uint32, n int, step uint32, sink readSink, fn func()) {
	v := ns.vmd
	link := c.links[s.idx]
	x := &readXfer{ns: ns, c: c, s: s, fn: fn, sink: sink, first: first, n: int32(n), step: step}
	if v.ft {
		v.eng.AfterSeconds(v.ftTimeout, x.expire)
	}
	link.toServer.SendMessage(RequestBytes, x.request)
}

// at returns the transfer's i-th offset.
func (x *readXfer) at(i int32) uint32 { return x.first + uint32(i)*x.step }

// request runs when the request reaches the server: pages the server
// keeps on its disk tier are read from disk before the response departs.
func (x *readXfer) request() {
	if x.settled || x.s.down {
		return
	}
	ns, s := x.ns, x.s
	diskN := 0
	for i := int32(0); i < x.n; i++ {
		if off := x.at(i); ns.placement[off] == s.idx && ns.onDisk.Test(mem.PageID(off)) {
			diskN++
		}
	}
	if diskN > 0 {
		s.diskServes += int64(diskN)
		s.disk.Read(mem.PagesToBytes(diskN), x.diskRead)
		return
	}
	x.respond()
}

func (x *readXfer) diskRead() {
	x.sink.diskRead(x)
	x.respond()
}

// respond sends the pages back to the client.
func (x *readXfer) respond() {
	x.s.pagesServed += int64(x.n)
	x.c.links[x.s.idx].fromServer.SendMessage(BatchMsgBytes(int(x.n)), x.deliver)
}

func (x *readXfer) deliver() {
	if x.settled {
		return
	}
	x.settled = true
	x.sink.arrived(x)
}

func (x *readXfer) expire() {
	if x.settled {
		return
	}
	x.settled = true
	x.sink.expired(x)
}

// demandRead is the sink of reads a caller is waiting for.
type demandRead struct{}

// diskRead promotes the pages back to server memory: a demand read is an
// access.
func (demandRead) diskRead(x *readXfer) {
	for i := int32(0); i < x.n; i++ {
		if off := x.at(i); x.ns.placement[off] == x.s.idx {
			x.ns.maybePromote(x.s, off)
		}
	}
}

func (demandRead) arrived(x *readXfer) {
	for i := int32(0); i < x.n; i++ {
		x.c.countRead(originRemote)
		if x.fn != nil {
			x.fn()
		}
	}
}

// expired retries each page on its own, re-resolving placement so a crash
// promotion mid-flight is picked up.
func (demandRead) expired(x *readXfer) {
	ns := x.ns
	ns.failoverReads += int64(x.n)
	if ns.em.Enabled() {
		if x.n == 1 {
			ns.em.Emitf(ns.vmd.eng.NowSeconds(), trace.VMDFailover, "read of offset %d from %s timed out, retrying", x.first, x.s.name)
		} else {
			ns.em.Emitf(ns.vmd.eng.NowSeconds(), trace.VMDFailover, "batched read of %d pages from %s timed out, retrying per page", x.n, x.s.name)
		}
	}
	for i := int32(0); i < x.n; i++ {
		ns.readCopy(x.c, x.at(i), x.fn)
	}
}

// readCopy resolves the offset's current primary and reads it as a
// one-page run; spilled and lost offsets are served by their own paths.
func (ns *Namespace) readCopy(c *Client, off uint32, fn func()) {
	sIdx := ns.placement[off]
	if sIdx == noServer {
		if holder := ns.spillHolder(off); holder != nil {
			ns.readSpilled(c, holder, off, fn)
			return
		}
		if ns.lost != nil && ns.lost.Test(mem.PageID(off)) {
			ns.readLost(c, off, fn)
			return
		}
		panic(fmt.Sprintf("vmd: read of unwritten offset %d in %s", off, ns.name))
	}
	ns.readRemote(c, ns.vmd.servers[sIdx], off, 1, fn)
}

// readRemote demand-reads n contiguous pages whose primary is s; fn runs once
// per delivered page.
func (ns *Namespace) readRemote(c *Client, s *Server, first uint32, n int, fn func()) {
	for i := 0; i < n; i++ {
		ns.touch(first + uint32(i))
	}
	if ns.em.Enabled() {
		if n == 1 {
			ns.em.Emitf(ns.vmd.eng.NowSeconds(), trace.VMDRead, "offset %d from %s via %s", first, s.name, c.name)
		} else {
			ns.em.Emitf(ns.vmd.eng.NowSeconds(), trace.VMDRead, "offsets %d..%d batched from %s via %s", first, first+uint32(n-1), s.name, c.name)
		}
	}
	ns.fetch(c, s, first, n, 1, demandRead{}, fn)
}

// ReadBatch fetches pages at ascending offsets through the client,
// grouping contiguous same-primary-server runs (up to the configured
// BatchPages) into one request/response pair each. Staged, tier-held and
// degraded offsets are served by their own paths, page by page. fn runs
// once every page has been delivered.
func (ns *Namespace) ReadBatch(c *Client, offs []uint32, fn func()) {
	if !ns.clients[c] {
		panic("vmd: read through unattached client " + c.name + " on namespace " + ns.name)
	}
	if len(offs) == 0 {
		panic("vmd: empty ReadBatch")
	}
	if int(offs[len(offs)-1]) >= len(ns.placement) {
		panic("vmd: read past end of namespace")
	}
	fn = ns.wrapReadSpan(fn, offs[0], len(offs))
	remaining := len(offs)
	each := ns.wrapLatency(func() {
		remaining--
		if remaining == 0 && fn != nil {
			fn()
		}
	})
	var pf *prefetcher
	if ns.vmd.store.Readahead.Enabled {
		pf = ns.prefFor(c)
	}
	maxRun := ns.BatchPages()
	i := 0
	for i < len(offs) {
		off := offs[i]
		if pf != nil {
			if pf.take(off) {
				ns.serveStaged(pf, c, off, each)
				i++
				continue
			}
			pf.observe(off)
		}
		if st := ns.ctHolder(off); st != nil {
			ns.readCtier(st, c, off, each)
			i++
			continue
		}
		sIdx := ns.placement[off]
		if sIdx == noServer {
			ns.readCopy(c, off, each)
			i++
			continue
		}
		j := i + 1
		for j < len(offs) && j-i < maxRun && offs[j] == offs[j-1]+1 &&
			ns.placement[offs[j]] == sIdx && ns.ctHolder(offs[j]) == nil &&
			(pf == nil || !pf.staged[offs[j]]) {
			j++
		}
		ns.readRemote(c, ns.vmd.servers[sIdx], off, j-i, each)
		i = j
	}
}
