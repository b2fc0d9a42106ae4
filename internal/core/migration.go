package core

import (
	"fmt"

	"agilemig/internal/cgroup"
	"agilemig/internal/guest"
	"agilemig/internal/mem"
	"agilemig/internal/metrics"
	"agilemig/internal/pool"
	"agilemig/internal/sim"
	"agilemig/internal/simnet"
	"agilemig/internal/trace"
)

type phase int

const (
	phaseLive    phase = iota // VM at source: pre-copy rounds / Agile round 1
	phaseSuspend              // VM suspended: stop-and-copy or switchover prep
	phasePush                 // VM at destination: active push + demand paging
	phaseDone
)

// Migration drives one live migration end to end. It models the Migration
// Manager threads on both hosts; because the simulation is single-threaded,
// one object can safely hold both ends' state, with the network flows
// between them carrying every byte that would cross the wire.
type Migration struct {
	eng  *sim.Engine
	net  *simnet.Network
	spec Spec
	tun  Tuning
	tech Technique

	vm       *guest.VM
	nPages   int
	srcTable *mem.Table
	srcGroup *cgroup.Group

	destTable *mem.Table
	destGroup *cgroup.Group

	pushFlow   *simnet.Flow // src -> dst: migration stream (pages, CPU state)
	demandFlow *simnet.Flow // src -> dst: demand-page responses
	ctrlFlow   *simnet.Flow // dst -> src: fault requests

	state         phase
	round         int
	cursor        mem.PageID
	prevRemaining int // dirty count at the previous round boundary
	// roundBM is the current pre-copy round's to-send set (or Agile round 1
	// = all pages). pushBM is the post-switchover push set.
	roundBM *mem.Bitmap
	pushBM  *mem.Bitmap
	// knownUntouched marks pages the destination may treat as zero pages
	// (Agile untouched records). offsetSent marks pages shipped by
	// reference, so the suspend step can detect stale references.
	knownUntouched *mem.Bitmap
	offsetSent     *mem.Bitmap

	faultInFlight     int // migration-driven swap-ins at the source
	scatterInFlight   int // scatter-gather: VMD writes in flight
	outstandingDemand int // demand responses in flight
	gatherInFlight    int // scatter-gather: destination prefetch clusters in flight
	pendingDemand     map[mem.PageID]*waitList
	srcDrained        bool
	switched          bool
	aborted           bool

	// msgs and waitLists recycle the page stream's records (pagemsg.go);
	// recRun is the open run of offset or untouched records, and offs is
	// scratch for a scatter batch's offsets.
	msgs      pool.Freelist[pageMsg]
	waitLists pool.Freelist[waitList]
	recRun    *pageMsg
	offs      []uint32

	downtimeBase sim.Duration
	result       Result
	em           *trace.Emitter // per-VM scope on spec.Trace; nil records nothing

	// Span-layer state. rootSpan covers the whole migration; phaseSpan is
	// whichever phase is current (a pre-copy/Agile round, the stop-and-copy
	// scan, the scatter or push stream); stopSpan covers exactly the
	// VM-stopped window (Suspend -> Switchover), so its duration equals the
	// migration's contribution to DowntimeSeconds; cpuSpan is the CPU-state
	// transit inside it; residSpan is the post-drain residual demand window.
	sp        *trace.SpanEmitter
	rootSpan  trace.SpanID
	phaseSpan trace.SpanID
	stopSpan  trace.SpanID
	cpuSpan   trace.SpanID
	residSpan trace.SpanID
	// demandMeta tracks outstanding demand faults for span + latency
	// accounting (allocated only when spans or metrics are on; never
	// iterated, so map order cannot leak).
	demandMeta map[mem.PageID]demandTrack
	demandHist *metrics.Histogram
}

// demandTrack is the per-page demand-fault accounting record.
type demandTrack struct {
	span  trace.SpanID
	start sim.Time
}

// event records a trace event stamped with the current simulated time (a
// nil emitter costs one branch).
func (m *Migration) event(kind trace.Kind, format string, args ...interface{}) {
	m.em.Emitf(m.eng.NowSeconds(), kind, format, args...)
}

// beginRoundSpan opens the current live round's phase span (pre-copy
// rounds and Agile's single live round).
func (m *Migration) beginRoundSpan() {
	if m.sp.Enabled() {
		m.phaseSpan = m.sp.Begin(m.eng.NowSeconds(), "round", m.rootSpan,
			trace.Num("round", float64(m.round)))
	}
}

// beginStopSpans opens the VM-stopped window span and, inside it, the
// CPU-state transit span. Both end at switchover; the stopped span's
// duration is by construction this migration's DowntimeSeconds.
func (m *Migration) beginStopSpans() {
	if m.sp.Enabled() {
		now := m.eng.NowSeconds()
		m.stopSpan = m.sp.Begin(now, "stopped", m.rootSpan)
		m.cpuSpan = m.sp.Begin(now, "cpu-state", m.stopSpan)
	}
}

// finishDemand closes a demand fault's accounting: one latency observation
// and the fault's span. Safe when tracking is off or the page has no entry.
func (m *Migration) finishDemand(p mem.PageID) {
	if m.demandMeta == nil {
		return
	}
	dt, ok := m.demandMeta[p]
	if !ok {
		return
	}
	delete(m.demandMeta, p)
	m.demandHist.Observe(sim.Seconds(m.eng.Now()-dt.start, m.eng.TickLen()))
	m.sp.End(m.eng.NowSeconds(), dt.span)
}

// Start launches a migration and returns the handle. The VM must currently
// run on spec.Source.
func Start(eng *sim.Engine, net *simnet.Network, tech Technique, spec Spec) *Migration {
	if spec.VM == nil || spec.Source == nil || spec.Dest == nil {
		panic("core: incomplete migration spec")
	}
	if tech == Agile && spec.Namespace == nil && !spec.Tuning.NoRemoteSwap {
		panic("core: Agile migration requires the VM's namespace")
	}
	if tech == ScatterGather && spec.Namespace == nil {
		panic("core: scatter-gather migration requires the VM's namespace")
	}
	vm := spec.VM
	// A VM has exactly one Migration Manager pair at a time. Starting a
	// second migration while one is live would hand two engines the same
	// page table and adopt a second destination cgroup over the first —
	// silent page-state corruption. Callers that want queueing implement it
	// above this layer (cluster.Testbed rejects, ctlplane queues).
	if vm.Migrating() {
		panic(fmt.Sprintf("core: VM %s is already mid-migration", vm.Name()))
	}
	vm.SetMigrating(true)
	m := &Migration{
		eng:           eng,
		net:           net,
		spec:          spec,
		tun:           spec.Tuning.withDefaults(),
		tech:          tech,
		vm:            vm,
		nPages:        vm.Pages(),
		srcTable:      vm.Table(),
		srcGroup:      vm.Group(),
		pendingDemand: make(map[mem.PageID]*waitList),
		downtimeBase:  vm.Downtime(),
	}
	m.em = spec.Trace.Emitter(trace.ScopeVM, vm.Name())
	m.sp = spec.Trace.SpanEmitter(trace.ScopeVM, vm.Name())
	m.demandHist = spec.Metrics.Histogram(vm.Name()+"/demand.latency.seconds", metrics.DefaultLatencyBounds)
	if m.sp.Enabled() || m.demandHist != nil {
		m.demandMeta = make(map[mem.PageID]demandTrack)
	}
	m.result.Technique = tech
	m.result.VMName = vm.Name()
	m.result.Start = eng.Now()
	m.event(trace.MigrationStart, "%s of %s: %d pages, %s -> %s",
		tech, vm.Name(), m.nPages, spec.Source.Name(), spec.Dest.Name())
	if m.sp.Enabled() {
		m.rootSpan = m.sp.Begin(eng.NowSeconds(), "migration", 0,
			trace.Str("technique", tech.String()),
			trace.Num("pages", float64(m.nPages)),
			trace.Str("source", spec.Source.Name()),
			trace.Str("dest", spec.Dest.Name()))
	}

	src, dst := spec.Source.NIC(), spec.Dest.NIC()
	m.pushFlow = net.NewFlow("mig:push:"+vm.Name(), src, dst, spec.Latency)
	m.demandFlow = net.NewFlow("mig:demand:"+vm.Name(), src, dst, spec.Latency)
	m.ctrlFlow = net.NewFlow("mig:ctrl:"+vm.Name(), dst, src, spec.Latency)
	if m.tun.BandwidthCapBytesPerSec > 0 {
		m.pushFlow.SetRateCapBytesPerSecond(m.tun.BandwidthCapBytesPerSec)
		m.demandFlow.SetRateCapBytesPerSecond(m.tun.BandwidthCapBytesPerSec)
	}

	// The destination KVM/QEMU process: a fresh table and cgroup. For
	// Agile the reservation is clamped only at switchover (the per-VM swap
	// device is still attached at the source, so the destination must not
	// evict before then); pre/post-copy destinations evict to their own
	// shared partition from the first received page.
	m.destTable = mem.NewTable(m.nPages)
	resv := spec.DestReservationBytes
	if tech == Agile || tech == ScatterGather {
		resv = vm.MemBytes()
	}
	m.destGroup = cgroup.New(eng, spec.Dest.Name()+"/"+vm.Name(), m.destTable, spec.DestBackend, resv)
	m.destGroup.SetEmitter(spec.Trace.Emitter(trace.ScopeVM, m.destGroup.Name()))
	m.destGroup.RegisterMetrics(spec.Metrics)
	spec.Dest.AdoptGroup(vm, m.destGroup)

	switch tech {
	case PreCopy:
		m.roundBM = mem.NewBitmap(m.nPages)
		m.roundBM.SetAll()
		m.round = 1
		m.result.Rounds = 1
		m.state = phaseLive
		m.beginRoundSpan()
	case PostCopy:
		// Suspend immediately; CPU state leads the stream, pages follow.
		m.event(trace.Suspend, "immediate (post-copy)")
		vm.Suspend()
		m.beginStopSpans()
		m.pushBM = mem.NewBitmap(m.nPages)
		m.pushBM.SetAll()
		m.state = phasePush
		m.pushFlow.SendMessage(cpuStateBytes, m.switchover)
	case Agile:
		m.roundBM = mem.NewBitmap(m.nPages)
		m.roundBM.SetAll()
		m.knownUntouched = mem.NewBitmap(m.nPages)
		m.offsetSent = mem.NewBitmap(m.nPages)
		m.round = 1
		m.result.Rounds = 1
		m.state = phaseLive
		m.beginRoundSpan()
	case ScatterGather:
		m.startScatterGather()
	}
	eng.AddTicker(sim.PhaseControl, m)
	return m
}

// Result returns the migration's result so far; meaningful once Done.
func (m *Migration) Result() *Result { return &m.result }

// Done reports whether the source holds no VM state anymore.
func (m *Migration) Done() bool { return m.state == phaseDone }

// Switched reports whether execution has moved to the destination.
func (m *Migration) Switched() bool { return m.switched }

// Aborted reports whether the migration was rolled back to the source.
func (m *Migration) Aborted() bool { return m.aborted }

// Abort rolls a pre-switchover migration back to the source: the
// destination discards everything it received, the VM (resumed if the
// stop-and-copy had suspended it) keeps running where it was, and the
// migration flows close. Returns false once execution has moved to the
// destination (or the migration already finished) — past that point there
// is no source copy to fall back to.
func (m *Migration) Abort() bool {
	if m.switched || m.state == phaseDone || m.aborted {
		return false
	}
	m.aborted = true
	m.state = phaseDone
	m.vm.SetMigrating(false)
	m.result.Aborted = true
	m.event(trace.MigrationAbort, "rolled back to %s after %d pages sent",
		m.spec.Source.Name(), m.result.PagesSent)
	if m.sp.Enabled() {
		now := m.eng.NowSeconds()
		m.sp.End(now, m.phaseSpan)
		m.sp.End(now, m.cpuSpan)
		m.sp.End(now, m.stopSpan)
		m.sp.End(now, m.residSpan)
		m.sp.End(now, m.rootSpan, trace.Str("outcome", "aborted"))
	}
	// The destination side is torn down; its cgroup never ran the VM.
	m.destGroup.Disable()
	m.spec.Dest.RemoveVM(m.vm.Name())
	// Undo anything the live phase did to the guest's execution.
	m.vm.SetCPUQuota(1)
	if !m.vm.Running() {
		m.vm.Resume()
	}
	m.result.End = m.eng.Now()
	m.result.TotalSeconds = sim.Seconds(m.result.End-m.result.Start, m.eng.TickLen())
	m.result.DowntimeSeconds = sim.Seconds(sim.Time(m.vm.Downtime()-m.downtimeBase), m.eng.TickLen())
	m.result.BytesTransferred = m.pushFlow.Offered() + m.demandFlow.Offered() + m.ctrlFlow.Offered()
	m.pushFlow.Close()
	m.demandFlow.Close()
	m.ctrlFlow.Close()
	m.dropPools()
	if m.spec.OnComplete != nil {
		m.spec.OnComplete(&m.result)
	}
	return true
}

// Tick advances the engine's current phase.
func (m *Migration) Tick(_ sim.Time) {
	switch m.state {
	case phaseLive, phaseSuspend:
		if m.roundBM != nil {
			m.pumpRound()
		}
	case phasePush:
		if m.tech == ScatterGather {
			m.pumpScatter()
		} else {
			m.pumpPush()
		}
	}
}

// NextWake reports when the migration pump next has work. While a pump is
// active the manager runs every tick; in the states where Tick is an exact
// no-op — done, waiting for the CPU state to land, demand-only ablation, or
// source drained — progress is driven entirely by flow-delivery and device
// events, so the engine may skip ahead.
func (m *Migration) NextWake(now sim.Time) (sim.Time, bool) {
	switch m.state {
	case phaseDone:
		return sim.Never, true
	case phaseLive, phaseSuspend:
		if m.roundBM == nil {
			// Stop-and-copy finished; the CPU state is on the wire and
			// switchover fires as a message callback.
			return sim.Never, true
		}
		return now + 1, true
	default: // phasePush
		if m.tech == Agile && !m.switched {
			return sim.Never, true
		}
		if m.tun.DisableActivePush && m.tech != ScatterGather {
			return sim.Never, true
		}
		if m.srcDrained {
			return sim.Never, true
		}
		return now + 1, true
	}
}

// pumpRound walks the current round's bitmap, respecting the send window
// and the swap-in concurrency bound.
func (m *Migration) pumpRound() {
	budget := pumpPagesPerTick
	for budget > 0 {
		if m.pushFlow.Backlog() >= windowBytes {
			return
		}
		p := m.roundBM.NextSet(m.cursor)
		if p == mem.NoPage {
			if m.faultInFlight > 0 {
				return // stragglers still swapping in
			}
			m.endRound()
			return
		}
		m.cursor = p + 1
		m.roundBM.Clear(p)
		st := m.srcTable.State(p)
		consumed := 1
		switch m.tech {
		case PreCopy:
			if st.OnSwap() {
				// §II: swapped pages must be brought back into memory
				// before they can be transferred.
				if m.faultInFlight >= maxSwapInFlight {
					m.roundBM.Set(p)
					m.cursor = p
					return
				}
				m.swapInAndSend(p, m.roundBM, false)
			} else {
				consumed = m.sendFullRun(p, m.roundBM, budget, false, extendNonSwap)
			}
		case Agile:
			// §IV-E: consult the pagemap; swapped pages travel as offset
			// records, untouched pages as zero records, resident pages in
			// full. Nothing is swapped in — unless the NoRemoteSwap
			// ablation removes the portable swap device, in which case
			// swapped pages take the pre-copy path.
			switch {
			case st.OnSwap() && m.tun.NoRemoteSwap:
				if m.faultInFlight >= maxSwapInFlight {
					m.roundBM.Set(p)
					m.cursor = p
					return
				}
				m.swapInAndSend(p, m.roundBM, false)
			case st.OnSwap():
				m.sendOffsetRecord(p)
			case st == mem.StateUntouched:
				m.sendUntouchedRecord(p)
			default:
				consumed = m.sendFullRun(p, m.roundBM, budget, false, extendAgileFull)
			}
		default:
			panic("core: pumpRound in " + m.tech.String())
		}
		budget -= consumed
	}
}

// extendNonSwap admits any in-memory page into a full-page run (the
// pre-copy and push predicates: everything not on the swap device streams
// in full).
func extendNonSwap(s mem.PageState) bool { return !s.OnSwap() }

// extendAgileFull admits only resident-tier pages: in Agile's live round,
// swapped and untouched pages travel as records, not full pages.
func extendAgileFull(s mem.PageState) bool { return !s.OnSwap() && s != mem.StateUntouched }

// pumpPush streams the post-switchover push set, swapping in at the source
// where needed (post-copy only; Agile's push set was faulted in before
// switchover).
func (m *Migration) pumpPush() {
	if !m.switched && m.tech == Agile {
		return // waiting for the CPU state to arrive
	}
	if m.tun.DisableActivePush {
		return // ablation: demand paging only; transfer time is unbounded
	}
	budget := pumpPagesPerTick
	for budget > 0 {
		if m.pushFlow.Backlog() >= windowBytes {
			return
		}
		p := m.pushBM.NextSet(m.cursor)
		if p == mem.NoPage {
			if m.faultInFlight > 0 {
				return
			}
			if !m.srcDrained {
				m.srcDrained = true
				m.event(trace.SourceDrained, "push set empty after %d pages", m.result.PagesSent)
				m.beginResidualSpan()
				// FIFO marker: when this arrives, every pushed page has.
				m.pushFlow.SendMessage(recordBytes, func() {
					m.maybeComplete()
				})
				if m.tun.DemandRetrySeconds > 0 {
					// The marker itself can be lost inside a loss window;
					// poll completion at the retry cadence as a backstop.
					m.armDrainCheck()
				}
			}
			return
		}
		m.cursor = p + 1
		m.pushBM.Clear(p)
		st := m.srcTable.State(p)
		consumed := 1
		if st.OnSwap() {
			if m.faultInFlight >= maxSwapInFlight {
				m.pushBM.Set(p)
				m.cursor = p
				return
			}
			m.swapInAndSend(p, m.pushBM, true)
		} else {
			consumed = m.sendFullRun(p, m.pushBM, budget, true, extendNonSwap)
		}
		budget -= consumed
	}
}

// beginResidualSpan closes the active streaming phase span (push or
// scatter) and opens the residual window: the tail between the source
// draining and the migration completing, spent waiting on in-flight
// deliveries and unanswered demand faults.
func (m *Migration) beginResidualSpan() {
	if !m.sp.Enabled() {
		return
	}
	now := m.eng.NowSeconds()
	m.sp.End(now, m.phaseSpan, trace.Num("pages-sent", float64(m.result.PagesSent)))
	m.phaseSpan = 0
	m.residSpan = m.sp.Begin(now, "residual", m.rootSpan)
}

// armDrainCheck re-evaluates completion periodically once the source has
// drained, so a lost drain marker or demand response cannot wedge an
// otherwise-finished migration.
func (m *Migration) armDrainCheck() {
	m.eng.AfterSeconds(m.tun.DemandRetrySeconds, func() {
		if m.state == phaseDone {
			return
		}
		m.maybeComplete()
		if m.state != phaseDone {
			m.armDrainCheck()
		}
	})
}

// swapInAndSend swaps in page p at the source — together with up to a
// readahead cluster's worth of consecutive swapped pages still pending in
// bm — and streams the batch when it lands. p has already been cleared
// from bm; the cluster members are cleared here. The caller has verified
// the in-flight bound.
func (m *Migration) swapInAndSend(p mem.PageID, bm *mem.Bitmap, freeAfter bool) {
	m.faultInFlight++
	if m.srcTable.State(p) == mem.StateFaulting {
		// A guest fault is already bringing the page in; join it.
		r := m.newMsg(kindSwappedIn, p, 1)
		r.freeAfter = freeAfter
		m.srcGroup.FaultIn(p, r.fireF)
		return
	}
	q := p + 1
	for int(q) < m.nPages && int(q-p) < swapInCluster && bm.Test(q) && m.srcTable.State(q) == mem.StateSwapped {
		bm.Clear(q)
		q++
	}
	r := m.newMsg(kindSwappedIn, p, int(q-p))
	r.freeAfter = freeAfter
	for x := p; x < q; x++ {
		r.pages = append(r.pages, x)
	}
	m.srcGroup.FaultInCluster(r.pages, r.fireF)
}

// sendFullRun streams a run of consecutive in-memory pages starting at p as
// one batched message. p is already cleared from bm; the extension — bounded
// by BatchPages, the remaining pump budget, and the extend predicate over
// page states — clears its members and advances the cursor past them.
// Returns the number of pages consumed (1 with batching off, taking exactly
// the unbatched path).
func (m *Migration) sendFullRun(p mem.PageID, bm *mem.Bitmap, budget int, freeAfter bool, extend func(mem.PageState) bool) int {
	maxRun := min(m.tun.BatchPages, budget)
	if maxRun <= 1 {
		m.sendFullPage(p, freeAfter)
		return 1
	}
	q := p + 1
	for int(q) < m.nPages && int(q-p) < maxRun && bm.Test(q) && extend(m.srcTable.State(q)) {
		bm.Clear(q)
		q++
	}
	m.cursor = q
	m.sendFullPages(p, int(q-p), freeAfter)
	return int(q - p)
}

// sendFullPages streams the n pages from first as one message: the page
// bodies share a single header frame, and delivery lands them at the
// destination in order. A single page takes the unbatched path exactly.
func (m *Migration) sendFullPages(first mem.PageID, n int, freeAfter bool) {
	if n == 1 {
		m.sendFullPage(first, freeAfter)
		return
	}
	m.result.PagesSent += int64(n)
	end := first + mem.PageID(n)
	for q := first; q < end; q++ {
		m.srcTable.ClearDirty(q)
	}
	r := m.newMsg(kindFull, first, n)
	if m.sp.Enabled() {
		r.span = m.sp.Begin(m.eng.NowSeconds(), "batch", m.phaseSpan,
			trace.Num("pages", float64(n)))
	}
	m.pushFlow.SendMessage(mem.PagesToBytes(n)+pageHeaderBytes, r.fireF)
	if freeAfter {
		for q := first; q < end; q++ {
			m.freeSourcePage(q)
		}
	}
}

// sendFullPage streams one page; freeAfter releases the source copy (active
// push and demand service free source memory as they go).
func (m *Migration) sendFullPage(p mem.PageID, freeAfter bool) {
	m.result.PagesSent++
	m.srcTable.ClearDirty(p)
	m.pushFlow.SendMessage(mem.PageSize+pageHeaderBytes, m.newMsg(kindFull, p, 1).fireF)
	if freeAfter {
		m.freeSourcePage(p)
	}
}

// sendOffsetRecord ships a swapped page by reference (Agile).
func (m *Migration) sendOffsetRecord(p mem.PageID) {
	m.result.OffsetRecords++
	m.offsetSent.Set(p)
	m.srcTable.ClearDirty(p)
	m.sendRecord(kindOffset, p, m.srcTable.SwapOffset(p))
}

// sendUntouchedRecord tells the destination the page reads as zeros.
func (m *Migration) sendUntouchedRecord(p mem.PageID) {
	m.result.UntouchedRecords++
	m.sendRecord(kindUntouched, p, uint32(p))
}

// freeSourcePage releases the page's source memory once its content is on
// the wire.
func (m *Migration) freeSourcePage(p mem.PageID) {
	switch m.srcTable.State(p) {
	case mem.StateResident, mem.StateEvicting:
		// An in-flight write-back completes against a non-Evicting state
		// and releases its slot.
		m.srcTable.SetState(p, mem.StateUntouched)
	default:
		// Swapped pages stay on the device (Agile cold pages); untouched
		// pages are already free; faulting cannot happen after content was
		// read.
	}
}

// deliverFullPage lands a streamed page in the destination's memory.
func (m *Migration) deliverFullPage(p mem.PageID) {
	t := m.destTable
	switch t.State(p) {
	case mem.StateUntouched:
		t.SetState(p, mem.StateResident)
	case mem.StateSwapped:
		// A newer copy supersedes the one the destination had evicted.
		m.destGroup.Backend().Release(t.SwapOffset(p))
		t.SetState(p, mem.StateResident)
	case mem.StateEvicting:
		m.destGroup.CancelEviction(p)
	case mem.StateResident, mem.StateFaulting:
		// Duplicate (demand/push race) or racing its own fault; no change.
	}
	m.fireDemandWaiters(p)
}

// --- demand paging ------------------------------------------------------

// requestFromSource registers a destination fault and asks the source for
// the page (deduplicating concurrent faults on the same page).
func (m *Migration) requestFromSource(p mem.PageID, done func()) {
	if ws := m.pendingDemand[p]; ws != nil {
		ws.fns = append(ws.fns, done)
		return
	}
	ws := m.waitLists.Get()
	if ws == nil {
		ws = &waitList{}
	}
	ws.fns = append(ws.fns, done)
	m.pendingDemand[p] = ws
	m.result.DemandRequests++
	if m.em.Enabled() {
		m.em.Emitf(m.eng.NowSeconds(), trace.DemandFault, "page %d requested from %s", p, m.spec.Source.Name())
	}
	if m.demandMeta != nil {
		dt := demandTrack{start: m.eng.Now()}
		if m.sp.Enabled() {
			dt.span = m.sp.Begin(m.eng.NowSeconds(), "demand-fault", m.rootSpan,
				trace.Num("page", float64(p)))
		}
		m.demandMeta[p] = dt
	}
	m.ctrlFlow.SendMessage(demandRequestBytes, m.newMsg(kindDemandReq, p, 1).fireF)
	if m.tun.DemandRetrySeconds > 0 {
		m.armDemandRetry(p, m.tun.DemandRetrySeconds, 1)
	}
}

// armDemandRetry re-sends a demand request that a crash, link outage or
// lost message swallowed: if the page is still unanswered when the timer
// fires, the request goes out again and the timeout doubles (capped at
// 16x the base), up to the retry budget. A retried request may cross a
// late response on the wire; the duplicate delivery is absorbed by
// deliverFullPage.
func (m *Migration) armDemandRetry(p mem.PageID, delay float64, attempt int) {
	m.eng.AfterSeconds(delay, func() {
		if m.state == phaseDone {
			return
		}
		if _, waiting := m.pendingDemand[p]; !waiting {
			return
		}
		if attempt > m.tun.DemandRetryMax {
			return // budget spent; the active push still covers the page
		}
		m.result.DemandRetries++
		m.event(trace.DemandRetry, "page %d unanswered after %.2fs, re-requesting (attempt %d)", p, delay, attempt)
		if dt, ok := m.demandMeta[p]; ok {
			m.sp.SetAttr(dt.span, trace.Num("retries", float64(attempt)))
		}
		r := m.newMsg(kindDemandReq, p, 1)
		r.retry = true
		m.ctrlFlow.SendMessage(demandRequestBytes, r.fireF)
		next := delay * 2
		if max := m.tun.DemandRetrySeconds * 16; next > max {
			next = max
		}
		m.armDemandRetry(p, next, attempt+1)
	})
}

// serveDemand handles a fault request at the source.
func (m *Migration) serveDemand(p mem.PageID, retry bool) {
	if m.pushBM == nil || !m.pushBM.Test(p) {
		// Already pushed (or being pushed): the in-flight copy will fire
		// the waiters on delivery — unless this is a retry, meaning that
		// copy (or the earlier response) was likely lost in transit; send
		// the page again and let duplicate delivery dedup.
		if !retry {
			return
		}
		if _, waiting := m.pendingDemand[p]; !waiting {
			return
		}
		if st := m.srcTable.State(p); st.OnSwap() {
			m.faultInFlight++
			m.srcGroup.FaultIn(p, m.newMsg(kindDemandSwappedIn, p, 1).fireF)
			return
		}
		m.respondDemand(p)
		return
	}
	m.pushBM.Clear(p)
	st := m.srcTable.State(p)
	if st.OnSwap() {
		if m.tech == ScatterGather && st == mem.StateSwapped {
			// The page is already on the per-VM swap device: answer with a
			// record instead of pulling it through source memory.
			m.sendScatterRecord(p, m.srcTable.SwapOffset(p))
			return
		}
		m.faultInFlight++
		m.srcGroup.FaultIn(p, m.newMsg(kindDemandSwappedIn, p, 1).fireF)
		return
	}
	m.respondDemand(p)
}

func (m *Migration) respondDemand(p mem.PageID) {
	m.result.PagesSent++
	m.result.PagesDemandServed++
	m.srcTable.ClearDirty(p)
	m.outstandingDemand++
	m.demandFlow.SendMessage(mem.PageSize+pageHeaderBytes, m.newMsg(kindDemandResp, p, 1).fireF)
	m.freeSourcePage(p)
}

func (m *Migration) fireDemandWaiters(p mem.PageID) {
	ws := m.pendingDemand[p]
	if ws == nil {
		return
	}
	delete(m.pendingDemand, p)
	m.finishDemand(p)
	m.wake(ws)
	m.maybeComplete()
}

// maybeComplete finishes the migration once the source is drained and no
// demand traffic is outstanding.
func (m *Migration) maybeComplete() {
	if m.state != phasePush || !m.srcDrained {
		return
	}
	if len(m.pendingDemand) > 0 || m.faultInFlight > 0 {
		return
	}
	// With retries off every response callback fires, so in-flight
	// responses gate completion exactly. With retries armed a lost
	// response leaks this counter; the destination is whole once nothing
	// is pending, so the leak must not wedge completion.
	if m.outstandingDemand > 0 && m.tun.DemandRetrySeconds <= 0 {
		return
	}
	m.complete()
}

// complete tears down the source side.
func (m *Migration) complete() {
	if m.state == phaseDone {
		return
	}
	m.state = phaseDone
	m.vm.SetMigrating(false)
	m.event(trace.Complete, "total %.2fs, %d pages sent, %d demand-served",
		sim.Seconds(m.eng.Now()-m.result.Start, m.eng.TickLen()), m.result.PagesSent, m.result.PagesDemandServed)
	if m.sp.Enabled() {
		now := m.eng.NowSeconds()
		m.sp.End(now, m.residSpan)
		m.sp.End(now, m.phaseSpan)
		m.sp.End(now, m.rootSpan,
			trace.Num("pages-sent", float64(m.result.PagesSent)),
			trace.Num("demand-served", float64(m.result.PagesDemandServed)))
	}
	if m.tech != PreCopy {
		// Runtime faults from here on use the destination cgroup directly.
		m.vm.SetFaultHandler(nil)
	}
	if (m.tech == Agile || m.tech == ScatterGather) && !m.tun.NoRemoteSwap {
		// §IV-B: disconnect the per-VM swap device from the source once
		// the in-memory state has fully migrated.
		m.spec.Namespace.Detach(m.spec.Source.VMDClient())
		m.event(trace.NamespaceDetach, "namespace detached from %s (source drained)", m.spec.Source.Name())
	}
	m.srcGroup.Disable()
	m.spec.Source.RemoveVM(m.vm.Name())
	m.result.End = m.eng.Now()
	m.result.TotalSeconds = sim.Seconds(m.result.End-m.result.Start, m.eng.TickLen())
	m.result.DowntimeSeconds = sim.Seconds(sim.Time(m.vm.Downtime()-m.downtimeBase), m.eng.TickLen())
	m.result.BytesTransferred = m.pushFlow.Offered() + m.demandFlow.Offered() + m.ctrlFlow.Offered()
	m.pushFlow.Close()
	m.demandFlow.Close()
	m.ctrlFlow.Close()
	if m.tech == ScatterGather && m.tun.GatherPrefetch {
		m.startGatherPrefetch() // drops the pools when the gather ends
	} else {
		m.dropPools()
	}
	if m.spec.OnComplete != nil {
		m.spec.OnComplete(&m.result)
	}
}

// switchover moves execution to the destination (runs when the CPU state
// message is delivered there).
func (m *Migration) switchover() {
	if m.switched {
		return
	}
	m.switched = true
	m.result.Switchover = m.eng.Now()
	m.event(trace.Switchover, "execution resumes at %s", m.spec.Dest.Name())
	if m.sp.Enabled() {
		now := m.eng.NowSeconds()
		m.sp.End(now, m.cpuSpan)
		m.sp.End(now, m.stopSpan)
		m.cpuSpan, m.stopSpan = 0, 0
		if m.tech == PostCopy || m.tech == Agile {
			// Scatter-gather keeps its scatter span; pre-copy completes here.
			m.phaseSpan = m.sp.Begin(now, "push", m.rootSpan)
		}
	}
	if m.tech == ScatterGather {
		// The portable swap device attaches at the destination; scattered
		// pages become reachable there as their records arrive.
		m.spec.Namespace.AttachTo(m.spec.Dest.VMDClient())
		m.event(trace.NamespaceAttach, "namespace attached at %s (switchover)", m.spec.Dest.Name())
		m.destGroup.SetReservationBytes(m.spec.DestReservationBytes)
	}
	if m.tech == Agile {
		// An offset record can go stale without the page ever hitting the
		// dirty log: a clean read at the source faults the page in, which
		// frees the swap slot the record points at. Fold such pages into
		// the push set so the record is discarded below and the resident
		// copy is re-sent like any other live-round casualty.
		m.offsetSent.ForEachSet(func(p mem.PageID) bool {
			if !m.srcTable.State(p).OnSwap() && !m.pushBM.Test(p) {
				m.pushBM.Set(p)
				m.result.StaleOffsetRecords++
			}
			return true
		})
		// Discard destination copies that went stale during the live
		// round: the shipped dirty bitmap tells the destination which
		// pages must come from the source regardless of what it received.
		m.pushBM.ForEachSet(func(p mem.PageID) bool {
			switch m.destTable.State(p) {
			case mem.StateResident:
				m.destTable.SetState(p, mem.StateUntouched)
			case mem.StateSwapped:
				// The offset record is stale; the source faulted the page
				// in (releasing the slot) before switchover.
				m.destTable.SetState(p, mem.StateUntouched)
			}
			m.knownUntouched.Clear(p)
			return true
		})
		// The portable swap device attaches at the destination; the VM's
		// cold pages become reachable there.
		if !m.tun.NoRemoteSwap {
			m.spec.Namespace.AttachTo(m.spec.Dest.VMDClient())
			m.event(trace.NamespaceAttach, "namespace attached at %s (switchover)", m.spec.Dest.Name())
		}
		m.destGroup.SetReservationBytes(m.spec.DestReservationBytes)
	}
	// Any auto-converge throttling ends with the move.
	m.vm.SetCPUQuota(1)
	m.vm.ReplaceTable(m.destTable)
	m.vm.AttachGroup(m.destGroup)
	if m.tech != PreCopy {
		m.vm.SetFaultHandler(&destFaultHandler{m: m})
	}
	if m.spec.OnSwitchover != nil {
		m.spec.OnSwitchover()
	}
	m.vm.Resume()
	if m.tech == PreCopy {
		m.complete()
	}
}

func (m *Migration) String() string {
	return fmt.Sprintf("migration{%s %s, phase %d, round %d}", m.tech, m.vm.Name(), m.state, m.round)
}
