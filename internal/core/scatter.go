package core

import (
	"agilemig/internal/mem"
	"agilemig/internal/sim"
	"agilemig/internal/trace"
)

// Scatter-gather migration ([22], §VI): optimize the time until the source
// host is free, not the time until the VM's memory has a new home. The VM
// suspends immediately and resumes at the destination (like post-copy),
// but instead of streaming memory to the destination, the source scatters
// every resident page into the VM's VMD namespace — bounded only by the
// source NIC and the intermediaries, not by the destination. As each page
// lands, a 16-byte record tells the destination to mark it in the swapped
// bitmap; from then on the destination gathers it from the per-VM swap
// device like any Agile cold page. Pages the destination faults on before
// their scatter completes are served directly from source memory over the
// demand channel.

// startScatterGather initializes the technique (called from Start).
func (m *Migration) startScatterGather() {
	m.event(trace.ScatterStart, "scattering %d pages into the namespace", m.nPages)
	m.event(trace.Suspend, "immediate (scatter-gather)")
	m.vm.Suspend()
	m.beginStopSpans()
	if m.sp.Enabled() {
		// The scatter stream runs through the stopped window and past
		// switchover until the source drains, so it is the root's child,
		// not the stopped window's.
		m.phaseSpan = m.sp.Begin(m.eng.NowSeconds(), "scatter", m.rootSpan)
	}
	m.pushBM = mem.NewBitmap(m.nPages)
	m.pushBM.SetAll()
	m.knownUntouched = mem.NewBitmap(m.nPages)
	m.state = phasePush
	m.pushFlow.SendMessage(cpuStateBytes, m.switchover)
}

// pumpScatter walks the remaining pages, scattering resident ones to the
// VMD and shipping by-reference records for the rest.
func (m *Migration) pumpScatter() {
	// Scattering starts immediately — it needs no destination involvement,
	// and the records queue behind the CPU-state message on the FIFO
	// stream, so they cannot arrive before the namespace attaches.
	budget := pumpPagesPerTick
	for budget > 0 {
		if m.scatterInFlight >= maxScatterInFlight {
			return
		}
		if m.pushFlow.Backlog() >= windowBytes {
			return
		}
		p := m.pushBM.NextSet(m.cursor)
		if p == mem.NoPage {
			if m.pushBM.Count() > 0 {
				// Deferred pages (in-flight evictions) remain behind the
				// cursor; wrap and retry.
				m.cursor = 0
				return
			}
			if m.scatterInFlight > 0 || m.faultInFlight > 0 {
				return
			}
			if !m.srcDrained {
				m.srcDrained = true
				m.event(trace.SourceDrained, "scatter complete after %d pages", m.result.PagesScattered)
				m.beginResidualSpan()
				m.pushFlow.SendMessage(recordBytes, func() {
					m.maybeComplete()
				})
			}
			return
		}
		m.cursor = p + 1
		m.pushBM.Clear(p)
		consumed := 1
		switch m.srcTable.State(p) {
		case mem.StateSwapped:
			// Already on the per-VM swap device.
			m.sendScatterRecord(p, m.srcTable.SwapOffset(p))
		case mem.StateFaulting:
			// A guest fault was in flight at suspend time; its slot frees
			// on completion, so scatter the page once it lands.
			m.faultInFlight++
			m.srcGroup.FaultIn(p, m.newMsg(kindScatterSwappedIn, p, 1).fireF)
		case mem.StateEvicting:
			// The page's own eviction is already writing it to the
			// namespace; let it finish and pick the page up as Swapped on
			// the next wrap.
			m.pushBM.Set(p)
		case mem.StateUntouched:
			m.sendUntouchedRecord(p)
		default: // Resident
			consumed = m.scatterRun(p, budget)
		}
		budget -= consumed
	}
}

// scatterRun scatters a run of consecutive resident pages starting at p as
// one batched VMD write (one in-flight unit), bounded by BatchPages and the
// remaining pump budget. Returns the number of pages consumed; with
// batching off it scatters exactly one page the unbatched way.
func (m *Migration) scatterRun(p mem.PageID, budget int) int {
	maxRun := min(m.tun.BatchPages, budget)
	if maxRun <= 1 {
		m.scatterPage(p)
		return 1
	}
	q := p + 1
	for int(q) < m.nPages && int(q-p) < maxRun && m.pushBM.Test(q) && m.srcTable.State(q) == mem.StateResident {
		m.pushBM.Clear(q)
		q++
	}
	m.cursor = q
	n := int(q - p)
	if n == 1 {
		m.scatterPage(p)
		return 1
	}
	m.scatterInFlight++
	m.result.PagesScattered += int64(n)
	// WriteBatch reads the offsets during the call, so one scratch slice
	// serves every batch.
	m.offs = m.offs[:0]
	for x := p; x < q; x++ {
		m.offs = append(m.offs, uint32(x))
	}
	r := m.newMsg(kindScattered, p, n)
	if m.sp.Enabled() {
		r.span = m.sp.Begin(m.eng.NowSeconds(), "scatter-batch", m.phaseSpan,
			trace.Num("pages", float64(n)))
	}
	m.spec.Namespace.WriteBatch(m.spec.Source.VMDClient(), m.offs, r.fireF)
	return n
}

// scatterPage writes one resident page into the VM's namespace through the
// source's VMD client, then tells the destination where to find it and
// frees the source copy.
func (m *Migration) scatterPage(p mem.PageID) {
	m.scatterInFlight++
	m.result.PagesScattered++
	m.spec.Namespace.Write(m.spec.Source.VMDClient(), uint32(p), m.newMsg(kindScattered, p, 1).fireF)
}

// sendScatterRecord ships a swapped-bitmap record to the destination after
// the page is durable on the VMD. Unlike Agile's pre-switchover offset
// records, these arrive while the destination VM runs, so a record may
// resolve faults already waiting on the page.
func (m *Migration) sendScatterRecord(p mem.PageID, off uint32) {
	m.result.OffsetRecords++
	m.sendRecord(kindScatter, p, off)
}

// sendScatterRecords ships the records of the n pages from first, each at
// its own page's slot, after they were scattered by one write: with more
// than one page they share one message, as the page bodies did.
func (m *Migration) sendScatterRecords(first mem.PageID, n int) {
	if n == 1 {
		m.sendScatterRecord(first, uint32(first))
		return
	}
	m.result.OffsetRecords += int64(n)
	m.pushFlow.SendMessage(int64(n)*recordBytes, m.newMsg(kindScatterBatch, first, n).fireF)
}

// deliverScatterRecord lands one swapped-bitmap record at the destination.
func (m *Migration) deliverScatterRecord(p mem.PageID, off uint32) {
	t := m.destTable
	if t.State(p) == mem.StateUntouched {
		t.SetSwapOffset(p, off)
		t.SetState(p, mem.StateSwapped)
	}
	if ws := m.pendingDemand[p]; ws != nil {
		// Faults were waiting for this page; it is now reachable on
		// the swap device.
		delete(m.pendingDemand, p)
		r := m.newMsg(kindWaitersIn, p, 1)
		r.waiters = ws
		m.destGroup.FaultIn(p, r.fireF)
	}
}

// startGatherPrefetch actively pulls scattered pages into the
// destination's reservation after the source is free (the "gather" of the
// original system; without it, pages arrive only as the workload faults).
// The migration's record pools are dropped when the gather ends.
func (m *Migration) startGatherPrefetch() {
	m.event(trace.GatherStart, "prefetching scattered pages into %s", m.spec.Dest.Name())
	var gsp trace.SpanID
	if m.sp.Enabled() {
		// The root span has just ended (complete runs first), but parent
		// links are structural, not lifetime-nested: the gather tail still
		// belongs to this migration's tree.
		gsp = m.sp.Begin(m.eng.NowSeconds(), "gather", m.rootSpan)
	}
	var cursor mem.PageID
	done := false
	// The hint mirrors the tick body's guards exactly: whenever the body
	// would fall through without touching cursor/gatherInFlight (finished,
	// fetch window full, or no reservation headroom), the tick is a no-op
	// and the engine may skip; fault completions and reclaim run off their
	// own wakes.
	hint := func(now sim.Time) (sim.Time, bool) {
		if done || m.gatherInFlight >= maxSwapInFlight ||
			mem.BytesToPages(m.destGroup.ReservationBytes()) <= m.destTable.InRAM() {
			return sim.Never, true
		}
		return now + 1, true
	}
	m.eng.AddTickerFuncHinted(sim.PhaseControl, func(sim.Time) {
		if done {
			return
		}
		headroom := mem.BytesToPages(m.destGroup.ReservationBytes()) - m.destTable.InRAM()
		for m.gatherInFlight < maxSwapInFlight && headroom > 0 {
			// Collect the next cluster of swapped pages.
			r := m.newMsg(kindGathered, 0, 0)
			for p := cursor; int(p) < m.nPages && len(r.pages) < swapInCluster; p++ {
				cursor = p + 1
				if m.destTable.State(p) == mem.StateSwapped {
					r.pages = append(r.pages, p)
				}
			}
			if len(r.pages) == 0 {
				m.msgs.Put(r)
				if int(cursor) >= m.nPages {
					done = true
					m.sp.End(m.eng.NowSeconds(), gsp)
					m.dropPools()
				}
				return
			}
			m.gatherInFlight++
			headroom -= len(r.pages)
			m.destGroup.FaultInCluster(r.pages, r.fireF)
		}
	}, hint)
}
