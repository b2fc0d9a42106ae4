package core

import (
	"agilemig/internal/guest"
	"agilemig/internal/mem"
	"agilemig/internal/trace"
)

// endRound runs when the current round's scan has finished and all
// straggling swap-ins have drained.
func (m *Migration) endRound() {
	switch m.tech {
	case PreCopy:
		m.endPreCopyRound()
	case Agile:
		m.endAgileRound()
	}
}

func (m *Migration) endPreCopyRound() {
	if m.state == phaseSuspend {
		// Stop-and-copy finished: ship CPU state; execution switches when
		// it arrives (FIFO ⇒ after every page of the final round).
		m.roundBM = nil
		m.event(trace.CPUStateSent, "after stop-and-copy round %d", m.round)
		if m.sp.Enabled() {
			now := m.eng.NowSeconds()
			m.sp.End(now, m.phaseSpan)
			m.phaseSpan = 0
			m.cpuSpan = m.sp.Begin(now, "cpu-state", m.stopSpan)
		}
		m.pushFlow.SendMessage(cpuStateBytes, m.switchover)
		return
	}
	// §II: iterate until converging on the writable working set.
	remaining := m.srcTable.DirtyCount()
	m.event(trace.RoundEnd, "round %d done; %d pages dirty", m.round, remaining)
	if m.sp.Enabled() {
		m.sp.End(m.eng.NowSeconds(), m.phaseSpan, trace.Num("dirty", float64(remaining)))
		m.phaseSpan = 0
	}
	m.round++
	m.result.Rounds++
	m.srcTable.CollectDirty(m.roundBM)
	m.cursor = 0
	if remaining <= preCopyStopPages || m.round > preCopyMaxRounds {
		// Converged (or gave up): suspend and send the rest. The stopped
		// window opens here; the CPU-state span waits until the final scan
		// finishes, so the stop-and-copy scan is its own child span.
		m.event(trace.Suspend, "stop-and-copy with %d pages", remaining)
		m.vm.Suspend()
		m.state = phaseSuspend
		if m.sp.Enabled() {
			now := m.eng.NowSeconds()
			m.stopSpan = m.sp.Begin(now, "stopped", m.rootSpan)
			m.phaseSpan = m.sp.Begin(now, "stop-and-copy", m.stopSpan,
				trace.Num("pages", float64(remaining)))
		}
		return
	}
	m.event(trace.RoundStart, "round %d over %d pages", m.round, m.roundBM.Count())
	m.beginRoundSpan()
	if m.tun.AutoConverge && remaining >= m.prevRemaining && m.prevRemaining > 0 {
		// The dirty set is not shrinking: throttle the vCPUs so the next
		// round outruns the writes (QEMU auto-converge / SDPS).
		q := m.vm.CPUQuota() * autoConvergeStep
		if q < autoConvergeFloor {
			q = autoConvergeFloor
		}
		m.vm.SetCPUQuota(q)
		m.result.ThrottleEvents++
		m.event(trace.Throttle, "vCPU quota now %.2f", q)
	}
	m.prevRemaining = remaining
}

// endAgileRound finishes Agile's single live round: suspend, build the push
// set, and ship CPU state plus the dirty bitmap.
func (m *Migration) endAgileRound() {
	m.event(trace.Suspend, "after the live round")
	if m.sp.Enabled() {
		m.sp.End(m.eng.NowSeconds(), m.phaseSpan)
		m.phaseSpan = 0
	}
	m.vm.Suspend()
	m.beginStopSpans()
	m.roundBM = nil
	m.pushBM = mem.NewBitmap(m.nPages)
	m.srcTable.CollectDirty(m.pushBM)
	// A page sent as an offset record and then faulted back in at the
	// source no longer has valid contents on the swap device (the slot is
	// freed at swap-in), so the destination's swapped-bitmap entry is
	// stale. Push such pages in full. This includes pages whose fault is
	// still in flight (StateFaulting): their slot will be freed moments
	// from now. Only pages still firmly swapped keep their by-reference
	// record (re-evicted pages are back on the device at the same
	// namespace offset).
	m.offsetSent.ForEachSet(func(p mem.PageID) bool {
		if m.srcTable.State(p) != mem.StateSwapped {
			m.pushBM.Set(p)
		}
		return true
	})
	m.cursor = 0
	m.state = phasePush
	m.event(trace.CPUStateSent, "with dirty bitmap; %d pages to push", m.pushBM.Count())
	cpu := cpuStateBytes + int64(m.nPages/8) // dirty bitmap rides along
	m.pushFlow.SendMessage(cpu, m.switchover)
}

// destFaultHandler is the UMEMD equivalent of §IV-F: it owns every
// destination fault while migration is in progress. Faults on pages with a
// swapped-bitmap entry go to the per-VM swap device (or, for post-copy, to
// pages the destination itself evicted); faults on pages that have not
// arrived go to the source; known zero pages resolve locally.
type destFaultHandler struct {
	m *Migration
}

// HandleFault implements guest.FaultHandler.
func (h *destFaultHandler) HandleFault(vm *guest.VM, p mem.PageID, write bool, done func()) bool {
	m := h.m
	switch m.destTable.State(p) {
	case mem.StateResident, mem.StateEvicting:
		// Raced with an arriving copy; usable as-is.
		return true
	case mem.StateSwapped, mem.StateFaulting:
		// The swapped bit is set: read the page from the swap device
		// through the destination's backend.
		m.destGroup.FaultIn(p, done)
		return false
	default: // StateUntouched
		if m.knownUntouched != nil && m.knownUntouched.Test(p) {
			// The source said this page reads as zeros.
			if write {
				m.destTable.SetState(p, mem.StateResident)
			}
			return true
		}
		m.requestFromSource(p, done)
		return false
	}
}
