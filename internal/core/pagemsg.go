package core

import (
	"agilemig/internal/mem"
	"agilemig/internal/trace"
)

// msgKind says what a pageMsg carries and what its callback does.
type msgKind uint8

const (
	// Wire messages: the callback runs when the message lands.
	kindFull         msgKind = iota // full pages [first, first+count) on the push stream
	kindOffset                      // Agile offset records: page first+i lives at swap slot off+i
	kindUntouched                   // Agile untouched records: page first+i reads as zeros
	kindScatter                     // scatter records: page first+i is on the VMD at slot off+i
	kindScatterBatch                // one message of scatter records for [first, first+count), each at its page's slot
	kindDemandReq                   // destination fault request for page first (retry: a re-send)
	kindDemandResp                  // demand response carrying page first

	// Device completions at either end.
	kindSwappedIn        // source swap-in of [first, first+count) done: stream the pages
	kindDemandSwappedIn  // source swap-in of page first done: answer its demand request
	kindScatterSwappedIn // source swap-in of page first done: scatter it
	kindScattered        // VMD write of [first, first+count) done: free the source copies, send records
	kindWaitersIn        // destination swap-in of page first done: wake its demand waiters
	kindGathered         // destination prefetch cluster done
)

// pageMsg carries one page-stream operation of a migration across the
// callback that completes it: a message on one of the migration's flows,
// or a swap-in or VMD write it waits on. Every batch is a run of
// consecutive pages, so a record names its pages as (first, count).
// Records come from the migration's freelist and bind fire once, so a
// page pushed, recorded or demanded allocates nothing. A record recycles
// when its callback fires; one whose message a loss window or a closed
// flow drops is never fired and is left to the garbage collector.
//
// Offset, untouched and scatter records are 16-byte messages, so a window
// of page bodies or the CPU state queued ahead of them can hold back a
// hundred thousand. A run of consecutive same-kind records therefore
// shares one pageMsg (sendRecord): its count messages land in order on the
// push stream, each fire lands the next page, and the last one recycles
// the record.
type pageMsg struct {
	m         *Migration
	kind      msgKind
	freeAfter bool // kindSwappedIn: release the source copies once sent
	retry     bool // kindDemandReq: a re-sent request
	first     mem.PageID
	count     int32        // pages; for a record run, the messages sent
	landed    int32        // a record run's messages that have landed
	off       uint32       // a record run's swap slot of page first
	span      trace.SpanID // a batch's span, ended on arrival
	waiters   *waitList    // kindWaitersIn: the faults to wake
	// pages is the batch of a clustered swap-in. FaultInCluster reads it
	// when the swap-in is admitted, which may be later than the call, so
	// the record owns it until it fires; it keeps its capacity on reuse.
	pages []mem.PageID
	fireF func()
}

// waitList holds the destination faults waiting for one demanded page. Its
// slice keeps its capacity when the list is recycled.
type waitList struct {
	fns []func()
}

// newMsg takes a record for the given operation.
func (m *Migration) newMsg(kind msgKind, first mem.PageID, count int) *pageMsg {
	r := m.msgs.Get()
	if r == nil {
		r = &pageMsg{m: m}
		r.fireF = r.fire
	}
	r.kind, r.first, r.count, r.landed = kind, first, int32(count), 0
	r.freeAfter, r.retry, r.off, r.span = false, false, 0, 0
	r.pages = r.pages[:0]
	return r
}

// fire completes the record's operation. The record recycles first, so
// the work it starts may reuse it.
func (r *pageMsg) fire() {
	if r.kind == kindOffset || r.kind == kindUntouched || r.kind == kindScatter {
		r.m.landRecord(r)
		return
	}
	m, kind, first, n := r.m, r.kind, r.first, int(r.count)
	freeAfter, retry, span, ws := r.freeAfter, r.retry, r.span, r.waiters
	r.waiters = nil
	m.msgs.Put(r)
	switch kind {
	case kindFull:
		for q := first; q < first+mem.PageID(n); q++ {
			m.deliverFullPage(q)
		}
		if span != 0 {
			m.sp.End(m.eng.NowSeconds(), span)
		}
	case kindScatterBatch:
		for q := first; q < first+mem.PageID(n); q++ {
			m.deliverScatterRecord(q, uint32(q))
		}
	case kindDemandReq:
		m.serveDemand(first, retry)
	case kindDemandResp:
		m.deliverFullPage(first)
		m.outstandingDemand--
		m.maybeComplete()
	case kindSwappedIn:
		m.faultInFlight--
		step := max(m.tun.BatchPages, 1)
		for i := 0; i < n; i += step {
			m.sendFullPages(first+mem.PageID(i), min(step, n-i), freeAfter)
		}
	case kindDemandSwappedIn:
		m.faultInFlight--
		m.respondDemand(first)
	case kindScatterSwappedIn:
		m.faultInFlight--
		m.scatterPage(first)
	case kindScattered:
		m.scatterInFlight--
		if span != 0 {
			m.sp.End(m.eng.NowSeconds(), span)
		}
		for q := first; q < first+mem.PageID(n); q++ {
			m.freeSourcePage(q)
		}
		m.sendScatterRecords(first, n)
	case kindWaitersIn:
		m.finishDemand(first)
		m.wake(ws)
		m.maybeComplete()
	case kindGathered:
		m.gatherInFlight--
	}
}

// sendRecord ships page p's offset, untouched or scatter record on the push
// stream. When p is the next page of the open run of the same kind, and
// its slot off the next slot, the record joins that run.
func (m *Migration) sendRecord(kind msgKind, p mem.PageID, off uint32) {
	r := m.recRun
	if r == nil || r.kind != kind || p != r.first+mem.PageID(r.count) || off != r.off+uint32(r.count) {
		r = m.newMsg(kind, p, 0)
		r.off = off
		m.recRun = r
	}
	r.count++
	lost := m.lostMessages()
	m.pushFlow.SendMessage(recordBytes, r.fireF)
	if m.lostMessages() != lost {
		// A loss window dropped the message, so no landing will come for
		// it: the run ends before it.
		r.count--
		m.recRun = nil
	}
}

// lostMessages counts the messages loss windows dropped on the
// migration's NICs; a flow's drop is counted on one of its two ends.
func (m *Migration) lostMessages() int64 {
	return m.spec.Source.NIC().MessagesLost() + m.spec.Dest.NIC().MessagesLost()
}

// landRecord lands the next record of a run at the destination; the
// run's last landing recycles it.
func (m *Migration) landRecord(r *pageMsg) {
	p, off, kind := r.first+mem.PageID(r.landed), r.off+uint32(r.landed), r.kind
	if r.landed++; r.landed == r.count {
		if m.recRun == r {
			m.recRun = nil
		}
		m.msgs.Put(r)
	}
	switch kind {
	case kindUntouched:
		m.knownUntouched.Set(p)
	case kindScatter:
		m.deliverScatterRecord(p, off)
	default:
		if t := m.destTable; t.State(p) == mem.StateUntouched {
			// §IV-F: store the offset in the swap offset table and set the
			// page's bit in the swapped bitmap.
			t.SetSwapOffset(p, off)
			t.SetState(p, mem.StateSwapped)
		}
	}
}

// wake runs, in arrival order, the faults of a list taken out of
// pendingDemand, and recycles the list.
func (m *Migration) wake(ws *waitList) {
	for i, fn := range ws.fns {
		ws.fns[i] = nil
		fn()
	}
	ws.fns = ws.fns[:0]
	m.waitLists.Put(ws)
}

// dropPools releases the migration's spare records once it has ended, so
// a finished migration keeps none reachable. Records still in flight may
// fire afterwards; they are no longer kept.
func (m *Migration) dropPools() {
	m.msgs.Drop()
	m.waitLists.Drop()
	m.recRun = nil
}
