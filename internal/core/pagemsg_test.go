package core

import (
	"runtime"
	"testing"

	"agilemig/internal/mem"
)

// TestMigrationAllocations: the page stream allocates no object per page.
// Migrating a VM twice as large may cost at most one more allocation per
// 100 extra pages, for every technique. Each VM keeps part of its dataset
// on the swap device, so pre-copy swaps pages in, Agile sends offset
// records and scatter-gather sends scatter records.
func TestMigrationAllocations(t *testing.T) {
	skipUnderRace(t)
	allocs := func(tech Technique, vmBytes int64) (pages int, mallocs uint64) {
		agileSwap := tech == Agile || tech == ScatterGather
		r := newRig(t, rigOpt{vmBytes: vmBytes, datasetBytes: vmBytes / 2, resBytes: vmBytes * 3 / 8, agileSwap: agileSwap})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r.migrate(t, tech, 600)
		runtime.ReadMemStats(&after)
		return r.vm.Pages(), after.Mallocs - before.Mallocs
	}
	for _, tech := range []Technique{PreCopy, PostCopy, Agile, ScatterGather} {
		t.Run(tech.String(), func(t *testing.T) {
			smallPages, small := allocs(tech, 256*mib)
			largePages, large := allocs(tech, 512*mib)
			t.Logf("%d pages: %d allocations; %d pages: %d", smallPages, small, largePages, large)
			if extra := largePages - smallPages; large > small && large-small > uint64(extra/100) {
				t.Errorf("%.3f allocations per extra page, want <= 0.01", float64(large-small)/float64(extra))
			}
		})
	}
}

// TestRecordRunsSkipLostMessages: consecutive records share one pageMsg,
// and a loss window drops some of their messages. Exactly the records
// whose message was not dropped land, each on its own page: a run must
// not hand a dropped record's landing to the next page.
func TestRecordRunsSkipLostMessages(t *testing.T) {
	r := newRig(t, rigOpt{vmBytes: 64 * mib, resBytes: 64 * mib})
	const n = 4000
	m := &Migration{
		eng:            r.eng,
		spec:           Spec{Source: r.src, Dest: r.dst},
		tun:            Tuning{}.withDefaults(),
		nPages:         n,
		destTable:      mem.NewTable(n),
		knownUntouched: mem.NewBitmap(n),
		pushFlow:       r.net.NewFlow("push", r.src.NIC(), r.dst.NIC(), 0),
	}
	r.dst.NIC().SetLossRate(0.3, 9)
	dropped := make([]bool, n)
	for p := mem.PageID(0); p < n; p++ {
		if p%100 == 99 {
			continue // a gap ends a run
		}
		before := r.dst.NIC().MessagesLost() + r.src.NIC().MessagesLost()
		if p/250%2 == 0 {
			m.sendRecord(kindUntouched, p, uint32(p))
		} else {
			m.sendRecord(kindOffset, p, uint32(p)+7)
		}
		dropped[p] = r.dst.NIC().MessagesLost()+r.src.NIC().MessagesLost() != before
	}
	r.dst.NIC().SetLossRate(0, 0)
	r.eng.RunSeconds(1)

	landed, lost := 0, 0
	for p := mem.PageID(0); p < n; p++ {
		if p%100 == 99 {
			continue
		}
		if dropped[p] {
			lost++
		}
		var got bool
		if p/250%2 == 0 {
			got = m.knownUntouched.Test(p)
		} else {
			got = m.destTable.State(p) == mem.StateSwapped
			if got && m.destTable.SwapOffset(p) != uint32(p)+7 {
				t.Errorf("page %d landed at slot %d, want %d", p, m.destTable.SwapOffset(p), uint32(p)+7)
			}
		}
		if got {
			landed++
		}
		if got == dropped[p] {
			t.Errorf("page %d: dropped %v, landed %v", p, dropped[p], got)
		}
	}
	if lost < n/5 || landed < n/2 {
		t.Fatalf("%d records lost and %d landed; the loss window should drop about 30 %%", lost, landed)
	}
}

// TestLossyAgileMigrationLandsEveryPage: an Agile migration with demand
// retries armed and a 20 % loss window on the destination's NIC from
// switchover to completion. The guest writes to a quarter of its pages
// during the live round, so the push set is large.
//
// At switchover, before the window opens, every page outside the push set
// has landed as the source sent it: in full, as an offset record carrying
// the source slot, or as an untouched record. The guest then faults on
// every page that must still come from the source. Afterwards every page
// the source held is Resident or Swapped at the destination, and a page
// left on the swap device keeps its source slot. A record reused while
// its message was still queued would land the wrong page and leave
// another missing.
func TestLossyAgileMigrationLandsEveryPage(t *testing.T) {
	r := newRig(t, rigOpt{vmBytes: 256 * mib, datasetBytes: 192 * mib, resBytes: 128 * mib, agileSwap: true})
	r.v.EnableFaultTolerance(0) // lost VMD reads and writes time out and retry
	src := r.vm.Table()

	var pushed []mem.PageID           // pages the destination must get from the source
	srcOff := map[mem.PageID]uint32{} // pages swapped at the source at switchover
	spec := Spec{
		VM:                   r.vm,
		Source:               r.src,
		Dest:                 r.dst,
		DestReservationBytes: r.vm.Group().ReservationBytes(),
		DestBackend:          r.dstVMDBackend(),
		Namespace:            r.ns,
		Tuning:               Tuning{DemandRetrySeconds: 0.05, DemandRetryMax: 60},
		OnSwitchover: func() {
			m, dst := r.mig, r.vm.Table()
			for p := mem.PageID(0); int(p) < src.Len(); p++ {
				s := src.State(p)
				if s == mem.StateSwapped {
					srcOff[p] = src.SwapOffset(p)
				}
				switch d := dst.State(p); {
				case m.pushBM.Test(p):
					pushed = append(pushed, p)
				case s == mem.StateUntouched:
					if !m.knownUntouched.Test(p) {
						t.Errorf("untouched page %d has no untouched record at switchover", p)
					}
				case d == mem.StateSwapped && s == mem.StateSwapped:
					if dst.SwapOffset(p) != src.SwapOffset(p) {
						t.Errorf("page %d at slot %d at switchover, %d at the source", p, dst.SwapOffset(p), src.SwapOffset(p))
					}
				case d != mem.StateResident:
					t.Errorf("%v page %d outside the push set is %v at switchover", s, p, d)
				}
			}
			r.dst.NIC().SetLossRate(0.2, 7)
			// The accesses replay when the guest resumes, routed through
			// the migration's fault handler.
			for _, p := range pushed {
				r.vm.Access(p, false, func() {})
			}
		},
		OnComplete: func(res *Result) {
			r.dst.NIC().SetLossRate(0, 0)
			r.result = res
		},
	}
	r.mig = Start(r.eng, r.net, Agile, spec)
	r.eng.AfterSeconds(0.3, func() {
		for p := mem.PageID(0); int(p) < src.Len(); p += 4 {
			if src.State(p) != mem.StateUntouched {
				r.vm.Access(p, true, nil)
			}
		}
	})
	for i := 0; i < 600_000 && !r.mig.Done(); i++ {
		r.eng.Step()
	}
	if !r.mig.Done() {
		t.Fatalf("lossy Agile migration did not complete (phase %v)", r.mig.state)
	}
	r.eng.RunSeconds(10)

	if len(pushed) < 1000 {
		t.Fatalf("only %d pages left to push at switchover; the test needs a large push set", len(pushed))
	}
	if r.dst.NIC().MessagesLost() == 0 || r.result.DemandRetries == 0 {
		t.Fatalf("%d messages lost, %d demand retries; the loss window should force retries",
			r.dst.NIC().MessagesLost(), r.result.DemandRetries)
	}
	dst := r.vm.Table()
	missing := 0
	check := func(p mem.PageID) {
		s := dst.State(p)
		if s == mem.StateResident || s == mem.StateSwapped {
			return
		}
		if missing++; missing <= 5 {
			t.Errorf("page %d is %v at the destination", p, s)
		}
	}
	for _, p := range pushed {
		check(p)
	}
	for p, off := range srcOff {
		check(p)
		if dst.State(p) == mem.StateSwapped && dst.SwapOffset(p) != off {
			t.Errorf("page %d is at slot %d at the destination, %d at the source", p, dst.SwapOffset(p), off)
		}
	}
	if missing > 0 {
		t.Fatalf("%d pages did not land", missing)
	}
}
