package cgroup

import (
	"testing"

	"agilemig/internal/mem"
	"agilemig/internal/sim"
)

// fakeBackend is a swap backend with a fixed completion delay and slot
// bookkeeping, for exercising the group without a real device model.
type fakeBackend struct {
	eng    *sim.Engine
	delay  sim.Duration
	slots  map[uint32]bool
	next   uint32
	cap    int
	reads  int
	writes int
}

func newFakeBackend(eng *sim.Engine, delay sim.Duration, capSlots int) *fakeBackend {
	return &fakeBackend{eng: eng, delay: delay, slots: map[uint32]bool{}, cap: capSlots}
}

func (b *fakeBackend) SlotFor(p mem.PageID) (uint32, bool) {
	if len(b.slots) >= b.cap {
		return 0, false
	}
	for b.slots[b.next] {
		b.next++
	}
	s := b.next
	b.slots[s] = true
	b.next++
	return s, true
}

func (b *fakeBackend) Release(off uint32) {
	if !b.slots[off] {
		panic("release of free slot")
	}
	delete(b.slots, off)
}

func (b *fakeBackend) WritePage(off uint32, done func()) {
	b.writes++
	b.eng.After(b.delay, done)
}

func (b *fakeBackend) ReadPage(off uint32, done func()) {
	b.reads++
	b.eng.After(b.delay, done)
}

func (b *fakeBackend) ReadCluster(offs []uint32, done func()) {
	b.reads++ // one device operation for the whole cluster
	b.eng.After(b.delay, done)
}

func rigGroup(resPages int, capSlots int) (*sim.Engine, *mem.Table, *Group, *fakeBackend) {
	eng := sim.NewEngine(1)
	tb := mem.NewTable(1000)
	be := newFakeBackend(eng, 2, capSlots)
	g := New(eng, "vm0", tb, be, int64(resPages)*mem.PageSize)
	return eng, tb, g, be
}

func touch(tb *mem.Table, n int) {
	for i := 0; i < n; i++ {
		tb.SetState(mem.PageID(i), mem.StateResident)
	}
}

func TestReclaimEnforcesReservation(t *testing.T) {
	eng, tb, g, _ := rigGroup(100, 10000)
	touch(tb, 300)
	eng.Run(100)
	if tb.InRAM() != 100 {
		t.Fatalf("in RAM %d, want 100 (reservation)", tb.InRAM())
	}
	if tb.SwappedPages() != 200 {
		t.Fatalf("swapped %d, want 200", tb.SwappedPages())
	}
	if g.Stats().SwapOutPages != 200 {
		t.Fatalf("swap-out counter %d", g.Stats().SwapOutPages)
	}
}

func TestNoReclaimUnderReservation(t *testing.T) {
	eng, tb, g, be := rigGroup(500, 10000)
	touch(tb, 100)
	eng.Run(100)
	if be.writes != 0 || tb.SwappedPages() != 0 {
		t.Fatal("reclaim ran while under reservation")
	}
	_ = g
}

func TestReferencedPagesSurviveReclaim(t *testing.T) {
	eng, tb, _, _ := rigGroup(100, 10000)
	touch(tb, 200)
	// Keep referencing pages 0..99 every tick; the evicted 100 should be
	// predominantly from the unreferenced half.
	eng.AddTickerFunc(sim.PhaseWorkload, func(sim.Time) {
		for i := 0; i < 100; i++ {
			if tb.State(mem.PageID(i)).InRAM() {
				tb.SetReferenced(mem.PageID(i))
			}
		}
	})
	eng.Run(200)
	stillRes := 0
	for i := 0; i < 100; i++ {
		if tb.State(mem.PageID(i)).InRAM() {
			stillRes++
		}
	}
	if stillRes < 90 {
		t.Fatalf("only %d/100 hot pages stayed resident", stillRes)
	}
}

func TestFaultInRoundTrip(t *testing.T) {
	eng, tb, g, _ := rigGroup(100, 10000)
	touch(tb, 200)
	eng.Run(100) // settle: 100 swapped
	var p mem.PageID = -1
	tb.ForEach(func(q mem.PageID, s mem.PageState) {
		if p == -1 && s == mem.StateSwapped {
			p = q
		}
	})
	if p == -1 {
		t.Fatal("no swapped page to fault")
	}
	done := false
	g.FaultIn(p, func() { done = true })
	if tb.State(p) != mem.StateFaulting {
		t.Fatalf("state %v after FaultIn", tb.State(p))
	}
	eng.Run(eng.Now() + 20)
	if !done || tb.State(p) != mem.StateResident {
		t.Fatalf("fault not completed: done=%v state=%v", done, tb.State(p))
	}
	if g.Stats().SwapInPages != 1 {
		t.Fatalf("swap-in counter %d", g.Stats().SwapInPages)
	}
}

func TestFaultInWaitersCoalesce(t *testing.T) {
	eng, tb, g, be := rigGroup(100, 10000)
	touch(tb, 200)
	eng.Run(100)
	var p mem.PageID = -1
	tb.ForEach(func(q mem.PageID, s mem.PageState) {
		if p == -1 && s == mem.StateSwapped {
			p = q
		}
	})
	readsBefore := be.reads
	calls := 0
	g.FaultIn(p, func() { calls++ })
	g.FaultIn(p, func() { calls++ })
	g.FaultIn(p, func() { calls++ })
	eng.Run(eng.Now() + 20)
	if calls != 3 {
		t.Fatalf("%d waiter callbacks, want 3", calls)
	}
	if be.reads-readsBefore != 1 {
		t.Fatalf("%d device reads for one page, want 1", be.reads-readsBefore)
	}
}

func TestFaultInRaisesPressure(t *testing.T) {
	// Reservation 100, 200 touched. Faulting pages in pushes others out.
	eng, tb, g, _ := rigGroup(100, 10000)
	touch(tb, 200)
	eng.Run(100)
	// Fault in 50 swapped pages; reclaim must evict ~50 others to stay at
	// the reservation.
	outBefore := g.Stats().SwapOutPages
	n := 0
	tb.ForEach(func(q mem.PageID, s mem.PageState) {
		if s == mem.StateSwapped && n < 50 {
			g.FaultIn(q, nil)
			n++
		}
	})
	eng.Run(eng.Now() + 200)
	if tb.InRAM() > 100 {
		t.Fatalf("in RAM %d after fault storm, want <= 100", tb.InRAM())
	}
	if g.Stats().SwapOutPages-outBefore < 40 {
		t.Fatalf("only %d compensating evictions", g.Stats().SwapOutPages-outBefore)
	}
}

func TestCancelEviction(t *testing.T) {
	eng, tb, g, be := rigGroup(100, 10000)
	touch(tb, 150)
	// Step until some page is Evicting, then cancel it.
	var victim mem.PageID = -1
	for i := 0; i < 50 && victim == -1; i++ {
		eng.Step()
		tb.ForEach(func(q mem.PageID, s mem.PageState) {
			if victim == -1 && s == mem.StateEvicting {
				victim = q
			}
		})
	}
	if victim == -1 {
		t.Fatal("no eviction started")
	}
	g.CancelEviction(victim)
	if tb.State(victim) != mem.StateResident {
		t.Fatal("cancel did not restore residency")
	}
	slotsBefore := len(be.slots)
	eng.Run(eng.Now() + 200)
	if g.Stats().CancelledEvict < 1 {
		t.Fatal("cancelled eviction not counted")
	}
	// The cancelled page's slot must eventually be released (and steady
	// state reached), so slots in use can only have dropped or held steady.
	if len(be.slots) > slotsBefore {
		t.Fatalf("slot leak: %d -> %d", slotsBefore, len(be.slots))
	}
}

func TestSwapFullSkipsEviction(t *testing.T) {
	eng, tb, g, _ := rigGroup(100, 50) // only 50 swap slots for 200 excess
	touch(tb, 300)
	eng.Run(200)
	if tb.SwappedPages() > 50 {
		t.Fatalf("swapped %d pages with 50 slots", tb.SwappedPages())
	}
	if g.Stats().SwapFullEvents == 0 {
		t.Fatal("swap-full events not counted")
	}
	// Pages that couldn't be evicted stay in RAM.
	if tb.InRAM() != 250 {
		t.Fatalf("in RAM %d, want 250", tb.InRAM())
	}
}

func TestReservationChangeTakesEffect(t *testing.T) {
	eng, tb, g, _ := rigGroup(500, 10000)
	touch(tb, 400)
	eng.Run(50)
	if tb.SwappedPages() != 0 {
		t.Fatal("premature reclaim")
	}
	g.SetReservationBytes(100 * mem.PageSize)
	eng.Run(eng.Now() + 200)
	if tb.InRAM() != 100 {
		t.Fatalf("in RAM %d after shrink, want 100", tb.InRAM())
	}
	if g.ReservationBytes() != 100*mem.PageSize {
		t.Fatal("reservation getter wrong")
	}
}

func TestEvictionBatchBound(t *testing.T) {
	eng, tb, _, be := rigGroup(100, 10000)
	// Slow backend: writes take 50 ticks, so in-flight evictions pile up
	// against the cap.
	be.delay = 50
	touch(tb, 1000)
	eng.Step()
	evicting := 0
	tb.ForEach(func(q mem.PageID, s mem.PageState) {
		if s == mem.StateEvicting {
			evicting++
		}
	})
	if evicting > DefaultEvictBatch {
		t.Fatalf("%d evictions in flight, cap %d", evicting, DefaultEvictBatch)
	}
	if evicting == 0 {
		t.Fatal("no evictions started")
	}
}

func TestSwapRateWindow(t *testing.T) {
	var w SwapRateWindow
	r := w.Rate(Stats{SwapInPages: 100, SwapOutPages: 50}, 2)
	if r != 75 {
		t.Fatalf("rate %v, want 75", r)
	}
	r = w.Rate(Stats{SwapInPages: 100, SwapOutPages: 50}, 2)
	if r != 0 {
		t.Fatalf("steady rate %v, want 0", r)
	}
	if w.Rate(Stats{}, 0) != 0 {
		t.Fatal("zero elapsed must return 0")
	}
}

func TestFaultInOnResidentCompletesImmediately(t *testing.T) {
	// With direct-reclaim admission, a page can become resident while a
	// fault waits in the throttle queue, so FaultIn treats an
	// already-resident page as resolved.
	_, tb, g, be := rigGroup(100, 1000)
	tb.SetState(0, mem.StateResident)
	done := false
	g.FaultIn(0, func() { done = true })
	if !done {
		t.Fatal("resident-page fault did not complete immediately")
	}
	if be.reads != 0 {
		t.Fatal("resident-page fault issued a device read")
	}
}

func TestDirectReclaimThrottlesFaultStorm(t *testing.T) {
	// Push the group far over its reservation, then issue a storm of
	// faults: admissions must be deferred and paced by eviction progress,
	// keeping the resident set bounded near the reservation.
	eng, tb, g, _ := rigGroup(100, 100000)
	touch(tb, 600) // 500 pages over reservation
	// Swap a few pages out first so there is something to fault, but stop
	// while the excess is still far above the eviction batch.
	eng.Run(5)
	var swapped []mem.PageID
	tb.ForEach(func(p mem.PageID, s mem.PageState) {
		if s == mem.StateSwapped && len(swapped) < 50 {
			swapped = append(swapped, p)
		}
	})
	if len(swapped) == 0 {
		t.Skip("no pages swapped yet")
	}
	for _, p := range swapped {
		g.FaultIn(p, nil)
	}
	if g.ThrottledFaults() == 0 {
		t.Fatal("fault storm over a 500-page excess was not throttled")
	}
	eng.Run(eng.Now() + 2000)
	if g.ThrottledFaults() != 0 {
		t.Fatalf("%d faults still throttled after reclaim caught up", g.ThrottledFaults())
	}
	if tb.InRAM() > 100+DefaultEvictBatch {
		t.Fatalf("resident %d pages; throttling failed to bound the excess", tb.InRAM())
	}
}

func TestFaultInClusterRevalidatesAfterAdmission(t *testing.T) {
	eng, tb, g, _ := rigGroup(100, 100000)
	touch(tb, 200)
	eng.Run(200)
	var pages []mem.PageID
	tb.ForEach(func(p mem.PageID, s mem.PageState) {
		if s == mem.StateSwapped && len(pages) < 4 {
			pages = append(pages, p)
		}
	})
	if len(pages) < 4 {
		t.Fatal("need 4 swapped pages")
	}
	// Join one of the cluster's pages through a separate fault first.
	g.FaultIn(pages[1], nil)
	done := false
	g.FaultInCluster(pages, func() { done = true })
	eng.Run(eng.Now() + 100)
	if !done {
		t.Fatal("cluster fault never completed")
	}
	for _, p := range pages {
		if !tb.State(p).InRAM() {
			t.Fatalf("page %d not in RAM after cluster fault", p)
		}
	}
}

// identityBackend is a per-VM swap device like a VMD namespace: page p
// always lives at slot p, a slot holds data only once a write-back has
// landed there, and releasing or reading an empty slot panics. Write-backs
// take between 5 and 54 ticks depending on the slot, so they complete out
// of issue order as they do on a shared network.
type identityBackend struct {
	eng      *sim.Engine
	delay    sim.Duration // read latency
	held     map[uint32]bool
	inflight map[uint32]int
	overlaps int // write-backs issued while another to the same slot was in flight
}

func (b *identityBackend) SlotFor(p mem.PageID) (uint32, bool) { return uint32(p), true }

func (b *identityBackend) Release(off uint32) {
	if !b.held[off] {
		panic("release of unwritten slot")
	}
	delete(b.held, off)
}

func (b *identityBackend) WritePage(off uint32, done func()) {
	if b.inflight[off] > 0 {
		b.overlaps++
	}
	b.inflight[off]++
	b.eng.After(sim.Duration(5+off*37%50), func() {
		b.inflight[off]--
		b.held[off] = true
		done()
	})
}

func (b *identityBackend) ReadPage(off uint32, done func()) {
	if !b.held[off] {
		panic("read of unwritten slot")
	}
	b.eng.After(b.delay, done)
}

func (b *identityBackend) ReadCluster(offs []uint32, done func()) { b.eng.After(b.delay, done) }

// TestCancelledWritebackBlocksReclaim follows Linux's PG_writeback: a page
// whose eviction was cancelled while its write-back was in flight must not
// be evicted again until that write-back completes. With an identity slot
// map both write-backs would share one slot, and the first completion
// would mark the page swapped while the second is still writing.
func TestCancelledWritebackBlocksReclaim(t *testing.T) {
	eng := sim.NewEngine(1)
	tb := mem.NewTable(64)
	be := &identityBackend{eng: eng, delay: 20, held: map[uint32]bool{}, inflight: map[uint32]int{}}
	g := New(eng, "vm0", tb, be, 48*mem.PageSize)
	touch(tb, 64)
	// Every tick the guest writes to whatever is being evicted, and the
	// reservation swings so reclaim keeps wanting more victims than the
	// in-flight write-backs cover.
	eng.AddTickerFunc(sim.PhaseWorkload, func(now sim.Time) {
		for p := mem.PageID(0); p < 64; p++ {
			if tb.State(p) == mem.StateEvicting && now%3 == 0 {
				g.CancelEviction(p)
			}
		}
		g.SetReservationBytes(int64(8+now%40) * mem.PageSize)
	})
	eng.Run(400)
	if be.overlaps != 0 {
		t.Fatalf("%d write-backs overlapped an in-flight write-back of the same page", be.overlaps)
	}
	for p := mem.PageID(0); p < 64; p++ {
		if tb.State(p) == mem.StateSwapped && !be.held[uint32(p)] {
			t.Errorf("page %d is swapped but its slot holds nothing", p)
		}
	}
}
