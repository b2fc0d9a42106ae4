package guest

import (
	"testing"

	"agilemig/internal/cgroup"
	"agilemig/internal/mem"
	"agilemig/internal/sim"
)

// memBackend is an instant-ish swap backend for guest tests.
type memBackend struct {
	eng   *sim.Engine
	slots map[uint32]bool
	next  uint32
}

func newMemBackend(eng *sim.Engine) *memBackend {
	return &memBackend{eng: eng, slots: map[uint32]bool{}}
}

func (b *memBackend) SlotFor(p mem.PageID) (uint32, bool) {
	s := b.next
	b.next++
	b.slots[s] = true
	return s, true
}
func (b *memBackend) Release(off uint32)                     { delete(b.slots, off) }
func (b *memBackend) WritePage(off uint32, done func())      { b.eng.After(1, done) }
func (b *memBackend) ReadPage(off uint32, done func())       { b.eng.After(1, done) }
func (b *memBackend) ReadCluster(offs []uint32, done func()) { b.eng.After(1, done) }

func rigVM(t *testing.T, memPages, resPages int) (*sim.Engine, *VM) {
	t.Helper()
	eng := sim.NewEngine(1)
	vm := New(eng, "vm0", int64(memPages)*mem.PageSize)
	g := cgroup.New(eng, "vm0", vm.Table(), newMemBackend(eng), int64(resPages)*mem.PageSize)
	vm.AttachGroup(g)
	vm.Resume()
	return eng, vm
}

func TestAccessUntouchedReadIsFree(t *testing.T) {
	_, vm := rigVM(t, 100, 100)
	if !vm.Access(5, false, nil) {
		t.Fatal("zero-page read stalled")
	}
	if vm.Table().State(5) != mem.StateUntouched {
		t.Fatal("read allocated memory")
	}
	if vm.Faults() != 0 {
		t.Fatal("zero read counted as fault")
	}
}

func TestAccessFirstWriteAllocates(t *testing.T) {
	_, vm := rigVM(t, 100, 100)
	if !vm.Access(5, true, nil) {
		t.Fatal("first write stalled")
	}
	tb := vm.Table()
	if tb.State(5) != mem.StateResident || !tb.Dirty(5) || !tb.Referenced(5) {
		t.Fatalf("state=%v dirty=%v ref=%v", tb.State(5), tb.Dirty(5), tb.Referenced(5))
	}
}

func TestAccessResidentHit(t *testing.T) {
	_, vm := rigVM(t, 100, 100)
	vm.Access(3, true, nil)
	vm.Table().ClearReferenced(3)
	vm.Table().ClearDirty(3)
	if !vm.Access(3, false, nil) {
		t.Fatal("resident read stalled")
	}
	if !vm.Table().Referenced(3) || vm.Table().Dirty(3) {
		t.Fatal("read hit should reference but not dirty")
	}
}

func TestAccessSwappedStallsAndCompletes(t *testing.T) {
	eng, vm := rigVM(t, 100, 10)
	for i := 0; i < 50; i++ {
		vm.Access(mem.PageID(i), true, nil)
	}
	eng.Run(200) // reclaim pushes 40 pages out
	var sp mem.PageID = -1
	vm.Table().ForEach(func(p mem.PageID, s mem.PageState) {
		if sp == -1 && s == mem.StateSwapped {
			sp = p
		}
	})
	if sp == -1 {
		t.Fatal("nothing swapped")
	}
	completed := false
	if vm.Access(sp, true, func() { completed = true }) {
		t.Fatal("swapped access did not stall")
	}
	if vm.Faults() != 1 {
		t.Fatalf("faults = %d", vm.Faults())
	}
	eng.Run(eng.Now() + 50)
	if !completed {
		t.Fatal("fault never completed")
	}
	if vm.Table().State(sp) != mem.StateResident || !vm.Table().Dirty(sp) {
		t.Fatal("page not resident+dirty after write fault")
	}
}

func TestWriteCancelsEviction(t *testing.T) {
	eng, vm := rigVM(t, 100, 10)
	for i := 0; i < 20; i++ {
		vm.Access(mem.PageID(i), true, nil)
	}
	// Find a page mid-eviction.
	var ev mem.PageID = -1
	for i := 0; i < 50 && ev == -1; i++ {
		eng.Step()
		vm.Table().ForEach(func(p mem.PageID, s mem.PageState) {
			if ev == -1 && s == mem.StateEvicting {
				ev = p
			}
		})
	}
	if ev == -1 {
		t.Fatal("no eviction observed")
	}
	if !vm.Access(ev, true, nil) {
		t.Fatal("write to evicting page stalled")
	}
	if vm.Table().State(ev) != mem.StateResident {
		t.Fatal("write did not cancel eviction")
	}
}

func TestReadDoesNotCancelEviction(t *testing.T) {
	eng, vm := rigVM(t, 100, 10)
	for i := 0; i < 20; i++ {
		vm.Access(mem.PageID(i), true, nil)
	}
	var ev mem.PageID = -1
	for i := 0; i < 50 && ev == -1; i++ {
		eng.Step()
		vm.Table().ForEach(func(p mem.PageID, s mem.PageState) {
			if ev == -1 && s == mem.StateEvicting {
				ev = p
			}
		})
	}
	if ev == -1 {
		t.Fatal("no eviction observed")
	}
	if !vm.Access(ev, false, nil) {
		t.Fatal("read of evicting page stalled")
	}
	if vm.Table().State(ev) != mem.StateEvicting {
		t.Fatal("read cancelled the eviction")
	}
}

func TestSuspendResumeDowntime(t *testing.T) {
	eng, vm := rigVM(t, 10, 10)
	eng.Run(10)
	vm.Suspend()
	if vm.Running() {
		t.Fatal("running after suspend")
	}
	eng.Run(60)
	vm.Resume()
	if !vm.Running() {
		t.Fatal("not running after resume")
	}
	if vm.Downtime() != 50 {
		t.Fatalf("downtime %d ticks, want 50", vm.Downtime())
	}
	// Idempotent calls don't distort accounting.
	vm.Resume()
	vm.Suspend()
	vm.Suspend()
	eng.Run(70)
	vm.Resume()
	if vm.Downtime() != 60 {
		t.Fatalf("cumulative downtime %d, want 60", vm.Downtime())
	}
}

type recordingHandler struct {
	calls int
	pages []mem.PageID
}

func (h *recordingHandler) HandleFault(vm *VM, p mem.PageID, write bool, done func()) bool {
	h.calls++
	h.pages = append(h.pages, p)
	vm.Table().SetState(p, mem.StateResident)
	return true
}

func TestCustomHandlerInterceptsUntouched(t *testing.T) {
	_, vm := rigVM(t, 100, 100)
	h := &recordingHandler{}
	vm.SetFaultHandler(h)
	// At a migration destination an untouched page means "not yet
	// received" and must go to the handler, not the zero page.
	if !vm.Access(7, false, nil) {
		// immediate resolution is allowed; either way handler must be hit
	}
	if h.calls != 1 || h.pages[0] != 7 {
		t.Fatalf("handler calls=%d pages=%v", h.calls, h.pages)
	}
	vm.SetFaultHandler(nil)
	if vm.Access(8, false, nil) != true {
		t.Fatal("default handler not restored")
	}
	if h.calls != 1 {
		t.Fatal("handler still installed after reset")
	}
}

func TestBulkPopulate(t *testing.T) {
	eng, vm := rigVM(t, 100, 100)
	vm.BulkPopulate(10, 60)
	tb := vm.Table()
	if tb.InRAM() != 50 {
		t.Fatalf("in RAM %d, want 50", tb.InRAM())
	}
	for p := mem.PageID(10); p < 60; p++ {
		if !tb.Dirty(p) || !tb.Referenced(p) {
			t.Fatalf("page %d not dirty+referenced", p)
		}
	}
	_ = eng
}

func TestBulkPopulateSkipsSwapped(t *testing.T) {
	eng, vm := rigVM(t, 100, 10)
	vm.BulkPopulate(0, 50)
	eng.Run(300)
	swapped := vm.Table().SwappedPages()
	if swapped == 0 {
		t.Fatal("expected swap-out under pressure")
	}
	vm.BulkPopulate(0, 50)
	if vm.Table().SwappedPages() != swapped {
		t.Fatal("BulkPopulate resurrected swapped pages without device reads")
	}
}

func TestReplaceTableGeometryCheck(t *testing.T) {
	_, vm := rigVM(t, 100, 100)
	defer func() {
		if recover() == nil {
			t.Fatal("geometry mismatch did not panic")
		}
	}()
	vm.ReplaceTable(mem.NewTable(50))
}

func TestVMAccessors(t *testing.T) {
	_, vm := rigVM(t, 128, 128)
	if vm.Name() != "vm0" || vm.Pages() != 128 || vm.MemBytes() != 128*mem.PageSize {
		t.Fatal("accessors wrong")
	}
	if vm.Group() == nil {
		t.Fatal("group not attached")
	}
}

// slotBackend is a swap backend without bookkeeping: a page's slot is
// its number, and every transfer completes two ticks later.
type slotBackend struct{ eng *sim.Engine }

func (b slotBackend) SlotFor(p mem.PageID) (uint32, bool) { return uint32(p), true }
func (b slotBackend) Release(uint32)                      {}
func (b slotBackend) WritePage(_ uint32, done func())     { b.eng.After(2, done) }
func (b slotBackend) ReadPage(_ uint32, done func())      { b.eng.After(2, done) }
func (b slotBackend) ReadCluster(_ []uint32, done func()) { b.eng.After(2, done) }

// TestSwapPathAllocations pins the swap path's steady state at zero
// allocations per page moved. Each operation is one guest access to a
// swapped page: the vCPU stalls, the cgroup swaps the page in, and the
// page it adds to the resident set pushes the group over its reservation,
// so reclaim writes another page back. Fault waits, swap reads and
// write-backs are pooled records, so once warm-up has filled the pools
// the cycle allocates nothing.
func TestSwapPathAllocations(t *testing.T) {
	skipUnderRace(t)
	const pages, reserved = 64, 32
	eng := sim.NewEngine(1)
	vm := New(eng, "vm0", pages*mem.PageSize)
	g := cgroup.New(eng, "vm0", vm.Table(), slotBackend{eng}, reserved*mem.PageSize)
	vm.AttachGroup(g)
	vm.Resume()
	vm.BulkPopulate(0, pages)
	eng.Run(100)
	tb := vm.Table()
	cursor, stalled, completed := mem.PageID(0), 0, 0
	done := func() { completed++ }
	access := func() {
		for tb.State(cursor) != mem.StateSwapped {
			cursor = (cursor + 1) % pages
		}
		if !vm.Access(cursor, false, done) {
			stalled++
		}
		eng.Run(eng.Now() + 20)
	}
	for i := 0; i < 50; i++ {
		access()
	}
	got := testing.AllocsPerRun(100, access)
	// AllocsPerRun adds one warm-up call.
	if stalled != 151 || completed != 151 {
		t.Fatalf("%d of 151 accesses stalled, %d completed; want every one to swap in", stalled, completed)
	}
	if s := g.Stats(); s.SwapInPages < 151 || s.SwapOutPages < reserved+151 {
		t.Fatalf("swapped in %d and out %d pages; each access should move one page each way", s.SwapInPages, s.SwapOutPages)
	}
	if got != 0 {
		t.Errorf("%v allocations per swapped access, want 0", got)
	}
}
