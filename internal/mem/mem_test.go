package mem

import (
	"testing"
	"testing/quick"
)

func TestTableInitialState(t *testing.T) {
	tb := NewTable(100)
	if tb.Len() != 100 {
		t.Fatalf("Len = %d", tb.Len())
	}
	if tb.Bytes() != 100*PageSize {
		t.Fatalf("Bytes = %d", tb.Bytes())
	}
	if tb.InRAM() != 0 || tb.SwappedPages() != 0 || tb.DirtyCount() != 0 {
		t.Fatal("new table not empty")
	}
	for i := 0; i < 100; i++ {
		if tb.State(PageID(i)) != StateUntouched {
			t.Fatalf("page %d state %v", i, tb.State(PageID(i)))
		}
	}
}

func TestTableLifecycleCounts(t *testing.T) {
	tb := NewTable(10)
	tb.SetState(0, StateResident)
	if tb.InRAM() != 1 || tb.Resident() != 1 {
		t.Fatalf("after touch: inRAM=%d resident=%d", tb.InRAM(), tb.Resident())
	}
	tb.SetState(0, StateEvicting)
	if tb.InRAM() != 1 || tb.Resident() != 1 {
		t.Fatal("evicting page should still be counted in RAM and resident")
	}
	if tb.SwappedPages() != 0 {
		t.Fatal("evicting page must not count as swapped (write not complete)")
	}
	tb.SetState(0, StateSwapped)
	if tb.InRAM() != 0 || tb.SwappedPages() != 1 {
		t.Fatalf("after swap-out: inRAM=%d swapped=%d", tb.InRAM(), tb.SwappedPages())
	}
	tb.SetState(0, StateFaulting)
	if tb.InRAM() != 1 || tb.SwappedPages() != 1 || tb.Resident() != 0 {
		t.Fatalf("faulting: inRAM=%d swapped=%d resident=%d", tb.InRAM(), tb.SwappedPages(), tb.Resident())
	}
	tb.SetState(0, StateResident)
	if tb.InRAM() != 1 || tb.SwappedPages() != 0 || tb.Resident() != 1 {
		t.Fatalf("after fault-in: inRAM=%d swapped=%d resident=%d", tb.InRAM(), tb.SwappedPages(), tb.Resident())
	}
}

func TestTableEvictionCancel(t *testing.T) {
	tb := NewTable(4)
	tb.SetState(1, StateResident)
	tb.SetState(1, StateEvicting)
	tb.SetState(1, StateResident) // guest touched it; eviction cancelled
	if tb.State(1) != StateResident || tb.InRAM() != 1 {
		t.Fatal("eviction cancel failed")
	}
}

func TestTableInvalidTransitionPanics(t *testing.T) {
	tb := NewTable(4)
	defer func() {
		if recover() == nil {
			t.Fatal("untouched -> evicting did not panic")
		}
	}()
	tb.SetState(0, StateEvicting)
}

func TestTableSwappedToEvictingPanics(t *testing.T) {
	tb := NewTable(4)
	tb.SetState(0, StateResident)
	tb.SetState(0, StateEvicting)
	tb.SetState(0, StateSwapped)
	defer func() {
		if recover() == nil {
			t.Fatal("swapped -> evicting did not panic")
		}
	}()
	tb.SetState(0, StateEvicting)
}

func TestDirtyBits(t *testing.T) {
	tb := NewTable(8)
	tb.SetDirty(3)
	tb.SetDirty(3) // idempotent
	tb.SetDirty(5)
	if tb.DirtyCount() != 2 || !tb.Dirty(3) || !tb.Dirty(5) || tb.Dirty(0) {
		t.Fatal("dirty accounting wrong")
	}
	tb.ClearDirty(3)
	tb.ClearDirty(3)
	if tb.DirtyCount() != 1 || tb.Dirty(3) {
		t.Fatal("dirty clear wrong")
	}
}

func TestReferencedBits(t *testing.T) {
	tb := NewTable(8)
	tb.SetReferenced(2)
	if !tb.Referenced(2) || tb.Referenced(3) {
		t.Fatal("referenced bit wrong")
	}
	tb.ClearReferenced(2)
	if tb.Referenced(2) {
		t.Fatal("referenced clear wrong")
	}
}

func TestSwapOffsetRoundTrip(t *testing.T) {
	tb := NewTable(8)
	tb.SetSwapOffset(4, 1234)
	if tb.SwapOffset(4) != 1234 {
		t.Fatal("swap offset lost")
	}
}

func TestSwapOffsetNeverSetIsIdentity(t *testing.T) {
	tb := NewTable(8)
	for p := PageID(0); p < 8; p++ {
		if got := tb.SwapOffset(p); got != uint32(p) {
			t.Fatalf("never-set page %d reads slot %d", p, got)
		}
	}
}

func TestSwapOffsetIdentitySetsAllocateNothing(t *testing.T) {
	tb := NewTable(1024)
	p := PageID(0)
	allocs := testing.AllocsPerRun(100, func() {
		tb.SetSwapOffset(p, uint32(p))
		p = (p + 1) % 1024
	})
	if allocs != 0 {
		t.Fatalf("identity SetSwapOffset allocated %.1f times per call", allocs)
	}
	if tb.swapOff != nil {
		t.Fatal("identity sets materialised the slot array")
	}
}

func TestSwapOffsetFirstForeignSlotKeepsIdentities(t *testing.T) {
	tb := NewTable(8)
	tb.SetSwapOffset(1, 1)
	tb.SetSwapOffset(2, 2)
	tb.SetSwapOffset(5, 40)
	for p := PageID(0); p < 8; p++ {
		want := uint32(p)
		if p == 5 {
			want = 40
		}
		if got := tb.SwapOffset(p); got != want {
			t.Fatalf("page %d reads slot %d, want %d", p, got, want)
		}
	}
}

func TestSwapOffsetBackToIdentityRoundTrips(t *testing.T) {
	tb := NewTable(8)
	tb.SetSwapOffset(3, 70)
	tb.SetSwapOffset(3, 3)
	if got := tb.SwapOffset(3); got != 3 {
		t.Fatalf("page 3 reads slot %d after resetting it to identity", got)
	}
	tb.SetSwapOffset(3, 71)
	if got := tb.SwapOffset(3); got != 71 {
		t.Fatalf("page 3 reads slot %d, want 71", got)
	}
}

func TestStatePredicates(t *testing.T) {
	cases := []struct {
		s     PageState
		inRAM bool
		onSw  bool
	}{
		{StateUntouched, false, false},
		{StateResident, true, false},
		{StateEvicting, true, false},
		{StateFaulting, true, true},
		{StateSwapped, false, true},
	}
	for _, c := range cases {
		if c.s.InRAM() != c.inRAM || c.s.OnSwap() != c.onSw {
			t.Fatalf("%v: InRAM=%v OnSwap=%v", c.s, c.s.InRAM(), c.s.OnSwap())
		}
	}
}

func TestTouchedCount(t *testing.T) {
	tb := NewTable(10)
	tb.SetState(0, StateResident)
	tb.SetState(1, StateResident)
	tb.SetState(1, StateEvicting)
	tb.SetState(1, StateSwapped)
	if tb.Touched() != 2 {
		t.Fatalf("Touched = %d, want 2", tb.Touched())
	}
}

func TestBitmapBasics(t *testing.T) {
	b := NewBitmap(130)
	if b.Len() != 130 || b.Count() != 0 {
		t.Fatal("bad empty bitmap")
	}
	b.Set(0)
	b.Set(64)
	b.Set(129)
	b.Set(129) // idempotent
	if b.Count() != 3 || !b.Test(0) || !b.Test(64) || !b.Test(129) || b.Test(1) {
		t.Fatal("set/test wrong")
	}
	b.Clear(64)
	b.Clear(64)
	if b.Count() != 2 || b.Test(64) {
		t.Fatal("clear wrong")
	}
}

func TestBitmapSetAllRespectsTail(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 128, 130} {
		b := NewBitmap(n)
		b.SetAll()
		if b.Count() != n {
			t.Fatalf("SetAll on %d pages counted %d", n, b.Count())
		}
		// The word past the tail must not carry stray bits that would
		// corrupt Or/AndNot counts later.
		got := 0
		for p := b.NextSet(0); p != NoPage; p = b.NextSet(p + 1) {
			got++
		}
		if got != n {
			t.Fatalf("iterating SetAll(%d) visited %d bits", n, got)
		}
		b.ClearAll()
		if b.Count() != 0 || b.NextSet(0) != NoPage {
			t.Fatal("ClearAll incomplete")
		}
	}
}

func TestBitmapNextSet(t *testing.T) {
	b := NewBitmap(256)
	b.Set(5)
	b.Set(70)
	b.Set(255)
	if b.NextSet(0) != 5 || b.NextSet(5) != 5 || b.NextSet(6) != 70 || b.NextSet(71) != 255 || b.NextSet(256) != NoPage {
		t.Fatal("NextSet traversal wrong")
	}
	if b.NextSet(-10) != 5 {
		t.Fatal("NextSet with negative from should clamp")
	}
}

func TestBitmapCloneIndependent(t *testing.T) {
	b := NewBitmap(64)
	b.Set(3)
	c := b.Clone()
	c.Set(10)
	if b.Test(10) || !c.Test(3) || b.Count() != 1 || c.Count() != 2 {
		t.Fatal("clone shares storage or lost bits")
	}
}

func TestBitmapOrAndNot(t *testing.T) {
	a := NewBitmap(128)
	b := NewBitmap(128)
	a.Set(1)
	a.Set(2)
	b.Set(2)
	b.Set(3)
	a.Or(b)
	if a.Count() != 3 || !a.Test(1) || !a.Test(2) || !a.Test(3) {
		t.Fatal("Or wrong")
	}
	a.AndNot(b)
	if a.Count() != 1 || !a.Test(1) || a.Test(2) {
		t.Fatal("AndNot wrong")
	}
}

func TestBitmapMismatchedSizesPanic(t *testing.T) {
	a, b := NewBitmap(64), NewBitmap(65)
	for name, fn := range map[string]func(){
		"Or":       func() { a.Or(b) },
		"AndNot":   func() { a.AndNot(b) },
		"CopyFrom": func() { a.CopyFrom(b) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s with mismatched sizes did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestBitmapCountMatchesIterationProperty(t *testing.T) {
	f := func(idxs []uint16) bool {
		b := NewBitmap(1 << 16)
		for _, i := range idxs {
			b.Set(PageID(i))
		}
		n := 0
		b.ForEachSet(func(PageID) bool { n++; return true })
		return n == b.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBitmapForEachSetEarlyStop(t *testing.T) {
	b := NewBitmap(100)
	for i := 0; i < 10; i++ {
		b.Set(PageID(i * 10))
	}
	n := 0
	b.ForEachSet(func(PageID) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestClockEvictsUnreferencedFirst(t *testing.T) {
	tb := NewTable(8)
	for i := 0; i < 8; i++ {
		tb.SetState(PageID(i), StateResident)
	}
	// Reference even pages; first victims should be the odd ones.
	for i := 0; i < 8; i += 2 {
		tb.SetReferenced(PageID(i))
	}
	c := NewClock(tb)
	v := c.FindVictims(4, nil)
	if len(v) != 4 {
		t.Fatalf("got %d victims", len(v))
	}
	for _, p := range v {
		if p%2 == 0 {
			t.Fatalf("referenced page %d evicted before unreferenced ones", p)
		}
	}
}

func TestClockSecondChance(t *testing.T) {
	tb := NewTable(4)
	for i := 0; i < 4; i++ {
		tb.SetState(PageID(i), StateResident)
		tb.SetReferenced(PageID(i))
	}
	c := NewClock(tb)
	v := c.FindVictims(2, nil)
	// All referenced: first sweep clears bits, second sweep evicts.
	if len(v) != 2 {
		t.Fatalf("got %d victims with all pages referenced, want 2", len(v))
	}
}

func TestClockSkipsNonResident(t *testing.T) {
	tb := NewTable(4)
	tb.SetState(0, StateResident)
	tb.SetState(0, StateEvicting) // already on its way out
	tb.SetState(1, StateResident)
	v := NewClock(tb).FindVictims(4, nil)
	if len(v) != 1 || v[0] != 1 {
		t.Fatalf("victims = %v, want [1]", v)
	}
}

func TestClockEmptyTable(t *testing.T) {
	tb := NewTable(4)
	if v := NewClock(tb).FindVictims(4, nil); len(v) != 0 {
		t.Fatalf("victims from empty table: %v", v)
	}
}

func TestClockTerminatesWhenAllReferencedRepeatedly(t *testing.T) {
	tb := NewTable(16)
	for i := 0; i < 16; i++ {
		tb.SetState(PageID(i), StateResident)
	}
	c := NewClock(tb)
	for round := 0; round < 10; round++ {
		for i := 0; i < 16; i++ {
			tb.SetReferenced(PageID(i))
		}
		v := c.FindVictims(3, nil)
		if len(v) != 3 {
			t.Fatalf("round %d: got %d victims", round, len(v))
		}
		// Clock only selects; caller transitions state. Simulate re-touch.
	}
}

// TestTableCounterInvariantProperty drives random valid transitions and
// checks the aggregate counters always equal a recount from scratch.
func TestTableCounterInvariantProperty(t *testing.T) {
	f := func(seed uint64, opsRaw []uint16) bool {
		tb := NewTable(64)
		for _, op := range opsRaw {
			p := PageID(op % 64)
			// Pick a random *valid* next state for p.
			var next PageState
			switch tb.State(p) {
			case StateUntouched:
				next = []PageState{StateResident, StateSwapped}[op>>8&1]
			case StateResident:
				next = []PageState{StateEvicting, StateUntouched, StateSwapped}[(op>>8)%3]
			case StateEvicting:
				next = []PageState{StateSwapped, StateResident, StateUntouched}[(op>>8)%3]
			case StateFaulting:
				next = []PageState{StateResident, StateUntouched, StateSwapped}[(op>>8)%3]
			case StateSwapped:
				next = []PageState{StateFaulting, StateResident, StateUntouched}[(op>>8)%3]
			}
			tb.SetState(p, next)
		}
		inRAM, swapped, resident := 0, 0, 0
		tb.ForEach(func(_ PageID, s PageState) {
			if s.InRAM() {
				inRAM++
			}
			if s.OnSwap() {
				swapped++
			}
			if s == StateResident || s == StateEvicting {
				resident++
			}
		})
		return inRAM == tb.InRAM() && swapped == tb.SwappedPages() && resident == tb.Resident()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBitmapCopyFrom(t *testing.T) {
	a, b := NewBitmap(128), NewBitmap(128)
	b.Set(7)
	b.Set(100)
	a.Set(1)
	a.CopyFrom(b)
	if a.Count() != 2 || !a.Test(7) || !a.Test(100) || a.Test(1) {
		t.Fatal("CopyFrom wrong")
	}
}
