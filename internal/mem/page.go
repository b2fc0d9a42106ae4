// Package mem models guest physical memory at 4 KiB-page granularity: the
// per-page state machine (untouched / resident / swapped, with in-flight
// eviction and fault states), dirty and referenced bits, swap offsets
// (the simulator's equivalent of /proc/pid/pagemap), bitmaps for migration
// bookkeeping, and clock (second-chance) victim selection for reclaim.
package mem

import "fmt"

// PageSize is the size of one page in bytes.
const PageSize = 4096

// PageID identifies a page within one VM's physical address space.
type PageID int32

// NoPage is a sentinel PageID.
const NoPage PageID = -1

// PageState is the residency state of a page.
//
// The state machine:
//
//	Untouched --guest touch--------------------> Resident
//	Resident  --reclaim picks victim-----------> Evicting
//	Evicting  --swap write completes-----------> Swapped
//	Evicting  --guest touch (cancels eviction)-> Resident
//	Swapped   --guest touch (fault issued)-----> Faulting
//	Faulting  --swap read completes------------> Resident
//
// Untouched pages occupy no host memory (Linux backs them with the shared
// zero page); Resident, Evicting and Faulting pages are charged to the
// owning cgroup; Swapped pages live only on the VM's swap device.
type PageState uint8

const (
	// StateUntouched means the guest has never written the page; it reads
	// as zeros and costs no host memory.
	StateUntouched PageState = iota
	// StateResident means the page is in host RAM.
	StateResident
	// StateEvicting means the page is in RAM with a swap write-back in
	// flight; a guest touch cancels the eviction.
	StateEvicting
	// StateFaulting means the page is on the swap device with a read in
	// flight; touches queue behind the read.
	StateFaulting
	// StateSwapped means the page lives only on the VM's swap device.
	StateSwapped
)

// String returns a short name for the state.
func (s PageState) String() string {
	switch s {
	case StateUntouched:
		return "untouched"
	case StateResident:
		return "resident"
	case StateEvicting:
		return "evicting"
	case StateFaulting:
		return "faulting"
	case StateSwapped:
		return "swapped"
	}
	return fmt.Sprintf("PageState(%d)", uint8(s))
}

// InRAM reports whether a page in this state occupies host memory.
func (s PageState) InRAM() bool {
	return s == StateResident || s == StateEvicting || s == StateFaulting
}

// OnSwap reports whether a page in this state has valid contents on the
// swap device. Evicting pages do not yet (the write is in flight);
// Faulting pages still do.
func (s PageState) OnSwap() bool {
	return s == StateSwapped || s == StateFaulting
}

const (
	stateMask     uint8 = 0x07
	flagDirty     uint8 = 0x08
	flagReference uint8 = 0x10
)

// Table tracks the state, flags and swap offset of every page of one VM.
// It plays the role of the KVM/QEMU process's page table as seen through
// /proc/pid/pagemap in the paper: migration managers consult it to learn
// whether a page is swapped out and at which offset.
type Table struct {
	bits []uint8
	// swapOff holds each page's swap slot once some page sits at a slot
	// other than its own number; until then it is nil and every page's
	// slot is implicitly its identity, as on a per-VM swap device (VMD
	// namespace) where offset o holds page o.
	swapOff []uint32

	inRAM    int // Resident + Evicting + Faulting
	swapped  int // Swapped + Faulting (valid copy on device)
	dirty    int
	resident int // Resident + Evicting (usable without waiting)
}

// NewTable returns a table for a VM with n pages, all untouched.
func NewTable(n int) *Table {
	if n <= 0 {
		panic("mem: table with no pages")
	}
	return &Table{bits: make([]uint8, n)}
}

// Len returns the number of pages.
func (t *Table) Len() int { return len(t.bits) }

// Bytes returns the VM memory size in bytes.
func (t *Table) Bytes() int64 { return int64(len(t.bits)) * PageSize }

// State returns the state of page p.
func (t *Table) State(p PageID) PageState { return PageState(t.bits[p] & stateMask) }

// SetState transitions page p to state s, maintaining the aggregate
// counters. It panics on transitions that the state machine forbids, which
// turns bookkeeping bugs in the migration engines into immediate failures
// instead of silently wrong results.
func (t *Table) SetState(p PageID, s PageState) {
	old := t.State(p)
	if old == s {
		return
	}
	if !validTransition(old, s) {
		panic(fmt.Sprintf("mem: invalid page transition %v -> %v (page %d)", old, s, p))
	}
	t.account(old, -1)
	t.account(s, +1)
	t.bits[p] = t.bits[p]&^stateMask | uint8(s)
}

func validTransition(from, to PageState) bool {
	switch from {
	case StateUntouched:
		// Touch makes it resident; migration receive can also make it
		// resident. Arriving "swapped offset" records at a migration
		// destination mark it swapped.
		return to == StateResident || to == StateSwapped
	case StateResident:
		return to == StateEvicting || to == StateUntouched || to == StateSwapped
	case StateEvicting:
		return to == StateSwapped || to == StateResident || to == StateUntouched
	case StateFaulting:
		return to == StateResident || to == StateUntouched || to == StateSwapped
	case StateSwapped:
		return to == StateFaulting || to == StateResident || to == StateUntouched
	}
	return false
}

func (t *Table) account(s PageState, d int) {
	if s.InRAM() {
		t.inRAM += d
	}
	if s == StateResident || s == StateEvicting {
		t.resident += d
	}
	if s.OnSwap() {
		t.swapped += d
	}
}

// InRAM returns the number of pages occupying host memory.
func (t *Table) InRAM() int { return t.inRAM }

// Resident returns the number of pages usable without waiting on a device
// (Resident + Evicting).
func (t *Table) Resident() int { return t.resident }

// SwappedPages returns the number of pages with valid contents on the swap
// device.
func (t *Table) SwappedPages() int { return t.swapped }

// Touched returns the number of pages the guest has ever populated.
func (t *Table) Touched() int {
	n := 0
	for _, b := range t.bits {
		if PageState(b&stateMask) != StateUntouched {
			n++
		}
	}
	return n
}

// Dirty reports whether page p is dirty.
func (t *Table) Dirty(p PageID) bool { return t.bits[p]&flagDirty != 0 }

// SetDirty marks page p dirty.
func (t *Table) SetDirty(p PageID) {
	if t.bits[p]&flagDirty == 0 {
		t.bits[p] |= flagDirty
		t.dirty++
	}
}

// ClearDirty clears page p's dirty bit.
func (t *Table) ClearDirty(p PageID) {
	if t.bits[p]&flagDirty != 0 {
		t.bits[p] &^= flagDirty
		t.dirty--
	}
}

// DirtyCount returns the number of dirty pages.
func (t *Table) DirtyCount() int { return t.dirty }

// Referenced reports whether page p has been referenced since the bit was
// last cleared (the clock algorithm's "second chance" bit).
func (t *Table) Referenced(p PageID) bool { return t.bits[p]&flagReference != 0 }

// SetReferenced marks page p referenced.
func (t *Table) SetReferenced(p PageID) { t.bits[p] |= flagReference }

// ClearReferenced clears page p's referenced bit.
func (t *Table) ClearReferenced(p PageID) { t.bits[p] &^= flagReference }

// SwapOffset returns the page's offset (in pages) on its swap device. The
// value is meaningful only while State(p).OnSwap() or the page is Evicting
// with an assigned slot; every caller reads it only then. A page whose
// slot was never set reads its own number, the identity slot of a per-VM
// swap device.
func (t *Table) SwapOffset(p PageID) uint32 {
	if t.swapOff == nil {
		return uint32(p)
	}
	return t.swapOff[p]
}

// SetSwapOffset records the page's slot on its swap device. Identity slots
// cost nothing until the first page lands elsewhere (a slot from a shared
// partition's allocator), which materialises the per-page array.
func (t *Table) SetSwapOffset(p PageID, off uint32) {
	if t.swapOff == nil {
		if off == uint32(p) {
			return
		}
		t.swapOff = make([]uint32, len(t.bits))
		for i := range t.swapOff {
			t.swapOff[i] = uint32(i)
		}
	}
	t.swapOff[p] = off
}

// ForEach calls fn for every page, in ascending order.
func (t *Table) ForEach(fn func(p PageID, s PageState)) {
	for i := range t.bits {
		fn(PageID(i), PageState(t.bits[i]&stateMask))
	}
}

// CollectDirty overwrites bm with the current dirty bits — the migration
// manager's "sync the dirty log" step at the start of a pre-copy round.
func (t *Table) CollectDirty(bm *Bitmap) {
	if bm.Len() != len(t.bits) {
		panic("mem: CollectDirty with mismatched bitmap size")
	}
	bm.ClearAll()
	for i := range t.bits {
		if t.bits[i]&flagDirty != 0 {
			bm.Set(PageID(i))
		}
	}
}
