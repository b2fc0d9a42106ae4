package cluster

import (
	"runtime"
	"runtime/metrics"
	"testing"

	"agilemig/internal/mem"
)

// heapAllocBytes returns the cumulative bytes allocated on the heap. The
// runtime counts small allocations only when a P's allocation cache is
// flushed, so it collects first: otherwise a collection during the
// measured call would charge it with earlier tests' uncounted allocations.
func heapAllocBytes() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestAgileVMHeapBudget pins what deploying an Agile VM costs per simulated
// page: the page table's state byte and the namespace's one-byte placement
// entry, plus the on-disk bit. Identity swap slots allocate nothing, so a
// per-page slot or a wider placement entry breaks the budget.
func TestAgileVMHeapBudget(t *testing.T) {
	skipUnderRace(t)
	const vmBytes = 1 * GiB
	const budget = 2.5 // bytes per page
	tb := New(DefaultConfig())
	before := heapAllocBytes()
	tb.DeployVM("vm1", vmBytes, vmBytes, true)
	after := heapAllocBytes()
	pages := mem.BytesToPages(vmBytes)
	perPage := float64(after-before) / float64(pages)
	t.Logf("%d pages, %.3f heap bytes per page", pages, perPage)
	if perPage > budget {
		t.Fatalf("%.3f heap bytes per page exceed the budget of %.1f", perPage, budget)
	}
}
