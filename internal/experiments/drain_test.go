package experiments

import (
	"testing"

	"agilemig/internal/ctlplane"
)

// drainTestOptions is the drain experiment shrunk for tests: tiny VMs, a
// small rack, no observability sinks.
func drainTestOptions() DrainOptions {
	opt := DefaultDrainOptions()
	opt.Scale = 0.05
	opt.Seed = 7
	opt.RackCells = 4
	return opt
}

func TestDrainEvacuatesUnderSLO(t *testing.T) {
	rep := RunDrain(drainTestOptions())
	if len(rep.Policies) != 2 {
		t.Fatalf("want both policies, got %d", len(rep.Policies))
	}
	for _, p := range rep.Policies {
		if p.Counts.Succeeded != drainVMs {
			t.Fatalf("policy %s evacuated %d/%d VMs", p.Policy, p.Counts.Succeeded, drainVMs)
		}
		if !p.SLOMet {
			t.Fatalf("policy %s violated the p99 SLO: %.1f ms", p.Policy, p.MaxP99Seconds*1e3)
		}
		if p.DrainSeconds <= 0 {
			t.Fatalf("policy %s drain time %f", p.Policy, p.DrainSeconds)
		}
	}
	// The comparison the experiment exists to show: greedy stacks the big
	// destination, the swap policy spreads and drains faster.
	greedy, swap := rep.Policies[0], rep.Policies[1]
	if len(greedy.Spread) != 1 {
		t.Fatalf("greedy spread %v, want a single destination", greedy.Spread)
	}
	if len(swap.Spread) < 3 {
		t.Fatalf("destination-swap spread %v, want >= 3 destinations", swap.Spread)
	}
	if swap.DrainSeconds >= greedy.DrainSeconds {
		t.Fatalf("spreading did not drain faster: swap %.1fs vs greedy %.1fs",
			swap.DrainSeconds, greedy.DrainSeconds)
	}
	// The concurrency floor the acceptance criteria name: at least 4
	// migrations genuinely overlapped (same start stamp batch).
	starts := map[float64]int{}
	for _, r := range greedy.Rows {
		starts[r.StartedAtSeconds]++
	}
	max := 0
	for _, n := range starts {
		if n > max {
			max = n
		}
	}
	if max < 4 {
		t.Fatalf("largest concurrent batch %d, want >= 4", max)
	}
	// The rack phase surfaces the faulted cell as a reasoned abort.
	if rep.Rack == nil {
		t.Fatal("rack phase missing")
	}
	if rep.Rack.Result.Success() {
		t.Fatal("faulted rack evacuation reported full success")
	}
	if rep.Rack.Result.Aborted != 1 {
		t.Fatalf("rack aborted %d cells, want 1", rep.Rack.Result.Aborted)
	}
}

func TestDrainPhasesAreTerminal(t *testing.T) {
	rep := RunDrain(drainTestOptions())
	for _, p := range rep.Policies {
		for _, r := range p.Rows {
			ph := r.Phase
			if ph != ctlplane.PhaseSucceeded.String() &&
				ph != ctlplane.PhaseFailed.String() &&
				ph != ctlplane.PhaseAborted.String() {
				t.Fatalf("policy %s row %s left non-terminal: %s", p.Policy, r.VM, ph)
			}
		}
	}
}
