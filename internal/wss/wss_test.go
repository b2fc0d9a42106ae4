package wss

import (
	"reflect"
	"testing"

	"agilemig/internal/cgroup"
	"agilemig/internal/mem"
	"agilemig/internal/sim"
)

const (
	gib = int64(1) << 30
	mib = int64(1) << 20
)

// hotBackend is a swap backend with a 2-tick delay (fast enough that swap
// traffic reflects reservation pressure almost immediately).
type hotBackend struct {
	eng  *sim.Engine
	next uint32
}

func (b *hotBackend) SlotFor(p mem.PageID) (uint32, bool) { b.next++; return b.next, true }
func (b *hotBackend) Release(uint32)                      {}
func (b *hotBackend) WritePage(_ uint32, done func())     { b.eng.After(2, done) }
func (b *hotBackend) ReadPage(_ uint32, done func())      { b.eng.After(2, done) }
func (b *hotBackend) ReadCluster(_ []uint32, done func()) { b.eng.After(2, done) }

// workingSetSim keeps a fixed set of pages hot by touching a rotating
// chunk of it every tick (the full set is re-referenced every ~50 ticks,
// far faster than reclaim can cycle), faulting back any that were swapped.
func workingSetSim(eng *sim.Engine, g *cgroup.Group, hotPages int) {
	chunk := hotPages/50 + 1
	pos := 0
	eng.AddTickerFunc(sim.PhaseWorkload, func(sim.Time) {
		t := g.Table()
		for i := 0; i < chunk; i++ {
			p := mem.PageID((pos + i) % hotPages)
			switch t.State(p) {
			case mem.StateUntouched:
				t.SetState(p, mem.StateResident)
				t.SetReferenced(p)
			case mem.StateResident:
				t.SetReferenced(p)
			case mem.StateEvicting:
				// A read touch does not cancel a clean write-back; the
				// page stays reclaimable (its device copy is valid).
				t.SetReferenced(p)
			case mem.StateSwapped:
				g.FaultIn(p, nil)
			}
		}
		pos = (pos + chunk) % hotPages
	})
}

func TestTrackerConvergesToWorkingSet(t *testing.T) {
	eng := sim.NewEngine(1)
	tb := mem.NewTable(int(2 * gib / mem.PageSize)) // 2 GiB VM
	g := cgroup.New(eng, "vm", tb, &hotBackend{eng: eng}, 2*gib)
	const wsBytes = 512 * mib
	workingSetSim(eng, g, int(wsBytes/mem.PageSize))
	cfg := DefaultTrackerConfig()
	tr := NewTracker(eng, g, cfg)
	eng.RunSeconds(350)
	est := tr.EstimateBytes()
	// α=0.95 shrink steps overshoot by at most ~5%, β=1.03 corrects; the
	// estimate should sit near 512 MiB (within ~20%).
	ws := float64(wsBytes)
	lo, hi := int64(ws*0.8), int64(ws*1.25)
	if est < lo || est > hi {
		t.Fatalf("estimate %d MiB, want ~%d MiB", est/mib, wsBytes/mib)
	}
	if !tr.Stable() {
		t.Fatal("tracker did not stabilize in 350s")
	}
}

func TestTrackerShrinksIdleVM(t *testing.T) {
	eng := sim.NewEngine(1)
	tb := mem.NewTable(int(1 * gib / mem.PageSize))
	g := cgroup.New(eng, "vm", tb, &hotBackend{eng: eng}, 1*gib)
	// No workload at all: reservation should fall to the floor.
	cfg := DefaultTrackerConfig()
	cfg.MinReservationBytes = 128 * mib
	tr := NewTracker(eng, g, cfg)
	eng.RunSeconds(200)
	if got := tr.EstimateBytes(); got != 128*mib {
		t.Fatalf("idle estimate %d MiB, want the 128 MiB floor", got/mib)
	}
}

func TestTrackerBacksOffToSlowInterval(t *testing.T) {
	eng := sim.NewEngine(1)
	tb := mem.NewTable(int(1 * gib / mem.PageSize))
	g := cgroup.New(eng, "vm", tb, &hotBackend{eng: eng}, 1*gib)
	workingSetSim(eng, g, int(256*mib/mem.PageSize))
	tr := NewTracker(eng, g, DefaultTrackerConfig())
	eng.RunSeconds(300)
	if !tr.Stable() {
		t.Skip("did not stabilize; covered by convergence test")
	}
	// Once stable, adjustments happen every 30s instead of every 2s.
	before := tr.Adjustments()
	eng.RunSeconds(60)
	after := tr.Adjustments()
	if after-before > 4 {
		t.Fatalf("%d adjustments in 60s while stable; slow interval not honored", after-before)
	}
}

func TestTrackerReconvergesAfterGrowth(t *testing.T) {
	// The full-size scenario thrashes hard after the growth step (a large
	// throttled-admission backlog builds up), which makes this by far the
	// slowest test in the suite; -short runs a half-size VM instead.
	vmBytes, hotBytes := 2*gib, 256*mib
	settle, regrow := 300.0, 500.0
	if testing.Short() {
		vmBytes, hotBytes = gib, 128*mib
		settle, regrow = 200, 250
	}
	eng := sim.NewEngine(1)
	tb := mem.NewTable(int(vmBytes / mem.PageSize))
	g := cgroup.New(eng, "vm", tb, &hotBackend{eng: eng}, vmBytes)
	hot := int(hotBytes / mem.PageSize)
	grow := false
	pos := 0
	eng.AddTickerFunc(sim.PhaseWorkload, func(sim.Time) {
		n := hot
		if grow {
			n = 3 * hot
		}
		chunk := n/50 + 1
		t := g.Table()
		for i := 0; i < chunk; i++ {
			p := mem.PageID((pos + i) % n)
			switch t.State(p) {
			case mem.StateUntouched:
				t.SetState(p, mem.StateResident)
				t.SetReferenced(p)
			case mem.StateResident:
				t.SetReferenced(p)
			case mem.StateEvicting:
			case mem.StateSwapped:
				g.FaultIn(p, nil)
			}
		}
		pos = (pos + chunk) % n
	})
	tr := NewTracker(eng, g, DefaultTrackerConfig())
	eng.RunSeconds(settle)
	small := tr.EstimateBytes()
	grow = true
	eng.RunSeconds(regrow)
	big := tr.EstimateBytes()
	if big < small*2 {
		t.Fatalf("estimate did not follow working-set growth: %d -> %d MiB", small/mib, big/mib)
	}
}

func TestTrackerConfigValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	tb := mem.NewTable(1000)
	g := cgroup.New(eng, "vm", tb, &hotBackend{eng: eng}, gib)
	for _, bad := range []TrackerConfig{
		{Alpha: 1.2, Beta: 1.03},
		{Alpha: 0.95, Beta: 0.9},
	} {
		bad.FastInterval, bad.SlowInterval = 2, 30
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("config %+v did not panic", bad)
				}
			}()
			NewTracker(eng, g, bad)
		}()
	}
}

func TestSelectFewestVMs(t *testing.T) {
	wss := map[string]int64{
		"vm1": 6 * gib,
		"vm2": 5 * gib,
		"vm3": 5 * gib,
		"vm4": 6 * gib,
	}
	// Total 22 GiB; low watermark 17 GiB: removing the single largest
	// (6 GiB) suffices.
	got := SelectVMsToMigrate(wss, 17*gib)
	if len(got) != 1 || (got[0] != "vm1" && got[0] != "vm4") {
		t.Fatalf("selected %v, want one 6 GiB VM", got)
	}
}

func TestSelectMultipleVMs(t *testing.T) {
	wss := map[string]int64{"a": 4 * gib, "b": 3 * gib, "c": 2 * gib}
	// Total 9; low 3: need to drop 6+ => a (4) then b (3) -> 2 <= 3.
	got := SelectVMsToMigrate(wss, 3*gib)
	want := []string{"a", "b"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selected %v, want %v", got, want)
	}
}

func TestSelectNothingWhenUnderWatermark(t *testing.T) {
	wss := map[string]int64{"a": 1 * gib}
	if got := SelectVMsToMigrate(wss, 2*gib); len(got) != 0 {
		t.Fatalf("selected %v with no pressure", got)
	}
}

func TestSelectDeterministicTieBreak(t *testing.T) {
	wss := map[string]int64{"x": gib, "y": gib, "z": gib}
	a := SelectVMsToMigrate(wss, gib)
	b := SelectVMsToMigrate(wss, gib)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("selection not deterministic: %v vs %v", a, b)
	}
}

func TestTriggerFiresOnceAboveHighWatermark(t *testing.T) {
	eng := sim.NewEngine(1)
	agg := map[string]int64{"vm1": 1 * gib, "vm2": 1 * gib}
	var fired [][]string
	NewTrigger(eng, TriggerConfig{HighWatermarkBytes: 3 * gib, LowWatermarkBytes: 2 * gib, CheckInterval: 1},
		func() map[string]int64 { return agg },
		func(names []string) { fired = append(fired, names) })
	eng.RunSeconds(5)
	if len(fired) != 0 {
		t.Fatal("fired below watermark")
	}
	agg["vm3"] = 2 * gib // total 4 GiB > high
	eng.RunSeconds(5)
	if len(fired) != 1 {
		t.Fatalf("fired %d times, want exactly 1 (hysteresis)", len(fired))
	}
	if fired[0][0] != "vm3" {
		t.Fatalf("selected %v, want the 2 GiB VM first", fired[0])
	}
}

func TestTriggerRearmsAfterPressureDrops(t *testing.T) {
	eng := sim.NewEngine(1)
	agg := map[string]int64{"vm1": 4 * gib}
	count := 0
	NewTrigger(eng, TriggerConfig{HighWatermarkBytes: 3 * gib, LowWatermarkBytes: 2 * gib, CheckInterval: 1},
		func() map[string]int64 { return agg },
		func([]string) { count++ })
	eng.RunSeconds(3)
	if count != 1 {
		t.Fatalf("count %d", count)
	}
	agg["vm1"] = 1 * gib // pressure resolved
	eng.RunSeconds(3)
	agg["vm1"] = 4 * gib // pressure again
	eng.RunSeconds(3)
	if count != 2 {
		t.Fatalf("count %d after re-arm, want 2", count)
	}
}

func TestTriggerStop(t *testing.T) {
	eng := sim.NewEngine(1)
	agg := map[string]int64{"vm1": 4 * gib}
	count := 0
	tr := NewTrigger(eng, TriggerConfig{HighWatermarkBytes: 1, LowWatermarkBytes: 1, CheckInterval: 1},
		func() map[string]int64 { return agg },
		func([]string) { count++ })
	eng.RunSeconds(2)
	tr.Stop()
	base := count
	agg["vm1"] = 0
	eng.RunSeconds(2)
	agg["vm1"] = 8 * gib
	eng.RunSeconds(5)
	if count != base {
		t.Fatal("trigger fired after Stop")
	}
}

func TestTriggerWatermarkValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Fatal("inverted watermarks did not panic")
		}
	}()
	NewTrigger(eng, TriggerConfig{HighWatermarkBytes: 1, LowWatermarkBytes: 2},
		func() map[string]int64 { return nil }, func([]string) {})
}

// TestTrackerGrowthCappedAtVMMemory keeps every page of a small VM hot, so
// the swap-in rate demands growth whenever the reservation is below the
// VM's size: the β steps must stop at the VM's memory, never beyond it.
func TestTrackerGrowthCappedAtVMMemory(t *testing.T) {
	const vmBytes = 32 * mib
	eng := sim.NewEngine(1)
	tb := mem.NewTable(int(vmBytes / mem.PageSize))
	g := cgroup.New(eng, "vm", tb, &hotBackend{eng: eng}, vmBytes/4)
	workingSetSim(eng, g, tb.Len())
	cfg := DefaultTrackerConfig()
	cfg.MinReservationBytes = 4 * mib
	NewTracker(eng, g, cfg)
	var peak int64
	eng.AddTickerFunc(sim.PhaseWorkload, func(sim.Time) {
		peak = max(peak, g.ReservationBytes())
	})
	eng.RunSeconds(120)
	if peak > vmBytes {
		t.Fatalf("reservation grew to %d MiB, past the %d MiB VM", peak/mib, vmBytes/mib)
	}
	if peak != vmBytes {
		t.Fatalf("reservation peaked at %d MiB; sustained pressure should drive it to the %d MiB cap", peak/mib, vmBytes/mib)
	}
}
