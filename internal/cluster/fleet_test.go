package cluster

import (
	"strings"
	"testing"

	"agilemig/internal/sim"
	"agilemig/internal/trace"
)

// testFleetConfig shrinks the default fleet so a full evacuation runs in
// well under a second of wall time.
func testFleetConfig(cells, shards int) FleetConfig {
	cfg := DefaultFleetConfig()
	cfg.Cells = cells
	cfg.Shards = shards
	cfg.HostRAMBytes = 64 * MiB
	cfg.IntermediateRAMBytes = 64 * MiB
	cfg.VMMemBytes = 16 * MiB
	cfg.DatasetBytes = 12 * MiB
	cfg.ReservationBytes = 6 * MiB
	cfg.WarmupSeconds = 5
	cfg.SettleSeconds = 1
	cfg.MaxOpsPerSecond = 1000
	return cfg
}

func TestFleetEvacuationCompletes(t *testing.T) {
	f := NewFleet(testFleetConfig(4, 2))
	if res := f.RunEvacuation(600); !res.Success() {
		t.Fatalf("evacuation incomplete: %d/%d cells", res.Evacuated, 4)
	}
	for _, r := range f.Rows() {
		if r.TotalSeconds <= 0 || r.DowntimeSeconds <= 0 {
			t.Fatalf("cell %s has empty result: %+v", r.Cell, r)
		}
		if r.DoneAtSeconds <= r.StartedAtSeconds {
			t.Fatalf("cell %s finished before it started: %+v", r.Cell, r)
		}
		if r.OpsAtComplete <= 0 || r.BytesTransferred <= 0 {
			t.Fatalf("cell %s moved no work: %+v", r.Cell, r)
		}
	}
}

// TestShardedFleetIsolatedSinks proves concurrently running cells never
// share a trace or metrics sink: every cell's ring holds only that cell's
// actors, and the run is clean under -race (the CI test job), which would
// flag any cross-shard emitter write.
func TestShardedFleetIsolatedSinks(t *testing.T) {
	const cells = 4
	cfg := testFleetConfig(cells, cells) // one worker per cell: maximal parallelism
	cfg.Observe = true
	cfg.TraceCapacity = 1 << 16 // keep the t=0 flow opens in the ring
	f := NewFleet(cfg)
	if res := f.RunEvacuation(600); !res.Success() {
		t.Fatalf("evacuation incomplete")
	}
	for i := 0; i < cells; i++ {
		tr := f.CellTrace(i)
		if tr.Len() == 0 {
			t.Fatalf("cell %d recorded no events", i)
		}
		prefix := f.Rows()[i].Cell
		flowOpens := 0
		for _, ev := range tr.Events() {
			if ev.Actor == "" {
				continue
			}
			if !strings.Contains(ev.Actor, prefix) {
				t.Fatalf("cell %d trace holds foreign actor %q (event %v %s)",
					i, ev.Actor, ev.Kind, ev.Detail)
			}
			if ev.Kind == trace.FlowOpen && ev.Actor == prefix+"-net" {
				flowOpens++
			}
		}
		// Each cell's network records its flows under its own actor, so
		// merged timelines keep the cells' networks apart.
		if flowOpens == 0 {
			t.Fatalf("cell %d recorded no flow-open events under %s-net", i, prefix)
		}
		if f.CellRegistry(i) == nil {
			t.Fatalf("cell %d has no registry", i)
		}
	}
}

// TestFleetFaultPlanResolvesInsideCell: a fleet fault plan uses the
// Testbed's target names, and each event lands in the afflicted cell only.
func TestFleetFaultPlanResolvesInsideCell(t *testing.T) {
	cfg := testFleetConfig(3, 2)
	cfg.Faults = (&sim.FaultPlan{}).
		CrashRestart("inter1", 1, 0).
		LinkFlap("source", 1, 2)
	cfg.FaultCells = []int{1}
	f := NewFleet(cfg)
	f.Group.RunSeconds(2) // inside the flap, before any start command
	for i, c := range f.cells {
		tb := c.vm.tb
		hit := i == 1
		if got := tb.VMD.Servers()[0].Down(); got != hit {
			t.Errorf("cell %d: inter1 down = %v, want %v", i, got, hit)
		}
		if got := tb.Source.NIC().Down(); got != hit {
			t.Errorf("cell %d: source NIC down = %v, want %v", i, got, hit)
		}
		if tb.Dest.NIC().Down() || tb.ClientNIC.Down() {
			t.Errorf("cell %d: a NIC outside the plan is down", i)
		}
	}
	f.Group.RunSeconds(2) // past the flap
	if f.cells[1].vm.tb.Source.NIC().Down() {
		t.Error("cell 1: source NIC still down after the flap")
	}
}
