package cluster

import (
	"bytes"
	"runtime"
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

// fleetOutputs runs one fleet to completion and captures every observable
// output: rows, the merged trace JSONL, and the per-cell metrics JSONL
// concatenated in cell order.
func fleetOutputs(t *testing.T, cfg FleetConfig, gomaxprocs int) ([]FleetRow, []byte, []byte) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(gomaxprocs))
	cfg.Observe = true
	f := NewFleet(cfg)
	if res := f.RunEvacuation(600); !res.Success() {
		t.Fatalf("evacuation incomplete at %d shards", cfg.Shards)
	}
	rows := f.Rows()
	var tj bytes.Buffer
	if err := trace.WriteEventsJSONL(&tj, f.MergedTraceEvents(), f.TraceDrops()); err != nil {
		t.Fatal(err)
	}
	var mj bytes.Buffer
	for i := 0; i < cfg.Cells; i++ {
		if err := f.CellRegistry(i).WriteJSONL(&mj); err != nil {
			t.Fatal(err)
		}
	}
	return rows, tj.Bytes(), mj.Bytes()
}

// TestFleetShardEquivalence is the sharded kernel's core determinism
// claim, on a workload that genuinely spreads across shards: the same seed
// yields byte-identical rows, merged traces and metrics at every
// (shard count, GOMAXPROCS) combination.
func TestFleetShardEquivalence(t *testing.T) {
	const cells = 6
	refRows, refTrace, refMetrics := fleetOutputs(t, testFleetConfig(cells, 1), 1)
	if len(refTrace) == 0 || len(refMetrics) == 0 {
		t.Fatalf("reference run produced no observability output")
	}
	for _, tc := range []struct{ shards, procs int }{
		{1, 8}, {2, 2}, {3, 1}, {3, 8}, {4, 2}, {6, 8},
	} {
		rows, tr, mr := fleetOutputs(t, testFleetConfig(cells, tc.shards), tc.procs)
		for i := range rows {
			if rows[i] != refRows[i] {
				t.Errorf("shards=%d procs=%d: row %d diverged:\n got %+v\nwant %+v",
					tc.shards, tc.procs, i, rows[i], refRows[i])
			}
		}
		if !bytes.Equal(tr, refTrace) {
			t.Errorf("shards=%d procs=%d: merged trace JSONL diverged (%d vs %d bytes)",
				tc.shards, tc.procs, len(tr), len(refTrace))
		}
		if !bytes.Equal(mr, refMetrics) {
			t.Errorf("shards=%d procs=%d: metrics JSONL diverged (%d vs %d bytes)",
				tc.shards, tc.procs, len(mr), len(refMetrics))
		}
	}
}

// TestFleetFastForwardEquivalence: every cell runs on its own engine and
// so skips its own idle spans; the outputs must match a tick-by-tick run.
func TestFleetFastForwardEquivalence(t *testing.T) {
	cfg := testFleetConfig(6, 2)
	rows, tr, mr := fleetOutputs(t, cfg, 2)
	cfg.DisableFastForward = true
	refRows, refTrace, refMetrics := fleetOutputs(t, cfg, 2)
	for i := range rows {
		if rows[i] != refRows[i] {
			t.Errorf("row %d diverged with fast-forward on:\n got %+v\nwant %+v", i, rows[i], refRows[i])
		}
	}
	if !bytes.Equal(tr, refTrace) {
		t.Errorf("merged trace JSONL diverged with fast-forward on (%d vs %d bytes)", len(tr), len(refTrace))
	}
	if !bytes.Equal(mr, refMetrics) {
		t.Errorf("metrics JSONL diverged with fast-forward on (%d vs %d bytes)", len(mr), len(refMetrics))
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
