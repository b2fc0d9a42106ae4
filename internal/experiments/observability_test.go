package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"agilemig/internal/core"
	"agilemig/internal/metrics"
	"agilemig/internal/trace"
)

// dumpTraceOnFailure writes the run's trace as JSONL into the directory
// named by AGILEMIG_TRACE_DIR when the test fails — CI uploads that
// directory as an artifact, so a red run ships its event log along.
func dumpTraceOnFailure(t *testing.T, tr *trace.Trace) {
	t.Helper()
	dir := os.Getenv("AGILEMIG_TRACE_DIR")
	if dir == "" || tr == nil {
		return
	}
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Logf("trace dump: %v", err)
			return
		}
		name := fmt.Sprintf("%s.trace.jsonl", filepath.Base(t.Name()))
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Logf("trace dump: %v", err)
			return
		}
		defer f.Close()
		if err := trace.WriteJSONL(f, tr); err != nil {
			t.Logf("trace dump: %v", err)
			return
		}
		t.Logf("trace dumped to %s", f.Name())
	})
}

// TestQuickstartChromeTrace drives the traced quickstart (Agile only) and
// checks the exported Chrome trace for the acceptance events: migration
// phase slices, a cgroup resize, and a VMD demand read.
func TestQuickstartChromeTrace(t *testing.T) {
	// Per-page VMD demand reads dominate the stream; a roomy ring keeps the
	// handful of migration phase events from being overwritten by them.
	tr := trace.New(1 << 20)
	reg := metrics.NewRegistry()
	cfg := DefaultQuickstartConfig()
	cfg.Scale = 0.05
	cfg.Techniques = []core.Technique{core.Agile}
	cfg.Trace = tr
	cfg.Metrics = reg
	dumpTraceOnFailure(t, tr)
	results := RunQuickstart(cfg)
	if len(results) != 1 {
		t.Fatalf("want 1 result, got %d", len(results))
	}

	var buf bytes.Buffer
	if err := trace.WriteChromeTrace(&buf, tr); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	slices := make(map[string]int)
	instants := make(map[string]int)
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			slices[ev.Name]++
			if ev.Dur < 0 {
				t.Errorf("slice %q has negative duration %f", ev.Name, ev.Dur)
			}
		case "i":
			instants[ev.Name]++
		}
	}
	if slices["migration"] == 0 {
		t.Errorf("no migration phase slice in trace; slices: %v", slices)
	}
	if instants["cgroup-resize"] == 0 {
		t.Errorf("no cgroup-resize event in trace; instants: %v", instants)
	}
	if instants["vmd-read"] == 0 {
		t.Errorf("no vmd-read event in trace; instants: %v", instants)
	}

	// The span side of the bus must have recorded the migration too: one
	// root (the trace attaches to the Agile run only), and every
	// migration-tree span closed (device reads may still be in flight at
	// the cutoff).
	roots := 0
	for _, sp := range tr.Spans() {
		if sp.Name == "migration" && sp.Parent == 0 {
			roots++
			if sp.Open {
				t.Errorf("migration root span %d never ended", sp.ID)
			}
		}
		if sp.Open && sp.Scope != trace.ScopeDevice {
			t.Errorf("span %q (id %d) left open after the run", sp.Name, sp.ID)
		}
	}
	if roots != 1 {
		t.Errorf("%d migration root spans, want 1", roots)
	}

	// The sampled registry must have recorded series for both hosts.
	for _, name := range []string{"source/used.ram.pages", "dest/used.ram.pages"} {
		s := reg.SeriesFor(name)
		if s == nil || len(s.Points) == 0 {
			t.Errorf("no sampled series %q", name)
		}
	}
}

// TestParallelRunsIsolatedSinks runs identical traced experiments through
// the parallel fan-out: every worker owns its own trace bus and registry,
// so the recorded event streams must be identical across runs (and the
// race detector must stay silent).
func TestParallelRunsIsolatedSinks(t *testing.T) {
	type outcome struct {
		events []trace.Event
		drops  int64
		result core.Result
	}
	const n = 4
	outs := runPoints(0, n, func(i int) outcome {
		tr := trace.New(0)
		cfg := DefaultQuickstartConfig()
		cfg.Scale = 0.05
		cfg.Techniques = []core.Technique{core.Agile}
		cfg.Trace = tr
		cfg.Metrics = metrics.NewRegistry()
		res := RunQuickstart(cfg)
		return outcome{events: tr.Events(), drops: tr.Drops(), result: res[0].Result}
	})
	for i := 1; i < n; i++ {
		if outs[i].result != outs[0].result {
			t.Errorf("run %d result diverges from run 0:\n%+v\n%+v", i, outs[i].result, outs[0].result)
		}
		if outs[i].drops != outs[0].drops {
			t.Errorf("run %d drops %d != run 0 drops %d", i, outs[i].drops, outs[0].drops)
		}
		if len(outs[i].events) != len(outs[0].events) {
			t.Fatalf("run %d recorded %d events, run 0 recorded %d", i, len(outs[i].events), len(outs[0].events))
		}
		for j := range outs[i].events {
			if outs[i].events[j] != outs[0].events[j] {
				t.Fatalf("run %d event %d diverges: %+v vs %+v", i, j, outs[i].events[j], outs[0].events[j])
			}
		}
	}
}
