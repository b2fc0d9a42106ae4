package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"agilemig/internal/cluster"
	"agilemig/internal/core"
	"agilemig/internal/experiments"
	"agilemig/internal/mem"
)

// runAt executes a workload in this process, with a speed meter attached
// as in a timed run, and returns the run.
func runAt(t *testing.T, name string, tiny bool, shards int) *run {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	m, err := newSpeedMeter(tiny)
	if err != nil {
		t.Fatal(err)
	}
	r := &run{seed: 3, tiny: tiny, shards: shards, meters: []*speedMeter{m}}
	t.Cleanup(func() {
		if err := r.releaseMeters(); err != nil {
			t.Error(err)
		}
	})
	w.run(r)
	if len(r.problems) > 0 {
		t.Fatalf("%s: %v", name, r.problems)
	}
	return r
}

// row is what a benchmark migration and an experiment row share.
type row struct {
	total, downtime, mb, readP99 float64
	outcome                      string
}

func rowOf(m migration) row {
	return row{m.Total, m.Downtime, float64(m.Bytes) / 1e6, m.ReadP99Ms, m.Outcome}
}

// experimentRows runs a workload's internal/experiments counterpart at the
// same scale and seed, returning its rows and, where the experiment
// exposes them, its client operations (-1 otherwise).
func experimentRows(name string, tiny bool) ([]row, int64) {
	pick := func(full, small float64) float64 {
		if tiny {
			return small
		}
		return full
	}
	var rows []row
	switch name {
	case "pressure":
		cfg := experiments.DefaultPressureConfig(core.Agile)
		cfg.Scale, cfg.Seed = pick(pressureScale, pressureTinyScale), 3
		if tiny {
			cfg.Duration = tinyPressureDuration
		}
		m := experiments.RunPressureTimeline(cfg).Migration
		rows = append(rows, row{m.TotalSeconds, m.DowntimeSeconds, float64(m.BytesTransferred) / 1e6, 0, "completed"})
	case "sweep":
		cfg := experiments.DefaultSizeSweepConfig()
		cfg.VMSizes = []int64{8 * cluster.GiB, 10 * cluster.GiB}
		cfg.Idle, cfg.Scale, cfg.Seed, cfg.Parallelism = false, pick(sweepScale, sweepTinyScale), 3, 1
		for _, r := range experiments.RunSizeSweep(cfg) {
			rows = append(rows, row{r.TotalSeconds, r.DowntimeSeconds, r.DataMB, 0, r.Outcome.String()})
		}
	case "farmem":
		cfg := experiments.DefaultVMDSweepConfig()
		cfg.Scale, cfg.Seed = pick(farmemScale, farmemTinyScale), 3
		for _, r := range experiments.RunVMDSweep(cfg) {
			rows = append(rows, row{r.TotalSeconds, r.DowntimeSeconds, r.TransferredMB, r.ReadP99Ms, "completed"})
		}
	case "fleet":
		cells := fleetCells
		if tiny {
			cells = fleetTinyCells
		}
		rep := experiments.RunFleet(experiments.FleetOptions{Cells: cells, Shards: 2, Seed: 3,
			Scale: pick(fleetScale, fleetTinyScale), MaxSeconds: 600})
		var ops int64
		for _, r := range rep.Rows {
			rows = append(rows, row{r.TotalSeconds, r.DowntimeSeconds, float64(r.BytesTransferred) / 1e6, 0, r.Outcome})
			ops += r.OpsAtComplete
		}
		return rows, ops
	}
	return rows, -1
}

// The benchmark rebuilds each experiment from the public API, splits its
// run into timed phases and runs a speed meter inside it; at the same
// scale and seed its simulated rows must be the experiment's exactly.
// -short checks the tiny scales; without it the full scales too.
func TestWorkloadsMatchExperiments(t *testing.T) {
	t.Parallel()
	for _, w := range workloads {
		name := w.name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, tiny := range []bool{true, false} {
				if !tiny && testing.Short() {
					continue
				}
				r := runAt(t, name, tiny, 0)
				want, ops := experimentRows(name, tiny)
				if len(want) != len(r.migs) {
					t.Fatalf("tiny=%v: %d experiment rows, %d benchmark migrations", tiny, len(want), len(r.migs))
				}
				for i, m := range r.migs {
					if got := rowOf(m); got != want[i] {
						t.Errorf("tiny=%v %s: benchmark %+v, experiment %+v", tiny, m.Point, got, want[i])
					}
				}
				if ops >= 0 && ops != r.appOps {
					t.Errorf("tiny=%v: client ops: benchmark %d, experiment %d", tiny, r.appOps, ops)
				}
			}
		})
	}
}

// Speed meters keep their working sets off the Go heap, so they change
// neither live_heap_mb nor the collector's heap goal. Not parallel: the
// live heap must be this test's alone.
func TestSpeedMeterLeavesLiveHeap(t *testing.T) {
	runtime.GC()
	before := readUint64("/gc/heap/live:bytes")
	var meters []*speedMeter
	for i := 0; i < 2; i++ {
		m, err := newSpeedMeter(true)
		if err != nil {
			t.Fatal(err)
		}
		m.last = time.Time{}
		m.maybe()
		meters = append(meters, m)
	}
	runtime.GC()
	grew := int64(readUint64("/gc/heap/live:bytes")) - int64(before)
	r := &run{meters: meters}
	if err := r.releaseMeters(); err != nil {
		t.Fatal(err)
	}
	if grew > 64<<10 {
		t.Errorf("two speed meters grew the live heap by %d bytes", grew)
	}
}

// The fleet's outcome may not depend on how many shards simulate it.
func TestFleetShardCountInvariant(t *testing.T) {
	t.Parallel()
	one := runAt(t, "fleet", true, 1)
	two := runAt(t, "fleet", true, 2)
	d1, _, _, _ := one.verdict("fleet")
	d2, _, _, _ := two.verdict("fleet")
	if d1 != d2 {
		t.Errorf("fleet digest at 1 shard %s, at 2 shards %s", d1, d2)
	}
}

// TestSmoke runs -smoke: every workload, tiny, through an untraced run and
// a traced one. The traced run compares its simulated digest with an
// untraced execution's, so this also pins traced == untraced, and the
// untraced run carries the speed meter, so also metered == unmetered.
// The slow tests run in parallel; TestSelfTimeAttribution, which needs the
// CPU profiler to itself, runs before them.
func TestSmoke(t *testing.T) {
	t.Parallel()
	var out bytes.Buffer
	if err := runSmoke(&out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
}

// TestSchema holds the metric tables to BENCHMARK.json and to the limits
// the benchmark's users enforce.
func TestSchema(t *testing.T) {
	b, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("bad or duplicate name %q", n)
		}
		seen[n] = true
	}

	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, benchmark %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}

	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(endToEnd), len(perLayer))
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(spec.EndToEnd), len(endToEnd))
	}
	maxBound := 0.0
	for _, m := range spec.EndToEnd {
		maxBound = math.Max(maxBound, m.Bound)
	}
	for i, m := range spec.EndToEnd {
		checkName(m.Name)
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || !unitRE.MatchString(m.Unit) {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Bound < maxBound {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, maxBound)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		checkName(m.Name)
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || !unitRE.MatchString(m.Unit) {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
	for _, p := range spec.Paths {
		if !strings.HasPrefix(p, "bench") {
			t.Errorf("path %q is not the benchmark's directory", p)
		}
	}
}

// A profile of a busy function in package mem must put the function's
// time in mem's bucket, and the buckets must add up to the profile.
func TestSelfTimeAttribution(t *testing.T) {
	a, b := mem.NewBitmap(1<<20), mem.NewBitmap(1<<20)
	b.SetAll()
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	for start := time.Now(); time.Since(start) < 400*time.Millisecond; {
		a.Or(b)
		a.AndNot(b)
	}
	pprof.StopCPUProfile()

	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, s := range samples {
		total += s.nanos
	}
	self, err := selfTimes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for bucket, v := range self {
		sum += v
		if !contains(selfBuckets, bucket) {
			t.Errorf("unknown bucket %q", bucket)
		}
	}
	if total == 0 || math.Abs(sum-float64(total)/1e9) > 1e-9 {
		t.Fatalf("buckets sum to %vs, profile total %vs", sum, float64(total)/1e9)
	}
	for _, l := range simLayers {
		if l != "mem" && self[l] >= self["mem"] {
			t.Errorf("layer %s (%.3fs) not below mem (%.3fs): %v", l, self[l], self["mem"], self)
		}
	}
	if self["mem"] <= 0 {
		t.Errorf("no time attributed to mem: %v", self)
	}
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

func TestBucketOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"agilemig/internal/simnet.(*Network).deliver", "agilemig/internal/sim.(*Engine).Step"}, "simnet"},
		{[]string{"agilemig/internal/vmd.(*Namespace).Read.func1"}, "vmd"},
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "runtime.newobject", "agilemig/internal/core.(*Migration).sendFullPage"}, "rt.alloc"},
		{[]string{"internal/runtime/maps.(*Map).getWithKeySmall", "runtime.mapaccess1_fast64", "agilemig/internal/vmd.x"}, "rt.alloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "rt.gc"},
		{[]string{"runtime.scanobject", "runtime.gcAssistAlloc", "runtime.mallocgc", "agilemig/internal/guest.x"}, "rt.gc"},
		{[]string{"runtime.memmove", "agilemig/internal/simnet.x"}, "rt.other"},
		{[]string{"sort.insertionSort", "sort.Sort", "agilemig/internal/host.x"}, "host"},
		{[]string{"time.Duration.Seconds", "agilemig/internal/sim.Seconds"}, "sim"},
		{[]string{"runtime.mallocgc", "fmt.Sprintf", "agilemig/internal/trace.x"}, "rt.alloc"},
		{[]string{"main.refStep", "main.(*speedMeter).kernel"}, "rt.other"},
		{[]string{"agilemig/internal/wss.(*Tracker).Tick"}, "rt.other"},
		{nil, "rt.other"},
	} {
		if got := bucketOf(tc.stack); got != tc.want {
			t.Errorf("bucketOf(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

// The spread arithmetic must be the one the benchmark's users apply:
// Python's statistics.quantiles(range(1, 11), n=4) is [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}
