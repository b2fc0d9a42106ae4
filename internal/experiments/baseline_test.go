package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"agilemig/internal/cluster"
	"agilemig/internal/core"
	"agilemig/internal/metrics"
	"agilemig/internal/sim"
	"agilemig/internal/trace"
	"agilemig/internal/vmd"
)

// The committed behaviour baseline: every agilesim experiment rendered at
// one small fixed scale and seed, stored under testdata/baseline/ and
// byte-diffed on every run. Committed files catch a change that shifts
// every configuration the same way. The baseline is also the one equivalence oracle: each
// case runs once more per setting that promises not to change its output
// (fast-forward off, observability flipped, an empty fault plan, more
// shards, another fan-out width), and every such cell diffs against the
// same committed files. A change that moves results on purpose regenerates
// the files in the same diff; only reference runs write them:
//
//	go test ./internal/experiments -run TestBaseline -update

var updateBaseline = flag.Bool("update", false, "rewrite testdata/baseline from the current build")

const (
	baselineScale = 0.05
	baselineSeed  = 1
	// baselineTraceCap bounds the quickstart trace ring: the event file
	// keeps the newest events, the span file the oldest spans, and both
	// summary trailers pin the full counts.
	baselineTraceCap = 1 << 10
	// baselineFleetTraceCap bounds each fleet cell's ring, so the merged
	// trace stays small while still covering every cell.
	baselineFleetTraceCap = 64
)

// baselineFile is one rendered output; the file is <case name><suffix>.
type baselineFile struct {
	suffix string
	data   []byte
}

// knob is one cell of the baseline matrix: a setting that must not change
// any output. Every case runs the reference, which changes no setting,
// plus each knob its config already exposes.
type knob struct {
	name          string
	noFastForward bool // step every tick instead of skipping idle spans
	flipObserve   bool // run observed cases unobserved and vice versa
	emptyFaults   bool // a non-nil empty fault plan and Replicas 1
	shards        int  // fleet and drain worker count; 0 keeps the default
	parallelism   int  // experiment fan-out width; 0 keeps GOMAXPROCS
}

var (
	reference     = knob{name: "reference"}
	noFastForward = knob{name: "fastforward-off", noFastForward: true}
	flipObserve   = knob{name: "observe-flipped", flipObserve: true}
	emptyFaults   = knob{name: "empty-faults", emptyFaults: true}
	shards3       = knob{name: "shards-3", shards: 3}
	shards4       = knob{name: "shards-4", shards: 4}
	serial        = knob{name: "parallel-1", parallelism: 1}
	fanOut4       = knob{name: "parallel-4", parallelism: 4}
)

// baselineCase renders one experiment into one or more files under each of
// its knobs. A knob run may render a subset of the reference's files (an
// unobserved run has no trace); each file it renders must match.
type baselineCase struct {
	name  string
	knobs []knob
	run   func(k knob) []baselineFile
}

// textFile is the single-file rendering most experiments use.
func textFile(fn func(w io.Writer) error) []baselineFile {
	return []baselineFile{{".txt", render(fn)}}
}

func render(fn func(w io.Writer) error) []byte {
	var b bytes.Buffer
	if err := fn(&b); err != nil {
		panic(err)
	}
	return b.Bytes()
}

// writeVMDCounters renders every VMD client's and server's traffic counters.
func writeVMDCounters(w io.Writer, tb *cluster.Testbed) {
	for _, c := range tb.VMD.Clients() {
		written, read, retried := c.Stats()
		remote, spill, staged, ctier, zero := c.ReadsByOrigin()
		fmt.Fprintf(w, "client %s written=%d read=%d retried=%d origins=%d/%d/%d/%d/%d\n",
			c.Name(), written, read, retried, remote, spill, staged, ctier, zero)
	}
	for _, s := range tb.VMD.Servers() {
		stored, served, rejected := s.Stats()
		fmt.Fprintf(w, "server %s stored=%d served=%d rejected=%d used=%d\n",
			s.Name(), stored, served, rejected, s.Used())
	}
}

func baselinePressure(name string, tech core.Technique) baselineCase {
	return baselineCase{name, []knob{noFastForward}, func(k knob) []baselineFile {
		cfg := DefaultPressureConfig(tech)
		cfg.Scale = baselineScale
		cfg.Seed = baselineSeed
		cfg.DisableFastForward = k.noFastForward
		r := RunPressureTimeline(cfg)
		return textFile(func(w io.Writer) error {
			r.Print(w)
			return r.WriteCSV(w)
		})
	}}
}

func baselineRecovery(name string, store vmd.StoreConfig, factors []int) baselineCase {
	return baselineCase{name, nil, func(knob) []baselineFile {
		cfg := DefaultRecoveryConfig()
		cfg.Scale = baselineScale
		cfg.Seed = baselineSeed
		cfg.VMD = store
		if factors != nil {
			cfg.ReplicaFactors = factors
		}
		rows := RunRecovery(cfg)
		return textFile(func(w io.Writer) error {
			PrintRecovery(w, rows)
			return nil
		})
	}}
}

var baselineCases = []baselineCase{
	// quickstart.txt holds no observability output, so the untraced run
	// renders and diffs that file alone.
	{"quickstart", []knob{noFastForward, flipObserve, emptyFaults}, func(k knob) []baselineFile {
		cfg := DefaultQuickstartConfig()
		cfg.Scale = baselineScale
		cfg.Seed = baselineSeed
		cfg.DisableFastForward = k.noFastForward
		if k.emptyFaults {
			cfg.Faults = &sim.FaultPlan{}
			cfg.Replicas = 1
		}
		if !k.flipObserve {
			cfg.Trace = trace.New(baselineTraceCap)
			cfg.Metrics = metrics.NewRegistry()
		}
		results := RunQuickstart(cfg)
		files := []baselineFile{{".txt", render(func(w io.Writer) error {
			for _, r := range results {
				fmt.Fprintf(w, "%+v\n", r.Result)
			}
			writeVMDCounters(w, results[len(results)-1].Testbed)
			return nil
		})}}
		if tr := cfg.Trace; tr != nil {
			files = append(files,
				baselineFile{".trace.jsonl", render(func(w io.Writer) error {
					return trace.WriteEventsJSONL(w, tr.Events(), tr.Drops())
				})},
				baselineFile{".spans.jsonl", render(func(w io.Writer) error {
					return trace.WriteEventsSpansJSONL(w, nil, tr.Spans(), 0, tr.SpanDrops(), tr.OpenSpans())
				})},
				baselineFile{".metrics.jsonl", render(cfg.Metrics.WriteJSONL)})
		}
		return files
	}},
	baselinePressure("fig4", core.PreCopy),
	baselinePressure("fig5", core.PostCopy),
	baselinePressure("fig6", core.Agile),
	{"fig7", []knob{noFastForward, serial}, func(k knob) []baselineFile {
		cfg := DefaultSizeSweepConfig()
		cfg.Scale = baselineScale
		cfg.Seed = baselineSeed
		cfg.DisableFastForward = k.noFastForward
		cfg.Parallelism = k.parallelism
		rows := RunSizeSweep(cfg)
		return textFile(func(w io.Writer) error {
			PrintSizeSweep(w, rows)
			return nil
		})
	}},
	{"tables", []knob{serial}, func(k knob) []baselineFile {
		results := RunAppPerfTables(baselineScale, baselineSeed, k.parallelism)
		return textFile(func(w io.Writer) error {
			PrintAppPerfTables(w, results)
			return nil
		})
	}},
	{"fig9", nil, func(knob) []baselineFile {
		cfg := DefaultWSSTrackConfig()
		cfg.Scale = baselineScale
		cfg.Seed = baselineSeed
		r := RunWSSTracking(cfg)
		return textFile(func(w io.Writer) error {
			r.Print(w)
			return r.WriteCSV(w)
		})
	}},
	{"ablations", []knob{serial, fanOut4}, func(k knob) []baselineFile {
		push := RunAblationActivePush(baselineScale, baselineSeed)
		remote := RunAblationRemoteSwap(baselineScale, baselineSeed, k.parallelism)
		placement := RunAblationPlacement(baselineSeed, k.parallelism)
		watermark := RunAblationWatermark(baselineSeed, k.parallelism)
		auto := RunAblationAutoConverge(baselineScale, baselineSeed, k.parallelism)
		scatter := RunScatterEviction(baselineScale, baselineSeed)
		return textFile(func(w io.Writer) error {
			PrintAblations(w, push, remote, placement, watermark)
			PrintAutoConverge(w, auto)
			PrintScatterEviction(w, scatter)
			return nil
		})
	}},
	baselineRecovery("recovery", vmd.StoreConfig{}, nil),
	// The v2 store under replication: hash placement, batched writes and
	// rebalance with K=2 cover the replica paths of both transfer shapes.
	baselineRecovery("recovery-hash", vmd.StoreConfig{
		BatchPages:           8,
		Placement:            vmd.PlaceHash,
		RebalanceBytesPerSec: 16 * cluster.MiB,
	}, []int{2}),
	{"vmdsweep", nil, func(knob) []baselineFile {
		cfg := DefaultVMDSweepConfig()
		cfg.Scale = baselineScale
		cfg.Seed = baselineSeed
		rows := RunVMDSweep(cfg)
		return textFile(func(w io.Writer) error {
			PrintVMDSweep(w, rows)
			return nil
		})
	}},
	// The observed fleet commits its merged trace and per-cell metrics, so
	// the shard and fast-forward cells diff those streams too.
	{"fleet", []knob{noFastForward, flipObserve, shards3, shards4}, func(k knob) []baselineFile {
		opt := DefaultFleetOptions()
		opt.Cells = 8
		opt.Seed = baselineSeed
		opt.Scale = baselineScale
		opt.Observe = !k.flipObserve
		opt.TraceCapacity = baselineFleetTraceCap
		opt.DisableFastForward = k.noFastForward
		if k.shards > 0 {
			opt.Shards = k.shards
		}
		rep := RunFleet(opt)
		f := rep.Fleet
		files := textFile(func(w io.Writer) error {
			PrintFleet(w, rep)
			return WriteFleetCSV(w, rep.Rows)
		})
		if opt.Observe {
			files = append(files,
				baselineFile{".trace.jsonl", render(func(w io.Writer) error {
					return trace.WriteEventsSpansJSONL(w, f.MergedTraceEvents(), f.MergedSpans(),
						f.TraceDrops(), f.SpanDrops(), f.OpenSpans())
				})},
				baselineFile{".metrics.jsonl", render(func(w io.Writer) error {
					for i := range rep.Rows {
						if err := f.CellRegistry(i).WriteJSONL(w); err != nil {
							return err
						}
					}
					return nil
				})})
		}
		return files
	}},
	{"drain", []knob{flipObserve, shards3, shards4}, func(k knob) []baselineFile {
		opt := DefaultDrainOptions()
		opt.Scale = baselineScale
		opt.Seed = baselineSeed
		opt.RackCells = 4
		opt.Observe = k.flipObserve
		if k.shards > 0 {
			opt.Shards = k.shards
		}
		rep := RunDrain(opt)
		return textFile(func(w io.Writer) error {
			PrintDrain(w, rep)
			return WriteDrainCSV(w, rep)
		})
	}},
}

// firstDiff returns the 1-based line number and both versions of the first
// line where got and want differ.
func firstDiff(got, want []byte) (line int, g, w string) {
	gl := strings.Split(string(got), "\n")
	wl := strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var a, b string
		if i < len(gl) {
			a = gl[i]
		}
		if i < len(wl) {
			b = wl[i]
		}
		if a != b || i >= len(gl) || i >= len(wl) {
			return i + 1, a, b
		}
	}
	return 0, "", ""
}

func TestBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("every experiment end to end; CI runs it in its own step without -race")
	}
	dir := filepath.Join("testdata", "baseline")
	for _, bc := range baselineCases {
		t.Run(bc.name, func(t *testing.T) {
			t.Parallel()
			for _, k := range append([]knob{reference}, bc.knobs...) {
				t.Run(k.name, func(t *testing.T) {
					t.Parallel()
					if *updateBaseline && k != reference {
						t.Skip("-update writes from reference runs only")
					}
					checkBaseline(t, dir, bc.name, bc.run(k))
				})
			}
		})
	}
}

// checkBaseline byte-diffs each rendered file against its committed copy,
// or rewrites the copy under -update.
func checkBaseline(t *testing.T, dir, name string, files []baselineFile) {
	t.Helper()
	for _, f := range files {
		path := filepath.Join(dir, name+f.suffix)
		got := f.data
		if *updateBaseline {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to create it)", err)
		}
		if !bytes.Equal(got, want) {
			line, g, w := firstDiff(got, want)
			t.Errorf("%s differs from the baseline at line %d:\n got: %s\nwant: %s", path, line, g, w)
		}
	}
}
