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
	"agilemig/internal/trace"
	"agilemig/internal/vmd"
)

// The committed behaviour baseline: every agilesim experiment rendered at
// one small fixed scale and seed, stored under testdata/baseline/ and
// byte-diffed on every run. Unlike the v1≡v2 and shard-equivalence goldens,
// which compare configurations of the same build against each other, this
// catches a change that shifts every configuration the same way. A change
// that moves results on purpose regenerates the files in the same diff:
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
)

// baselineFile is one rendered output; the file is <case name><suffix>.
type baselineFile struct {
	suffix string
	data   []byte
}

// baselineCase renders one experiment into one or more files.
type baselineCase struct {
	name string
	run  func() []baselineFile
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

func baselinePressure(tech core.Technique) func() []baselineFile {
	return func() []baselineFile {
		cfg := DefaultPressureConfig(tech)
		cfg.Scale = baselineScale
		cfg.Seed = baselineSeed
		r := RunPressureTimeline(cfg)
		return textFile(func(w io.Writer) error {
			r.Print(w)
			return r.WriteCSV(w)
		})
	}
}

func baselineRecovery(store vmd.StoreConfig, factors []int) func() []baselineFile {
	return func() []baselineFile {
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
	}
}

var baselineCases = []baselineCase{
	{"quickstart", func() []baselineFile {
		tr := trace.New(baselineTraceCap)
		reg := metrics.NewRegistry()
		cfg := DefaultQuickstartConfig()
		cfg.Scale = baselineScale
		cfg.Seed = baselineSeed
		cfg.Trace = tr
		cfg.Metrics = reg
		results := RunQuickstart(cfg)
		return []baselineFile{
			{".txt", render(func(w io.Writer) error {
				for _, r := range results {
					fmt.Fprintf(w, "%+v\n", r.Result)
				}
				writeVMDCounters(w, results[len(results)-1].Testbed)
				return nil
			})},
			{".trace.jsonl", render(func(w io.Writer) error {
				return trace.WriteEventsJSONL(w, tr.Events(), tr.Drops())
			})},
			{".spans.jsonl", render(func(w io.Writer) error {
				return trace.WriteEventsSpansJSONL(w, nil, tr.Spans(), 0, tr.SpanDrops(), tr.OpenSpans())
			})},
			{".metrics.jsonl", render(reg.WriteJSONL)},
		}
	}},
	{"fig4", baselinePressure(core.PreCopy)},
	{"fig5", baselinePressure(core.PostCopy)},
	{"fig6", baselinePressure(core.Agile)},
	{"fig7", func() []baselineFile {
		cfg := DefaultSizeSweepConfig()
		cfg.Scale = baselineScale
		cfg.Seed = baselineSeed
		rows := RunSizeSweep(cfg)
		return textFile(func(w io.Writer) error {
			PrintSizeSweep(w, rows)
			return nil
		})
	}},
	{"tables", func() []baselineFile {
		results := RunAppPerfTables(baselineScale, baselineSeed)
		return textFile(func(w io.Writer) error {
			PrintAppPerfTables(w, results)
			return nil
		})
	}},
	{"fig9", func() []baselineFile {
		cfg := DefaultWSSTrackConfig()
		cfg.Scale = baselineScale
		cfg.Seed = baselineSeed
		r := RunWSSTracking(cfg)
		return textFile(func(w io.Writer) error {
			r.Print(w)
			return r.WriteCSV(w)
		})
	}},
	{"ablations", func() []baselineFile {
		push := RunAblationActivePush(baselineScale, baselineSeed)
		remote := RunAblationRemoteSwap(baselineScale, baselineSeed)
		placement := RunAblationPlacement(baselineSeed)
		watermark := RunAblationWatermark(baselineSeed)
		auto := RunAblationAutoConverge(baselineScale, baselineSeed)
		scatter := RunScatterEviction(baselineScale, baselineSeed)
		return textFile(func(w io.Writer) error {
			PrintAblations(w, push, remote, placement, watermark)
			PrintAutoConverge(w, auto)
			PrintScatterEviction(w, scatter)
			return nil
		})
	}},
	{"recovery", baselineRecovery(vmd.StoreConfig{}, nil)},
	// The v2 store under replication: hash placement, batched writes and
	// rebalance with K=2 cover the replica paths of both transfer shapes.
	{"recovery-hash", baselineRecovery(vmd.StoreConfig{
		BatchPages:           8,
		Placement:            vmd.PlaceHash,
		RebalanceBytesPerSec: 16 * cluster.MiB,
	}, []int{2})},
	{"vmdsweep", func() []baselineFile {
		cfg := DefaultVMDSweepConfig()
		cfg.Scale = baselineScale
		cfg.Seed = baselineSeed
		rows := RunVMDSweep(cfg)
		return textFile(func(w io.Writer) error {
			PrintVMDSweep(w, rows)
			return nil
		})
	}},
	{"fleet", func() []baselineFile {
		opt := DefaultFleetOptions()
		opt.Cells = 8
		opt.Seed = baselineSeed
		opt.Scale = baselineScale
		rep := RunFleet(opt)
		return textFile(func(w io.Writer) error {
			PrintFleet(w, rep)
			return WriteFleetCSV(w, rep.Rows)
		})
	}},
	{"drain", func() []baselineFile {
		opt := DefaultDrainOptions()
		opt.Scale = baselineScale
		opt.Seed = baselineSeed
		opt.RackCells = 4
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
		bc := bc
		t.Run(bc.name, func(t *testing.T) {
			t.Parallel()
			for _, f := range bc.run() {
				path := filepath.Join(dir, bc.name+f.suffix)
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
		})
	}
}
