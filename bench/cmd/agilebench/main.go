// Command agilebench is the simulator's benchmark. It runs one workload —
// a batch simulation built from the public cluster API — for a fixed
// host-time budget and prints every metric by name with its unit, after
// checking the simulated outputs:
//
//	agilebench -workload sweep -seed 1 -seconds 30 -trace 0
//
// Each execution of the workload runs in a fresh process with GOMAXPROCS
// at most 2, and a run repeats executions until the next would overrun
// the budget, reporting medians. With -trace 1 it instead runs the
// workload once untraced and once with trace and metrics sinks and a CPU
// profile, and reports the per-layer metrics. -repeat calibrates the
// noise of every workload; -smoke pushes every workload through the whole
// pipeline at a tiny scale. bench/README.md describes the workloads, the
// metrics and the reference-host numbers; bench/run.sh builds and runs it
// from the root of a checkout.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runDeadline bounds one benchmark run, however slow the host: the run
// must exit within 180 s.
const runDeadline = 170 * time.Second

func main() {
	var (
		name    = flag.String("workload", "", "workload: pressure, sweep, farmem or fleet")
		seed    = flag.Uint64("seed", 1, "seed the workload's inputs are made from (with -repeat, the first of the seeds)")
		seconds = flag.Int("seconds", 30, "host seconds a run may spend executing the workload")
		traceF  = flag.Int("trace", 0, "1 reports the per-layer metrics of a traced execution instead of the end-to-end metrics")
		repeat  = flag.Int("repeat", 0, "noise calibration: run every workload this many times, alternating, and print each metric's spread")
		smoke   = flag.Bool("smoke", false, "run every workload at a tiny scale through the whole metric and check pipeline")
		child   = flag.Bool("child", false, "internal: execute the workload once in this process and print the sample")
		traced  = flag.Bool("traced", false, "internal, with -child: attach the sinks and take a CPU profile")
	)
	flag.Parse()
	if err := dispatch(*name, *seed, *seconds, *traceF, *repeat, *smoke, *child, *traced); err != nil {
		fmt.Fprintln(os.Stderr, "agilebench:", err)
		os.Exit(1)
	}
}

func dispatch(name string, seed uint64, seconds, traceF, repeat int, smoke, child, traced bool) error {
	switch {
	case smoke:
		return runSmoke(os.Stdout)
	case repeat > 0:
		return calibrate(os.Stdout, repeat, seconds, name, seed)
	}
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q (want pressure, sweep, farmem or fleet)", name)
	}
	if child {
		s, err := execute(w, seed, false, traced)
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(s)
	}
	if traceF != 0 && traceF != 1 {
		return fmt.Errorf("-trace must be 0 or 1, not %d", traceF)
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	res, err := benchmark(ctx, w, seed, time.Duration(seconds)*time.Second, traceF == 1)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// subprocess executes the workload in a fresh process of this binary, so
// no execution inherits another's heap, GC pacing or warmed caches.
func subprocess(ctx context.Context, w workload, seed uint64, traced bool) (sample, error) {
	exe, err := os.Executable()
	if err != nil {
		return sample{}, err
	}
	args := []string{"-child", "-workload", w.name, "-seed", strconv.FormatUint(seed, 10)}
	if traced {
		args = append(args, "-traced")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs()))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return sample{}, fmt.Errorf("%s execution: %w", w.name, err)
	}
	return lastJSON[sample](out)
}

// procs is the GOMAXPROCS of an execution: the fleet's two shards, or
// fewer on a smaller host.
func procs() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// lastJSON decodes the last line of a process's output.
func lastJSON[T any](out []byte) (T, error) {
	var v T
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &v); err != nil {
		return v, fmt.Errorf("decode result line: %w", err)
	}
	return v, nil
}

// result is the line a run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// benchmark performs one run of workload w. Untraced, it repeats
// executions while the next one, judged by the longest so far, still fits
// the budget, and reports each end-to-end metric's median. Traced, it
// makes one untraced and one traced execution and reports the per-layer
// metrics.
func benchmark(ctx context.Context, w workload, seed uint64, budget time.Duration, traced bool) (result, error) {
	var samples []sample
	if traced {
		for _, tr := range []bool{false, true} {
			s, err := subprocess(ctx, w, seed, tr)
			if err != nil {
				return result{}, err
			}
			samples = append(samples, s)
		}
		return summarize(w, seed, samples, true), nil
	}
	start := time.Now()
	var longest time.Duration
	for len(samples) == 0 || time.Since(start)+longest <= budget {
		t := time.Now()
		s, err := subprocess(ctx, w, seed, false)
		if err != nil {
			return result{}, err
		}
		if d := time.Since(t); d > longest {
			longest = d
		}
		samples = append(samples, s)
	}
	return summarize(w, seed, samples, false), nil
}

// summarize turns a run's samples into its result. Every execution must
// produce the same simulated outcome. Traced, samples are an untraced
// then a traced execution.
func summarize(w workload, seed uint64, samples []sample, traced bool) result {
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, s := range samples {
		res.Attempted += s.Attempted
		res.Failed += s.Failed
		for _, p := range s.Problems {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "agilebench: %s seed %d: %s\n", w.name, seed, p)
		}
		if s.Digest != samples[0].Digest {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "agilebench: %s seed %d: simulated outcome differs between executions (traced=%v)\n", w.name, seed, s.Traced)
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	if traced {
		// The traced execution runs without the speed meter, whose bursts
		// would land in its profile; its host times are scaled by the speed
		// the untraced execution just measured. The bench.* metrics are
		// the untraced execution's own: its speed factor and its raw wall
		// time, the number the factor scales.
		untraced, layer := samples[0].Metrics, samples[1].Metrics
		layer["trace.overhead_pct"] = 100 * (layer["raw_wall_s"] - untraced["raw_wall_s"]) / untraced["raw_wall_s"]
		layer["bench.host_speed"] = untraced["host_speed"]
		layer["bench.raw_wall_s"] = untraced["raw_wall_s"]
		for _, d := range perLayer {
			v := layer[d.name]
			if isHostTime(d.unit) && !strings.HasPrefix(d.name, "bench.") {
				v *= untraced["host_speed"]
			}
			res.Metrics[d.name] = metricValue{v, d.unit}
		}
		return res
	}
	speed, raw := make([]float64, len(samples)), make([]float64, len(samples))
	for i, s := range samples {
		speed[i], raw[i] = s.Metrics["host_speed"], s.Metrics["raw_wall_s"]
	}
	fmt.Fprintf(os.Stderr, "agilebench: %s seed %d: %d executions, outcome digest %s, host speed %.3f, raw wall %.3f s\n",
		w.name, seed, len(samples), samples[0].Digest, median(speed), median(raw))
	for _, d := range endToEnd {
		vals := make([]float64, len(samples))
		for i, s := range samples {
			vals[i] = s.Metrics[d.name]
		}
		res.Metrics[d.name] = metricValue{median(vals), d.unit}
	}
	return res
}

// isHostTime reports whether a per-layer unit measures host time (seconds,
// or host time per unit of work), as opposed to simulated time or counts.
func isHostTime(unit string) bool {
	return unit == "s" || unit == "s/sim_s" || strings.HasPrefix(unit, "ns/") || strings.HasPrefix(unit, "us/")
}

func median(vals []float64) float64 {
	v := append([]float64(nil), vals...)
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method).
func quartiles(vals []float64) (q1, q3 float64) {
	v := append([]float64(nil), vals...)
	sort.Float64s(v)
	n := len(v)
	if n == 1 {
		return v[0], v[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		delta := i*m - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j >= n {
			j, delta = n-1, 4
		}
		return (v[j-1]*float64(4-delta) + v[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// runSmoke pushes every workload, tiny, through an untraced and a traced
// execution and both summaries, and fails unless each is correct and
// reports every metric.
func runSmoke(out io.Writer) error {
	var failed []string
	for _, w := range workloads {
		var samples []sample
		for _, traced := range []bool{false, true} {
			s, err := execute(w, 1, true, traced)
			if err != nil {
				return err
			}
			samples = append(samples, s)
		}
		for _, traced := range []bool{false, true} {
			res, want := summarize(w, 1, samples[:1], false), endToEnd
			if traced {
				res, want = summarize(w, 1, samples, true), perLayer
			}
			missing := 0
			for _, d := range want {
				if _, ok := res.Metrics[d.name]; !ok {
					missing++
				}
			}
			fmt.Fprintf(out, "%-9s traced=%-5v correct=%-5v attempted=%d failed=%d metrics=%d missing=%d\n",
				w.name, traced, res.Correct, res.Attempted, res.Failed, len(res.Metrics), missing)
			if !res.Correct || missing > 0 {
				failed = append(failed, fmt.Sprintf("%s (traced=%v)", w.name, traced))
			}
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("smoke failed: %v", failed)
	}
	return nil
}

// calibrate runs every workload (or only the named one) n times,
// alternating workloads and changing the seed each round (seed, seed+1,
// ...) as the benchmark's users do, each run a fresh process of this
// binary. It prints each end-to-end metric's median, quartiles, extremes,
// and its spread — the interquartile range as a share of the median —
// against the bound in BENCHMARK.json.
func calibrate(out io.Writer, n, seconds int, only string, seed uint64) error {
	bounds, err := readBounds("BENCHMARK.json")
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var ws []workload
	for _, w := range workloads {
		if only == "" || w.name == only {
			ws = append(ws, w)
		}
	}
	if len(ws) == 0 {
		return fmt.Errorf("unknown workload %q", only)
	}
	vals := map[string]map[string][]float64{}
	for round := 0; round < n; round++ {
		for _, w := range ws {
			s := strconv.FormatUint(seed+uint64(round), 10)
			ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
			cmd := exec.CommandContext(ctx, exe, "-workload", w.name, "-seed", s, "-seconds", strconv.Itoa(seconds))
			cmd.Stderr = os.Stderr
			b, err := cmd.Output()
			cancel()
			if err != nil {
				return fmt.Errorf("%s seed %s: %w", w.name, s, err)
			}
			res, err := lastJSON[result](b)
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %s: incorrect result", w.name, s)
			}
			if vals[w.name] == nil {
				vals[w.name] = map[string][]float64{}
			}
			for name, v := range res.Metrics {
				vals[w.name][name] = append(vals[w.name][name], v.Value)
			}
			fmt.Fprintf(os.Stderr, "agilebench: round %d/%d %s seed %s: %s\n", round+1, n, w.name, s, bytes.TrimSpace(b))
		}
	}
	bw := bufio.NewWriter(out)
	fmt.Fprintf(bw, "%-9s %-16s %12s %12s %12s %12s %12s %8s %7s %12s\n",
		"workload", "metric", "median", "q1", "q3", "min", "max", "iqr%", "bound%", "spread/bound")
	for _, w := range ws {
		for _, d := range endToEnd {
			v := vals[w.name][d.name]
			med := median(v)
			q1, q3 := quartiles(v)
			sorted := append([]float64(nil), v...)
			sort.Float64s(sorted)
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			ratio := "-"
			if b := bounds[d.name]; b > 0 {
				ratio = fmt.Sprintf("%.2f", spread/b)
			}
			fmt.Fprintf(bw, "%-9s %-16s %12.4f %12.4f %12.4f %12.4f %12.4f %8.2f %7.1f %12s\n",
				w.name, d.name, med, q1, q3, sorted[0], sorted[len(sorted)-1], 100*spread, 100*bounds[d.name], ratio)
		}
	}
	return bw.Flush()
}

// readBounds reads the end-to-end bounds from BENCHMARK.json.
func readBounds(path string) (map[string]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read bounds (run from the checkout root): %w", err)
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]float64{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	if len(out) == 0 {
		return nil, errors.New(path + ": no end_to_end metrics")
	}
	return out, nil
}
