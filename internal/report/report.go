// Package report runs the full evaluation and renders a paper-vs-measured
// markdown report. Every shape it checks is one entry of the claims table
// (claims.go), which TestClaims evaluates too. It is what produces the
// recorded section of EXPERIMENTS.md:
//
//	go run ./cmd/agilesim -scale 0.25 report > report.md
package report

import (
	"fmt"
	"io"

	"agilemig/internal/cluster"
	"agilemig/internal/core"
	"agilemig/internal/experiments"
)

// Paper constants (§V), for side-by-side columns.
var paperTable = map[string]map[core.Technique]float64{
	"tableI-ycsb":       {core.PreCopy: 7653, core.PostCopy: 14926, core.Agile: 17112},
	"tableI-sysbench":   {core.PreCopy: 59.84, core.PostCopy: 74.74, core.Agile: 89.55},
	"tableII-ycsb":      {core.PreCopy: 470, core.PostCopy: 247, core.Agile: 108},
	"tableII-sysbench":  {core.PreCopy: 182.66, core.PostCopy: 157.56, core.Agile: 80.37},
	"tableIII-ycsb":     {core.PreCopy: 15029, core.PostCopy: 10268, core.Agile: 8173},
	"tableIII-sysbench": {core.PreCopy: 11298, core.PostCopy: 10268, core.Agile: 7757},
	"fig4-6-recovery":   {core.PreCopy: 533, core.PostCopy: 294, core.Agile: 215},
}

var (
	// techs is the column order of every table and claim detail.
	techs = []core.Technique{core.PreCopy, core.PostCopy, core.Agile}
	// sweepSizes are the Figures 7-8 VM sizes the report runs.
	sweepSizes = []int64{2 * cluster.GiB, 6 * cluster.GiB, 12 * cluster.GiB}
)

// Options configures a report run.
type Options struct {
	Scale float64
	Seed  uint64
	// Parallelism bounds the experiment-point workers within each section
	// (0 = all cores, 1 = serial). Results are identical either way.
	Parallelism int
}

// results holds every measurement of one report run; the tables render
// from it and the claims evaluate over it.
type results struct {
	opt       Options
	pressure  map[core.Technique]*experiments.PressureResult
	sweep     []experiments.SizeSweepRow
	tables    []*experiments.AppPerfResult
	wss       *experiments.WSSTrackResult
	push      *experiments.AblationPushResult
	remote    *experiments.AblationRemoteSwapResult
	placement *experiments.AblationPlacementResult
	auto      *experiments.AblationAutoConvergeResult
	evict     []experiments.ScatterEvictionRow
}

// run executes every section of the evaluation once.
func run(opt Options) *results {
	r := &results{opt: opt, pressure: map[core.Technique]*experiments.PressureResult{}}
	pcfg := experiments.DefaultPressureConfig(core.PreCopy)
	pcfg.Scale, pcfg.Seed = opt.Scale, opt.Seed
	for i, p := range experiments.RunPressureTechniques(pcfg, techs, opt.Parallelism) {
		r.pressure[techs[i]] = p
	}
	scfg := experiments.DefaultSizeSweepConfig()
	scfg.Scale, scfg.Seed, scfg.VMSizes, scfg.Parallelism = opt.Scale, opt.Seed, sweepSizes, opt.Parallelism
	r.sweep = experiments.RunSizeSweep(scfg)
	r.tables = experiments.RunAppPerfTables(opt.Scale, opt.Seed, opt.Parallelism)
	wcfg := experiments.DefaultWSSTrackConfig()
	wcfg.Scale, wcfg.Seed = opt.Scale, opt.Seed
	r.wss = experiments.RunWSSTracking(wcfg)
	r.push = experiments.RunAblationActivePush(opt.Scale, opt.Seed)
	r.remote = experiments.RunAblationRemoteSwap(opt.Scale, opt.Seed, opt.Parallelism)
	r.placement = experiments.RunAblationPlacement(opt.Seed, opt.Parallelism)
	r.auto = experiments.RunAblationAutoConverge(opt.Scale, opt.Seed, opt.Parallelism)
	r.evict = experiments.RunScatterEviction(opt.Scale, opt.Seed)
	return r
}

// sections are the report's headings in order; each prints its table, then
// the claims of its section.
var sections = []struct {
	name, subtitle string
	table          func(w io.Writer, r *results)
}{
	{figures4to6, ": YCSB under memory pressure", pressureTable},
	{figures7to8, ": single-VM size sweep (6 GB host)", sweepTable},
	{tables1to3, "", appPerfTable},
	{figures9to10, ": transparent WSS tracking", func(w io.Writer, r *results) {
		fmt.Fprintf(w, "* Working set (dataset): %.0f MB; converged reservation: %.0f MB; stable: %v\n",
			r.wss.DatasetMB, r.wss.FinalReservationMB, r.wss.Stable)
	}},
	{ablations, "", func(io.Writer, *results) {}},
}

// check renders a ✓/✗ marker with an explanation.
func check(pass bool, detail string) string {
	mark := "PASS"
	if !pass {
		mark = "DEVIATION"
	}
	return fmt.Sprintf("%s — %s", mark, detail)
}

// Generate runs everything and writes the markdown report.
func Generate(w io.Writer, opt Options) {
	if opt.Scale <= 0 {
		opt.Scale = 0.25
	}
	write(w, run(opt))
}

// write renders one run: each section's table, then its claims.
func write(w io.Writer, r *results) {
	fmt.Fprintf(w, "# Measured results (scale %.2f, seed %d)\n\n", r.opt.Scale, r.opt.Seed)
	fmt.Fprintf(w, "Durations and byte volumes scale ≈ linearly with the scale factor;\n")
	fmt.Fprintf(w, "the ×%.0f column compares against the paper's full-scale numbers.\n\n", 1/r.opt.Scale)
	for _, s := range sections {
		fmt.Fprintf(w, "## %s%s\n\n", s.name, s.subtitle)
		s.table(w, r)
		for _, c := range claims {
			if c.section == s.name {
				pass, detail := c.holds(r)
				if why, ok := knownDeviations[c.id]; ok {
					detail += " (known deviation: " + why + ")"
				}
				fmt.Fprintf(w, "* %s: %s\n", c.text, check(pass, detail))
			}
		}
		fmt.Fprintln(w)
	}
}

func pressureTable(w io.Writer, r *results) {
	scale := r.opt.Scale
	fmt.Fprintf(w, "| Technique | Migration (s, ×%.0f) | Paper (s) | Recovery to 90%% (s, ×%.0f) | Paper (s) |\n", 1/scale, 1/scale)
	fmt.Fprintln(w, "|---|---|---|---|---|")
	for _, tech := range techs {
		mig, ok := pressure(seconds)(r, tech)
		if !ok {
			mig = -1
		}
		fmt.Fprintf(w, "| %s | %s | %.0f | %s | %.0f |\n", tech, scaled(mig, scale), paperTable["tableII-ycsb"][tech],
			scaled(r.pressure[tech].RecoverySeconds, scale), paperTable["fig4-6-recovery"][tech])
	}
	fmt.Fprintln(w)
}

func sweepTable(w io.Writer, r *results) {
	fmt.Fprintf(w, "| Config | 2 GB time/data | 6 GB time/data | 12 GB time/data |\n")
	fmt.Fprintln(w, "|---|---|---|---|")
	for _, tech := range techs {
		for _, v := range []string{"idle", "busy"} {
			fmt.Fprintf(w, "| %s (%s) |", tech, v)
			for _, sz := range sweepSizes {
				row, _ := r.sweepRow(tech, sz, v == "busy")
				fmt.Fprintf(w, " %.0fs / %.0fMB |", row.TotalSeconds/r.opt.Scale, row.DataMB/r.opt.Scale)
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintln(w)
}

func appPerfTable(w io.Writer, r *results) {
	fmt.Fprintf(w, "| Metric | Pre-copy (paper) | Post-copy (paper) | Agile (paper) |\n")
	fmt.Fprintln(w, "|---|---|---|---|")
	for _, wk := range []experiments.WorkloadKind{experiments.WorkloadYCSB, experiments.WorkloadSysbench} {
		name := map[experiments.WorkloadKind]string{experiments.WorkloadYCSB: "ycsb", experiments.WorkloadSysbench: "sysbench"}[wk]
		// Table I: throughput is not scaled (ops/s are absolute).
		fmt.Fprintf(w, "| I: %s ops/s |", name)
		for _, tech := range techs {
			c, _ := r.cell(wk, tech)
			fmt.Fprintf(w, " %.1f (%.0f) |", c.AvgOpsPerSec, paperTable["tableI-"+name][tech])
		}
		for _, row := range []struct {
			table, unit string
			value       func(core.Result) float64
		}{{"II", "seconds", seconds}, {"III", "MB", megabytes}} {
			fmt.Fprintf(w, "\n| %s: %s %s ×%.0f |", row.table, name, row.unit, 1/r.opt.Scale)
			for _, tech := range techs {
				v := -1.0
				if c, _ := r.cell(wk, tech); c.Migration != nil {
					v = row.value(*c.Migration)
				}
				fmt.Fprintf(w, " %s (%.0f) |", scaled(v, r.opt.Scale), paperTable["table"+row.table+"-"+name][tech])
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// pressureMigration returns the Figures 4-6 run's migration, and whether
// it completed inside the timeline.
func (r *results) pressureMigration(tech core.Technique) (core.Result, bool) {
	if p := r.pressure[tech]; p != nil && p.Migration != nil {
		return *p.Migration, p.Migration.End != 0
	}
	return core.Result{}, false
}

// sweepRow returns a Figures 7-8 point, and whether its migration completed.
func (r *results) sweepRow(tech core.Technique, size int64, busy bool) (experiments.SizeSweepRow, bool) {
	for _, row := range r.sweep {
		if row.Technique == tech && row.VMBytes == size && row.Busy == busy {
			return row, row.Completed()
		}
	}
	return experiments.SizeSweepRow{}, false
}

// cell returns a Tables I-III cell, and whether its migration completed.
func (r *results) cell(wk experiments.WorkloadKind, tech core.Technique) (*experiments.AppPerfResult, bool) {
	for _, c := range r.tables {
		if c.Workload == wk && c.Technique == tech {
			return c, c.Completed()
		}
	}
	return nil, false
}

// scaled renders a value multiplied up to paper scale, or "-" if missing.
func scaled(v, scale float64) string {
	if v <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", v/scale)
}
