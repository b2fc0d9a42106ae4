package report

import (
	"fmt"
	"math"
	"strings"

	"agilemig/internal/cluster"
	"agilemig/internal/core"
	"agilemig/internal/experiments"
)

// A claim is one shape the paper's evaluation (§V) asserts. holds
// evaluates it over one report run and returns a detail naming the values
// it compared; a claim over a migration that did not complete fails.
type claim struct {
	id, section, text string
	holds             func(r *results) (bool, string)
}

// The report's sections, as the paper names its figures and tables.
const (
	figures4to6  = "Figures 4–6"
	figures7to8  = "Figures 7–8"
	tables1to3   = "Tables I–III"
	figures9to10 = "Figures 9–10"
	ablations    = "Ablations"
)

// knownDeviations maps the ID of each claim this reproduction does not
// meet to why. TestClaims also fails when a listed claim passes, so a
// fixed deviation leaves the list and cannot come back unnoticed.
var knownDeviations = map[string]string{
	"tableI-ycsb":  ycsbGap,
	"tableII-ycsb": ycsbGap,
}

const ycsbGap = "undiagnosed so far; Agile's YCSB migration moves 39 MB/s on a 125 MB/s NIC"

const ycsb, sysbench = experiments.WorkloadYCSB, experiments.WorkloadSysbench

var claims = []claim{
	ranked("fig4-6-migration-order", figures4to6, "Migration-time ordering agile < post < pre, all three complete",
		"%.1f s", pressure(seconds), increasing(core.Agile, core.PostCopy, core.PreCopy)),
	ranked("fig4-6-recovery-order", figures4to6, "Recovery order agile, post-copy, pre-copy (never recovering counts last)",
		"%.1f s", recoverySeconds, increasing(core.Agile, core.PostCopy, core.PreCopy)),
	{"fig4-6-collapse", figures4to6, "Every timeline collapses below half its peak", func(r *results) (bool, string) {
		pass, parts := true, []string{}
		for _, t := range techs {
			p := r.pressure[t]
			low := p.PeakOps
			for _, pt := range p.AvgThroughput.Smoothed(5).Points {
				low = math.Min(low, pt.V)
			}
			pass = pass && low <= 0.5*p.PeakOps
			parts = append(parts, fmt.Sprintf("%s %.0f of %.0f", t, low, p.PeakOps))
		}
		return pass, "smoothed minimum of peak ops/s: " + strings.Join(parts, ", ")
	}},
	ranked("fig4-6-data", figures4to6, "Agile moves fewer bytes than post-copy",
		"%.0f MB", pressure(megabytes), increasing(core.Agile, core.PostCopy)),

	{"fig7-8-complete", figures7to8, "Every idle point completes", func(r *results) (bool, string) {
		done := 0
		for _, t := range techs {
			for _, size := range sweepSizes {
				if _, ok := r.sweepRow(t, size, false); ok {
					done++
				}
			}
		}
		n := len(techs) * len(sweepSizes)
		return done == n, fmt.Sprintf("%d of %d idle points completed", done, n)
	}},
	{"fig7-8-agile-flat", figures7to8, "Agile data and time flat past host memory (12 GB ≤ 1.35× and ≤ 1.5× 6 GB)", func(r *results) (bool, string) {
		data, okData, dData := r.growth(core.Agile, "%.0f MB", func(row experiments.SizeSweepRow) float64 { return row.DataMB })
		secs, okSecs, dSecs := r.growth(core.Agile, "%.1f s", func(row experiments.SizeSweepRow) float64 { return row.TotalSeconds })
		return okData && okSecs && data <= 1.35 && secs <= 1.5, dData + "; " + dSecs
	}},
	{"fig7-8-linear-data", figures7to8, "Pre- and post-copy data ≈ linear in VM size (12 GB ≥ 1.6× 6 GB)", func(r *results) (bool, string) {
		mb := func(row experiments.SizeSweepRow) float64 { return row.DataMB }
		pre, okPre, dPre := r.growth(core.PreCopy, "%.0f MB", mb)
		post, okPost, dPost := r.growth(core.PostCopy, "%.0f MB", mb)
		return okPre && okPost && pre >= 1.6 && post >= 1.6, dPre + "; " + dPost
	}},
	ranked("fig7-8-agile-fastest", figures7to8, "Agile fastest at 12 GB", "%.1f s", func(r *results, t core.Technique) (float64, bool) {
		row, ok := r.sweepRow(t, 12*cluster.GiB, false)
		return row.TotalSeconds, ok
	}, agileLeast),
	{"fig7-8-busy-costs-more", figures7to8, "Busy pre-copy costs more than idle at 12 GB", func(r *results) (bool, string) {
		idle, okIdle := r.sweepRow(core.PreCopy, 12*cluster.GiB, false)
		busy, okBusy := r.sweepRow(core.PreCopy, 12*cluster.GiB, true)
		detail := fmt.Sprintf("busy %.1f s / %.0f MB, idle %.1f s / %.0f MB", busy.TotalSeconds, busy.DataMB, idle.TotalSeconds, idle.DataMB)
		if !okIdle || !okBusy {
			return false, detail + "; incomplete"
		}
		return busy.TotalSeconds > idle.TotalSeconds && busy.DataMB > idle.DataMB, detail
	}},

	ranked("tableI-ycsb", tables1to3, "Table I: YCSB throughput agile > post > pre",
		"%.0f ops/s", table(ycsb, opsPerSec), increasing(core.PreCopy, core.PostCopy, core.Agile)),
	ranked("tableI-sysbench", tables1to3, "Table I: Sysbench throughput agile > post > pre",
		"%.1f trans/s", table(sysbench, opsPerSec), increasing(core.PreCopy, core.PostCopy, core.Agile)),
	ranked("tableII-ycsb", tables1to3, "Table II: YCSB migration time agile < post < pre",
		"%.1f s", table(ycsb, cellSeconds), increasing(core.Agile, core.PostCopy, core.PreCopy)),
	ranked("tableII-sysbench", tables1to3, "Table II: Sysbench migration time agile < post < pre",
		"%.1f s", table(sysbench, cellSeconds), increasing(core.Agile, core.PostCopy, core.PreCopy)),
	ranked("tableIII-ycsb", tables1to3, "Table III: Agile moves the fewest YCSB bytes",
		"%.0f MB", table(ycsb, cellMB), agileLeast),
	ranked("tableIII-sysbench", tables1to3, "Table III: Agile moves the fewest Sysbench bytes",
		"%.0f MB", table(sysbench, cellMB), agileLeast),

	{"fig9-converges", figures9to10, "Reservation ≈ working set (0.7× to 1.6×)", func(r *results) (bool, string) {
		s := r.wss
		return s.FinalReservationMB >= 0.7*s.DatasetMB && s.FinalReservationMB <= 1.6*s.DatasetMB,
			fmt.Sprintf("%.0f MB vs %.0f MB", s.FinalReservationMB, s.DatasetMB)
	}},
	{"fig9-descends", figures9to10, "Reservation starts well above the working set (≥ 2×)", func(r *results) (bool, string) {
		first := r.wss.Reservation.Points[0].V
		return first >= 2*r.wss.DatasetMB, fmt.Sprintf("first sample %.0f MB vs %.0f MB", first, r.wss.DatasetMB)
	}},
	{"fig10-recovers", figures9to10, "Throughput recovers near peak after convergence (≥ 0.6×)", func(r *results) (bool, string) {
		s := r.wss
		return s.MeanThroughputAfterConvergence >= 0.6*s.PeakThroughput,
			fmt.Sprintf("steady %.0f vs peak %.0f ops/s", s.MeanThroughputAfterConvergence, s.PeakThroughput)
	}},

	{"ablation-active-push", ablations, "Demand-only transfer unbounded (§III)", func(r *results) (bool, string) {
		p := r.push
		return !p.WithoutPushCompleted && p.WithoutPushResidualPages > 0, fmt.Sprintf(
			"with push %.1f s; without: incomplete, %d pages still source-bound", p.WithPushSeconds, p.WithoutPushResidualPages)
	}},
	{"ablation-remote-swap", ablations, "Remote per-VM swap is the win (vs VMware-style local swap)", func(r *results) (bool, string) {
		s := r.remote
		return s.NoRemoteDone && s.NoRemoteMB > s.AgileMB && s.NoRemoteSecs > s.AgileSeconds, fmt.Sprintf(
			"agile %.1f s/%.0f MB vs no-remote %.1f s/%.0f MB", s.AgileSeconds, s.AgileMB, s.NoRemoteSecs, s.NoRemoteMB)
	}},
	{"ablation-placement", ablations, "Load-aware placement avoids NACK retries", func(r *results) (bool, string) {
		p := r.placement
		return p.BlindRetries > p.LoadAwareRetries, fmt.Sprintf("load-aware %d vs blind %d retries", p.LoadAwareRetries, p.BlindRetries)
	}},
	{"ablation-auto-converge", ablations, "Auto-converge (SDPS) trades throughput for convergence (§VI)", func(r *results) (bool, string) {
		a := r.auto
		return a.ThrottleEvents > 0 && a.ThrottledOpsRate < a.BaselineOpsRate, fmt.Sprintf(
			"%.0f → %.0f ops/s during migration; %d → %d rounds", a.BaselineOpsRate, a.ThrottledOpsRate, a.BaselineRounds, a.ThrottledRounds)
	}},
	{"ablation-scatter", ablations, "Scatter-gather evicts fastest with a constrained destination", func(r *results) (bool, string) {
		var sg, ag float64
		for _, row := range r.evict {
			switch row.Technique {
			case core.ScatterGather:
				sg = row.EvictSeconds
			case core.Agile:
				ag = row.EvictSeconds
			}
		}
		return sg > 0 && sg < ag, fmt.Sprintf("scatter-gather %.1f s vs agile %.1f s", sg, ag)
	}},
}

// A getter reads one technique's value from a run, and false if that
// technique's migration did not complete.
type (
	values = map[core.Technique]float64
	getter = func(*results, core.Technique) (float64, bool)
)

// ranked is a claim that orders one value across the three techniques. Its
// detail lists every value, an infinite one as "never".
func ranked(id, section, text, format string, get getter, order func(values) bool) claim {
	return claim{id, section, text, func(r *results) (bool, string) {
		v, ok, parts := values{}, true, []string{}
		for _, t := range techs {
			x, done := get(r, t)
			v[t], ok = x, ok && done
			switch {
			case !done:
				parts = append(parts, fmt.Sprintf("%s incomplete", t))
			case math.IsInf(x, 1):
				parts = append(parts, fmt.Sprintf("%s never", t))
			default:
				parts = append(parts, fmt.Sprintf("%s "+format, t, x))
			}
		}
		return ok && order(v), strings.Join(parts, ", ")
	}}
}

// increasing holds when the techniques' values strictly increase in the
// order given.
func increasing(ts ...core.Technique) func(values) bool {
	return func(v values) bool {
		for i := 1; i < len(ts); i++ {
			if v[ts[i-1]] >= v[ts[i]] {
				return false
			}
		}
		return true
	}
}

func agileLeast(v values) bool {
	return v[core.Agile] < v[core.PostCopy] && v[core.Agile] < v[core.PreCopy]
}

func seconds(m core.Result) float64   { return m.TotalSeconds }
func megabytes(m core.Result) float64 { return float64(m.BytesTransferred) / 1e6 }

// pressure reads a Figures 4-6 migration.
func pressure(value func(core.Result) float64) getter {
	return func(r *results, t core.Technique) (float64, bool) {
		m, ok := r.pressureMigration(t)
		return value(m), ok
	}
}

// recoverySeconds counts a run that never recovers inside the timeline as
// later than any run that does.
func recoverySeconds(r *results, t core.Technique) (float64, bool) {
	if s := r.pressure[t].RecoverySeconds; s > 0 {
		return s, true
	}
	return math.Inf(1), true
}

// table reads a Tables I-III value from a workload's completed cells.
func table(wk experiments.WorkloadKind, value func(*experiments.AppPerfResult) float64) getter {
	return func(r *results, t core.Technique) (float64, bool) {
		if c, ok := r.cell(wk, t); ok {
			return value(c), true
		}
		return 0, false
	}
}

func opsPerSec(c *experiments.AppPerfResult) float64   { return c.AvgOpsPerSec }
func cellSeconds(c *experiments.AppPerfResult) float64 { return seconds(*c.Migration) }
func cellMB(c *experiments.AppPerfResult) float64      { return megabytes(*c.Migration) }

// growth is a technique's idle 12 GB value over its idle 6 GB value; ok is
// false unless both points completed.
func (r *results) growth(t core.Technique, format string, value func(experiments.SizeSweepRow) float64) (float64, bool, string) {
	a, okA := r.sweepRow(t, 6*cluster.GiB, false)
	b, okB := r.sweepRow(t, 12*cluster.GiB, false)
	if !okA || !okB {
		return 0, false, fmt.Sprintf("%s incomplete", t)
	}
	x, y := value(a), value(b)
	return y / x, true, fmt.Sprintf("%s 6 GB "+format+", 12 GB "+format+" (×%.2f)", t, x, y, y/x)
}
