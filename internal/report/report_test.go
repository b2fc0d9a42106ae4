package report

import (
	"strings"
	"testing"

	"agilemig/internal/cluster"
	"agilemig/internal/core"
	"agilemig/internal/experiments"
)

// TestClaims runs the whole evaluation once at the behaviour baseline's
// scale and seed and evaluates every claim the report prints: a claim
// outside knownDeviations must hold, and a listed one must still deviate.
func TestClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every section of the evaluation; CI runs it in the behaviour-baseline step")
	}
	r := run(Options{Scale: 0.05, Seed: 1})
	var sb strings.Builder
	write(&sb, r)
	ids := map[string]bool{}
	for _, c := range claims {
		pass, detail := c.holds(r)
		_, known := knownDeviations[c.id]
		switch {
		case ids[c.id]:
			t.Errorf("claim %s listed twice", c.id)
		case !pass && !known:
			t.Errorf("%s deviates: %s", c.id, detail)
		case pass && known:
			t.Errorf("%s holds but is listed in knownDeviations; remove it from the list: %s", c.id, detail)
		case !strings.Contains(sb.String(), "* "+c.text+": "):
			t.Errorf("report does not print claim %s", c.id)
		}
		ids[c.id] = true
	}
	for id := range knownDeviations {
		if !ids[id] {
			t.Errorf("knownDeviations lists %s, which is no claim", id)
		}
	}
}

// TestClaimsRequireCompletion times out Agile's two Tables I-III cells and
// its 12 GB sweep point: every claim over them must deviate instead of
// passing on a partial or zero cost, or panicking on a nil result. With
// the three migrations completed, the same claims hold.
func TestClaimsRequireCompletion(t *testing.T) {
	r := &results{}
	for i, tech := range techs {
		cost := float64(3 - i) // pre-copy costs most, Agile least
		for _, wk := range []experiments.WorkloadKind{ycsb, sysbench} {
			r.tables = append(r.tables, &experiments.AppPerfResult{Workload: wk, Technique: tech,
				AvgOpsPerSec: float64(i), Migration: &core.Result{TotalSeconds: cost, BytesTransferred: int64(cost)}})
		}
		for _, size := range sweepSizes {
			r.sweep = append(r.sweep, experiments.SizeSweepRow{Technique: tech, VMBytes: size, TotalSeconds: cost, DataMB: 1})
		}
	}
	for _, timedOut := range []bool{false, true} {
		if timedOut {
			r.tables[4] = &experiments.AppPerfResult{Workload: ycsb, Technique: core.Agile, Outcome: cluster.OutcomeTimeout}
			r.tables[5] = &experiments.AppPerfResult{Workload: sysbench, Technique: core.Agile, Outcome: cluster.OutcomeTimeout,
				AvgOpsPerSec: 5, Migration: &core.Result{TotalSeconds: 0.5}}
			r.sweep[8] = experiments.SizeSweepRow{Technique: core.Agile, VMBytes: 12 * cluster.GiB, Outcome: cluster.OutcomeTimeout}
		}
		for _, c := range claims {
			if c.section != tables1to3 && c.id != "fig7-8-complete" && c.id != "fig7-8-agile-flat" && c.id != "fig7-8-agile-fastest" {
				continue
			}
			if pass, detail := c.holds(r); pass == timedOut {
				t.Errorf("timed out %v: %s holds %v: %s", timedOut, c.id, pass, detail)
			}
		}
	}
}

func TestCheckRendering(t *testing.T) {
	if got := check(true, "x"); !strings.HasPrefix(got, "PASS") {
		t.Errorf("check(true) = %q", got)
	}
	if got := check(false, "x"); !strings.HasPrefix(got, "DEVIATION") {
		t.Errorf("check(false) = %q", got)
	}
}

func TestScaledRendering(t *testing.T) {
	if scaled(-1, 0.25) != "-" {
		t.Error("missing value not rendered as -")
	}
	if scaled(10, 0.25) != "40.0" {
		t.Errorf("scaled(10, .25) = %q", scaled(10, 0.25))
	}
}
