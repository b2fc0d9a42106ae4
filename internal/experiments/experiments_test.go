package experiments

import (
	"strings"
	"testing"

	"agilemig/internal/cluster"
	"agilemig/internal/core"
)

// The experiments run here at a tenth of the paper's scale: every shape
// assertion below is one the paper's evaluation makes at full scale.
// Under -short the scenarios shrink further (shortScale); the shapes still
// hold there, they are just less pronounced.

func shortScale(normal, short float64) float64 {
	if testing.Short() {
		return short
	}
	return normal
}

func TestPressureTimelineShapes(t *testing.T) {
	t.Parallel()
	results := map[core.Technique]*PressureResult{}
	for _, tech := range []core.Technique{core.PreCopy, core.PostCopy, core.Agile} {
		cfg := DefaultPressureConfig(tech)
		cfg.Scale = shortScale(0.1, 0.05)
		cfg.Duration = 2500 // stretch the window so even pre-copy completes
		r := RunPressureTimeline(cfg)
		if r.Migration == nil || r.Migration.End == 0 {
			t.Fatalf("%v migration did not complete", tech)
		}
		results[tech] = r
	}
	pre, post, agile := results[core.PreCopy], results[core.PostCopy], results[core.Agile]

	// Migration-time ordering (Table II / §V-A): agile < post < pre.
	if !(agile.Migration.TotalSeconds < post.Migration.TotalSeconds &&
		post.Migration.TotalSeconds < pre.Migration.TotalSeconds) {
		t.Errorf("migration time ordering: pre %.1f post %.1f agile %.1f",
			pre.Migration.TotalSeconds, post.Migration.TotalSeconds, agile.Migration.TotalSeconds)
	}
	// Data ordering (Table III): agile least.
	if !(agile.Migration.BytesTransferred < post.Migration.BytesTransferred) {
		t.Errorf("agile transferred %d >= post %d",
			agile.Migration.BytesTransferred, post.Migration.BytesTransferred)
	}
	// The collapse is real: every timeline dips well below its peak.
	for tech, r := range results {
		if min := minSmoothed(r); min > 0.5*r.PeakOps {
			t.Errorf("%v: no pressure collapse visible (min %.0f, peak %.0f)", tech, min, r.PeakOps)
		}
	}
	// Recovery ordering (§V-A: 533/294/215 s): agile recovers first.
	if agile.RecoverySeconds <= 0 {
		t.Fatal("agile never recovered to 90% of peak")
	}
	if post.RecoverySeconds > 0 && agile.RecoverySeconds >= post.RecoverySeconds {
		t.Errorf("recovery ordering: agile %.1fs >= post %.1fs", agile.RecoverySeconds, post.RecoverySeconds)
	}
	if pre.RecoverySeconds > 0 && post.RecoverySeconds > 0 && post.RecoverySeconds >= pre.RecoverySeconds {
		t.Errorf("recovery ordering: post %.1fs >= pre %.1fs", post.RecoverySeconds, pre.RecoverySeconds)
	}
}

func minSmoothed(r *PressureResult) float64 {
	sm := r.AvgThroughput.Smoothed(5)
	min := r.PeakOps
	for _, p := range sm.Points {
		if p.V < min {
			min = p.V
		}
	}
	return min
}

func TestSizeSweepShapes(t *testing.T) {
	cfg := DefaultSizeSweepConfig()
	cfg.Scale = shortScale(0.1, 0.05)
	cfg.VMSizes = []int64{2 * cluster.GiB, 6 * cluster.GiB, 12 * cluster.GiB}
	cfg.Busy = false
	rows := RunSizeSweep(cfg)

	get := func(tech core.Technique, size int64) SizeSweepRow {
		for _, r := range rows {
			if r.Technique == tech && r.VMBytes == size && !r.Busy {
				return r
			}
		}
		t.Fatalf("missing row %v %d", tech, size)
		return SizeSweepRow{}
	}
	for _, tech := range cfg.Techniques {
		for _, size := range cfg.VMSizes {
			if !get(tech, size).Completed() {
				t.Fatalf("%v at %dGB did not complete", tech, size/cluster.GiB)
			}
		}
	}
	// Fig. 8: pre/post data grows ~linearly with VM size; Agile's data is
	// flat once the VM exceeds host memory (6 GB).
	for _, tech := range []core.Technique{core.PreCopy, core.PostCopy} {
		d6, d12 := get(tech, 6*cluster.GiB).DataMB, get(tech, 12*cluster.GiB).DataMB
		if d12 < 1.6*d6 {
			t.Errorf("%v data not linear: 6GB=%.0f 12GB=%.0f", tech, d6, d12)
		}
	}
	a6, a12 := get(core.Agile, 6*cluster.GiB).DataMB, get(core.Agile, 12*cluster.GiB).DataMB
	if a12 > 1.35*a6 {
		t.Errorf("agile data not flat past host size: 6GB=%.0f 12GB=%.0f", a6, a12)
	}
	// Fig. 7: Agile's migration time is also ~flat past host memory, and at
	// 12 GB it beats both baselines.
	t6, t12 := get(core.Agile, 6*cluster.GiB).TotalSeconds, get(core.Agile, 12*cluster.GiB).TotalSeconds
	if t12 > 1.5*t6 {
		t.Errorf("agile time not flat past host size: 6GB=%.1f 12GB=%.1f", t6, t12)
	}
	if a := get(core.Agile, 12*cluster.GiB).TotalSeconds; a >= get(core.PreCopy, 12*cluster.GiB).TotalSeconds ||
		a >= get(core.PostCopy, 12*cluster.GiB).TotalSeconds {
		t.Errorf("agile not fastest at 12GB: agile %.1f pre %.1f post %.1f",
			a, get(core.PreCopy, 12*cluster.GiB).TotalSeconds, get(core.PostCopy, 12*cluster.GiB).TotalSeconds)
	}
}

func TestSizeSweepBusyCostsMore(t *testing.T) {
	cfg := DefaultSizeSweepConfig()
	cfg.Scale = shortScale(0.1, 0.05)
	// The busy-VM penalty appears once the VM far outgrows host memory
	// (§V-B's "sudden increase" past 6 GB): at 12 GB the working-set
	// rotation can no longer prefetch pages faster than the scan needs
	// them, and retransmission compounds.
	cfg.VMSizes = []int64{12 * cluster.GiB}
	cfg.Techniques = []core.Technique{core.PreCopy}
	rows := RunSizeSweep(cfg)
	var idle, busy SizeSweepRow
	for _, r := range rows {
		if r.Busy {
			busy = r
		} else {
			idle = r
		}
	}
	if !idle.Completed() || !busy.Completed() {
		t.Fatal("sweep points incomplete")
	}
	// §V-B: the busy VM must retransmit more dirty pages, so it transfers
	// more data and takes longer.
	if busy.DataMB <= idle.DataMB {
		t.Errorf("busy pre-copy data %.0f <= idle %.0f", busy.DataMB, idle.DataMB)
	}
	if busy.TotalSeconds <= idle.TotalSeconds {
		t.Errorf("busy pre-copy time %.1f <= idle %.1f", busy.TotalSeconds, idle.TotalSeconds)
	}
}

func TestAppPerfSysbenchShapes(t *testing.T) {
	res := map[core.Technique]*AppPerfResult{}
	for _, tech := range []core.Technique{core.PreCopy, core.PostCopy, core.Agile} {
		res[tech] = RunAppPerf(AppPerfConfig{
			Workload: WorkloadSysbench, Technique: tech, Scale: shortScale(0.1, 0.05), Seed: 1,
		})
	}
	// Table I ordering: applications perform best with Agile, worst with
	// pre-copy.
	if !(res[core.Agile].AvgOpsPerSec > res[core.PostCopy].AvgOpsPerSec &&
		res[core.PostCopy].AvgOpsPerSec > res[core.PreCopy].AvgOpsPerSec) {
		t.Errorf("Table I ordering: pre %.2f post %.2f agile %.2f",
			res[core.PreCopy].AvgOpsPerSec, res[core.PostCopy].AvgOpsPerSec, res[core.Agile].AvgOpsPerSec)
	}
	// Table II ordering for the cells that completed.
	if res[core.Agile].Completed() && res[core.PostCopy].Completed() {
		if res[core.Agile].Migration.TotalSeconds >= res[core.PostCopy].Migration.TotalSeconds {
			t.Errorf("Table II ordering: agile %.1f >= post %.1f",
				res[core.Agile].Migration.TotalSeconds, res[core.PostCopy].Migration.TotalSeconds)
		}
	}
	// Table III: agile transfers the least.
	if res[core.Agile].Migration.BytesTransferred >= res[core.PostCopy].Migration.BytesTransferred {
		t.Errorf("Table III ordering: agile %d >= post %d",
			res[core.Agile].Migration.BytesTransferred, res[core.PostCopy].Migration.BytesTransferred)
	}
}

func TestWSSTrackingShape(t *testing.T) {
	cfg := DefaultWSSTrackConfig()
	cfg.Scale = shortScale(0.25, 0.1)
	r := RunWSSTracking(cfg)
	// Fig. 9: the reservation converges to the working set (the dataset)
	// within a tolerance band.
	if r.FinalReservationMB < 0.7*r.DatasetMB || r.FinalReservationMB > 1.6*r.DatasetMB {
		t.Errorf("final reservation %.0f MB, working set %.0f MB", r.FinalReservationMB, r.DatasetMB)
	}
	// Fig. 10: the client recovers — steady state near peak.
	if r.MeanThroughputAfterConvergence < 0.6*r.PeakThroughput {
		t.Errorf("steady throughput %.0f far below peak %.0f",
			r.MeanThroughputAfterConvergence, r.PeakThroughput)
	}
	// The series must actually descend from 5 GB toward the working set.
	first := r.Reservation.Points[0].V
	if first < 2*r.DatasetMB {
		t.Errorf("reservation started at %.0f MB; expected well above the %0.f MB working set", first, r.DatasetMB)
	}
}

func TestAblationActivePush(t *testing.T) {
	r := RunAblationActivePush(shortScale(0.1, 0.05), 1)
	if r.WithPushSeconds <= 0 {
		t.Fatal("with-push run did not complete")
	}
	if r.WithoutPushCompleted {
		t.Error("demand-only migration completed; it should be unbounded")
	}
	if r.WithoutPushResidualPages == 0 {
		t.Error("demand-only migration left no residual; push would be pointless")
	}
}

func TestAblationRemoteSwap(t *testing.T) {
	r := RunAblationRemoteSwap(shortScale(0.1, 0.05), 1)
	if r.AgileSeconds <= 0 || !r.NoRemoteDone {
		t.Fatalf("runs incomplete: agile %.1f, noremote done %v", r.AgileSeconds, r.NoRemoteDone)
	}
	// Regression (outcomecheck sweep): the full verdict must survive, not
	// just the collapsed bool — a timed-out and an aborted run used to be
	// indistinguishable here.
	if r.NoRemoteOutcome != cluster.OutcomeCompleted {
		t.Fatalf("NoRemoteOutcome = %v, want OutcomeCompleted to match NoRemoteDone", r.NoRemoteOutcome)
	}
	if r.NoRemoteMB <= r.AgileMB {
		t.Errorf("no-remote-swap transferred %.0f MB <= agile %.0f MB", r.NoRemoteMB, r.AgileMB)
	}
	if r.NoRemoteSecs <= r.AgileSeconds {
		t.Errorf("no-remote-swap took %.1fs <= agile %.1fs", r.NoRemoteSecs, r.AgileSeconds)
	}
	if r.AgileOffsetRec == 0 {
		t.Error("agile sent no offset records; scenario has no cold pages")
	}
}

func TestAblationPlacement(t *testing.T) {
	r := RunAblationPlacement(1)
	if r.BlindRetries <= r.LoadAwareRetries {
		t.Errorf("blind RR retries %d <= load-aware %d; hints are not helping",
			r.BlindRetries, r.LoadAwareRetries)
	}
}

func TestAblationWatermark(t *testing.T) {
	rows := RunAblationWatermark(1)
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Fired == 0 || r.Migrated == 0 {
			t.Errorf("gap %d GiB: trigger never fired", r.GapBytes/cluster.GiB)
		}
	}
	// A wider gap migrates more VMs per firing, so it needs fewer firings.
	if rows[0].Fired <= rows[2].Fired {
		t.Errorf("narrow gap fired %d times, wide gap %d; expected narrow > wide",
			rows[0].Fired, rows[2].Fired)
	}
}

func TestPrintersProduceOutput(t *testing.T) {
	cfg := DefaultPressureConfig(core.Agile)
	cfg.Scale = 0.05
	r := RunPressureTimeline(cfg)
	var sb strings.Builder
	r.Print(&sb)
	if !strings.Contains(sb.String(), "agile") {
		t.Error("pressure Print output incomplete")
	}
	sb.Reset()
	if err := r.WriteCSV(&sb); err != nil || !strings.Contains(sb.String(), "avg.ops") {
		t.Errorf("csv output wrong: %v", err)
	}
}

func TestScaleHelpers(t *testing.T) {
	if got := scaleBytes(8192, 0.5); got != 4096 {
		t.Fatalf("scaleBytes = %d", got)
	}
	if got := scaleBytes(100, 0.001); got != 4096 {
		t.Fatalf("scaleBytes floor = %d", got)
	}
	if got := scaleBytes(10*cluster.GiB, 1); got != 10*cluster.GiB {
		t.Fatalf("identity scale = %d", got)
	}
	if got := scaleSeconds(100, 0.25); got != 25 {
		t.Fatalf("scaleSeconds = %v", got)
	}
	if got := scaleSeconds(1, 0.001); got != 1 {
		t.Fatalf("scaleSeconds floor = %v", got)
	}
}

func TestAblationAutoConverge(t *testing.T) {
	r := RunAblationAutoConverge(shortScale(0.1, 0.05), 1)
	if r.BaselineRounds < 0 || r.ThrottledRounds < 0 {
		t.Fatal("a run did not complete")
	}
	if r.ThrottleEvents == 0 {
		t.Fatal("auto-converge never throttled a non-converging round")
	}
	// §VI's trade-off: throttling converges faster (or in fewer rounds)
	// but costs application throughput during the migration.
	if r.ThrottledSeconds >= r.BaselineSeconds && r.ThrottledRounds >= r.BaselineRounds {
		t.Errorf("throttling did not speed convergence: %.1fs/%d rounds vs %.1fs/%d rounds",
			r.ThrottledSeconds, r.ThrottledRounds, r.BaselineSeconds, r.BaselineRounds)
	}
	if r.ThrottledOpsRate >= r.BaselineOpsRate {
		t.Errorf("throttling did not cost throughput: %.0f >= %.0f ops/s",
			r.ThrottledOpsRate, r.BaselineOpsRate)
	}
}

// TestAgilePressureSmallScales runs the Figure 6 timeline at the small
// scales where reclaim re-evicts a page whose cancelled write-back is still
// in flight. The VMD namespace maps a page to the same slot every time, so
// both write-backs would share it and the second completion would free a
// slot the swap table still points at.
func TestAgilePressureSmallScales(t *testing.T) {
	if testing.Short() {
		t.Skip("a minute under -race; CI runs it in its own step without -race")
	}
	t.Parallel()
	for _, scale := range []float64{0.005, 0.0075} {
		cfg := DefaultPressureConfig(core.Agile)
		cfg.Scale = scale
		cfg.Seed = 1
		if r := RunPressureTimeline(cfg); r.Migration == nil || r.Migration.TotalSeconds <= 0 {
			t.Errorf("scale %v: migration did not complete: %+v", scale, r.Migration)
		}
	}
}
