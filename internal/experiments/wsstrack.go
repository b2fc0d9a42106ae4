package experiments

import (
	"fmt"
	"io"

	"agilemig/internal/cluster"
	"agilemig/internal/dist"
	"agilemig/internal/mem"
	"agilemig/internal/metrics"
	"agilemig/internal/wss"
)

// WSSTrackConfig shapes the §V-D experiment (Figures 9-10): one VM with
// 5 GB memory and a 1.5 GB Redis dataset on a 128 GB host; the tracker
// shrinks the 5 GB reservation until it hugs the working set while a YCSB
// client measures the performance impact.
type WSSTrackConfig struct {
	Scale    float64
	Seed     uint64
	Duration float64 // seconds (scaled); default 600
	// Tracker overrides DefaultTrackerConfig when non-zero. The paper uses
	// α=0.95, β=1.03, τ=4 KB/s.
	Tracker wss.TrackerConfig
}

// DefaultWSSTrackConfig returns the paper's setup.
func DefaultWSSTrackConfig() WSSTrackConfig {
	return WSSTrackConfig{Scale: 1, Seed: 1, Duration: 600, Tracker: wss.DefaultTrackerConfig()}
}

// WSSTrackResult carries the Figure 9 and 10 series.
type WSSTrackResult struct {
	// Reservation is the tracked reservation over time in MB (Fig. 9).
	Reservation *metrics.Series
	// ResidentMB is the VM's actual in-RAM footprint over time.
	ResidentMB *metrics.Series
	// Throughput is the YCSB client's ops/s over time (Fig. 10).
	Throughput *metrics.Series
	// DatasetMB is the working-set ground truth.
	DatasetMB float64
	// FinalReservationMB is the converged estimate.
	FinalReservationMB float64
	// Stable reports whether the tracker reached the slow interval.
	Stable bool
	// MeanThroughputAfterConvergence measures the Fig. 10 steady state.
	MeanThroughputAfterConvergence float64
	// PeakThroughput is the smoothed peak for comparison.
	PeakThroughput float64
}

// RunWSSTracking executes the experiment.
func RunWSSTracking(cfg WSSTrackConfig) *WSSTrackResult {
	s := cfg.Scale
	if s <= 0 {
		s = 1
	}
	if cfg.Duration == 0 {
		cfg.Duration = 600
	}
	tcfg := cluster.DefaultConfig()
	tcfg.Seed = cfg.Seed
	tcfg.HostRAMBytes = scaleBytes(128*cluster.GiB, s)
	tcfg.IntermediateRAMBytes = scaleBytes(32*cluster.GiB, s)
	tb := cluster.New(tcfg)

	vmMem := scaleBytes(5*cluster.GiB, s)
	dataset := scaleBytes(1536*cluster.MiB, s)
	h := tb.DeployVM("vm1", vmMem, vmMem, true) // per-VM VMD swap; reservation starts at 5 GB
	h.LoadDataset(dataset)
	ccfg := ycsbClient()
	h.AttachClient(ccfg, dist.NewUniform(h.Store.Records()))

	// Sample the reservation, the resident footprint and the client's
	// completed-op count; the throughput rate is derived after the run.
	reg := metrics.NewRegistry()
	reg.Gauge("reservation.mb", func() float64 {
		return float64(h.VM.Group().ReservationBytes()) / float64(cluster.MiB)
	})
	reg.Gauge("resident.mb", func() float64 {
		return mem.PagesToMiB(h.VM.Table().InRAM())
	})
	reg.Gauge("ycsb.ops", func() float64 {
		return float64(h.Client.OpsCompleted())
	})
	base := tb.Eng.NowSeconds()
	reg.StartSampling(tb.Eng, scaleSeconds(2, s))

	// Warm the working set before tracking begins.
	tb.RunSeconds(scaleSeconds(60, s))
	tcfgW := cfg.Tracker
	if tcfgW.Alpha == 0 {
		tcfgW = wss.DefaultTrackerConfig()
	}
	tcfgW.FastInterval = scaleSeconds(tcfgW.FastInterval, s)
	tcfgW.SlowInterval = scaleSeconds(tcfgW.SlowInterval, s)
	tracker := h.TrackWSS(tcfgW)

	tb.RunSeconds(scaleSeconds(cfg.Duration, s))

	res := &WSSTrackResult{
		Reservation: reg.SeriesFor("reservation.mb"),
		ResidentMB:  reg.SeriesFor("resident.mb"),
		Throughput:  metrics.Rate(reg.SeriesFor("ycsb.ops"), base),
		DatasetMB:   float64(dataset) / float64(cluster.MiB),
	}
	res.FinalReservationMB = float64(tracker.EstimateBytes()) / float64(cluster.MiB)
	res.Stable = tracker.Stable()
	res.PeakThroughput = res.Throughput.MaxSmoothed(5)
	// Steady state: the last quarter of the run.
	t1 := tb.Eng.NowSeconds()
	if m, ok := res.Throughput.MeanBetween(t1-scaleSeconds(cfg.Duration, s)/4, t1); ok {
		res.MeanThroughputAfterConvergence = m
	}
	return res
}

// Print renders Figures 9 and 10 as ASCII plots with summary lines.
func (r *WSSTrackResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Figure 9: dynamic WSS tracking (reservation, MB)")
	fmt.Fprint(w, metrics.AsciiPlot(r.Reservation, 20, 48))
	fmt.Fprintf(w, "dataset (ground truth): %.0f MB; final reservation: %.0f MB; stable: %v\n\n",
		r.DatasetMB, r.FinalReservationMB, r.Stable)
	fmt.Fprintln(w, "Figure 10: YCSB throughput while the reservation adapts")
	fmt.Fprint(w, metrics.AsciiPlot(r.Throughput, 20, 48))
	fmt.Fprintf(w, "peak %.0f ops/s; steady state after convergence %.0f ops/s\n",
		r.PeakThroughput, r.MeanThroughputAfterConvergence)
}

// WriteCSV emits both series.
func (r *WSSTrackResult) WriteCSV(w io.Writer) error {
	return metrics.WriteSeriesCSV(w, r.Reservation, r.ResidentMB, r.Throughput)
}
