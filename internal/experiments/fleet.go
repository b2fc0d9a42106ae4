package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"agilemig/internal/cluster"
	"agilemig/internal/metrics"
)

// FleetOptions shapes the `fleet` experiment: the 64-host staggered
// evacuation from cluster.Fleet, the workload the sharded-kernel scaling
// benchmark runs. Scale multiplies memory sizes and the warmup exactly as
// in the paper experiments.
type FleetOptions struct {
	Cells  int
	Shards int
	Seed   uint64
	Scale  float64
	// MaxSeconds bounds the run in simulated time (default 600).
	MaxSeconds float64
	// Observe attaches per-cell trace/metrics sinks (required for the
	// -trace-jsonl / -metrics-out outputs).
	Observe       bool
	TraceCapacity int

	DisableFastForward bool
}

// DefaultFleetOptions mirrors cluster.DefaultFleetConfig at scale 1.
func DefaultFleetOptions() FleetOptions {
	return FleetOptions{
		Cells:      32,
		Shards:     1,
		Seed:       1,
		Scale:      1,
		MaxSeconds: 600,
	}
}

// FleetReport is the evacuation outcome plus the fleet itself (kept alive
// so callers can export the merged observability streams).
type FleetReport struct {
	Rows       []cluster.FleetRow
	Result     cluster.EvacuationResult
	SimSeconds float64
	Fleet      *cluster.Fleet
}

// RunFleet builds and runs the evacuation. Results are byte-identical at
// any Shards value and GOMAXPROCS, which the behaviour baseline's shard
// cells and the CI matrix both diff.
func RunFleet(opt FleetOptions) FleetReport {
	if opt.Scale <= 0 {
		opt.Scale = 1
	}
	if opt.MaxSeconds <= 0 {
		opt.MaxSeconds = 600
	}
	return runScaledFleet(opt.Scale, opt.MaxSeconds, func(cfg *cluster.FleetConfig) {
		if opt.Cells > 0 {
			cfg.Cells = opt.Cells
		}
		if opt.Shards > 0 {
			cfg.Shards = opt.Shards
		}
		cfg.Seed = opt.Seed
		cfg.Observe = opt.Observe
		cfg.TraceCapacity = opt.TraceCapacity
		cfg.DisableFastForward = opt.DisableFastForward
	})
}

// runScaledFleet runs an evacuation of cluster.DefaultFleetConfig with its
// memory sizes and warmup multiplied by scale; set fills in the caller's
// remaining fields before the fleet is built.
func runScaledFleet(scale, maxSeconds float64, set func(cfg *cluster.FleetConfig)) FleetReport {
	cfg := cluster.DefaultFleetConfig()
	cfg.HostRAMBytes = scaleBytes(cfg.HostRAMBytes, scale)
	cfg.VMMemBytes = scaleBytes(cfg.VMMemBytes, scale)
	cfg.DatasetBytes = scaleBytes(cfg.DatasetBytes, scale)
	cfg.ReservationBytes = scaleBytes(cfg.ReservationBytes, scale)
	cfg.IntermediateRAMBytes = scaleBytes(cfg.IntermediateRAMBytes, scale)
	cfg.WarmupSeconds = scaleSeconds(cfg.WarmupSeconds, scale)
	set(&cfg)

	f := cluster.NewFleet(cfg)
	res := f.RunEvacuation(maxSeconds)
	return FleetReport{
		Rows:       f.Rows(),
		Result:     res,
		SimSeconds: f.Group.Engine(0).NowSeconds(),
		Fleet:      f,
	}
}

// PrintFleet renders the evacuation rows plus an aggregate line.
func PrintFleet(w io.Writer, rep FleetReport) {
	table := metrics.NewTable(
		fmt.Sprintf("Fleet evacuation: %d cells (%d hosts)", len(rep.Rows), 2*len(rep.Rows)),
		"cell", "start (s)", "total (s)", "downtime (s)", "data (MB)", "ops done", "outcome")
	var totalBytes, totalOps int64
	var maxDone, sumTotal, sumDown float64
	for _, r := range rep.Rows {
		outcome := r.Outcome
		if r.Reason != "" {
			outcome += " (" + r.Reason + ")"
		}
		table.AddF(r.Cell,
			fmt.Sprintf("%.2f", r.StartedAtSeconds),
			fmt.Sprintf("%.2f", r.TotalSeconds),
			fmt.Sprintf("%.3f", r.DowntimeSeconds),
			fmt.Sprintf("%.0f", float64(r.BytesTransferred)/1e6),
			r.OpsAtComplete, outcome)
		totalBytes += r.BytesTransferred
		totalOps += r.OpsAtComplete
		sumTotal += r.TotalSeconds
		sumDown += r.DowntimeSeconds
		if r.DoneAtSeconds > maxDone {
			maxDone = r.DoneAtSeconds
		}
	}
	fmt.Fprint(w, table.String())
	n := float64(len(rep.Rows))
	if n > 0 {
		fmt.Fprintf(w, "evacuated %d VMs in %.1fs of simulated time: mean total %.2fs, mean downtime %.3fs, %.0f MB moved, %d client ops served\n",
			len(rep.Rows), maxDone, sumTotal/n, sumDown/n, float64(totalBytes)/1e6, totalOps)
	}
	if !rep.Result.Success() {
		fmt.Fprintf(w, "WARNING: %s after %.1fs simulated\n", rep.Result, rep.SimSeconds)
	}
}

// WriteFleetCSV writes the rows as CSV — one deterministic line per cell,
// in cell order, used by the CI shard-equivalence diff.
func WriteFleetCSV(w io.Writer, rows []cluster.FleetRow) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"cell", "started_s", "done_s", "total_s", "downtime_s", "bytes", "ops", "outcome", "reason"}); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{
			r.Cell,
			fmt.Sprintf("%.3f", r.StartedAtSeconds),
			fmt.Sprintf("%.3f", r.DoneAtSeconds),
			fmt.Sprintf("%.3f", r.TotalSeconds),
			fmt.Sprintf("%.3f", r.DowntimeSeconds),
			strconv.FormatInt(r.BytesTransferred, 10),
			strconv.FormatInt(r.OpsAtComplete, 10),
			r.Outcome,
			r.Reason,
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
