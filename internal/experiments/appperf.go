package experiments

import (
	"fmt"
	"io"

	"agilemig/internal/cluster"
	"agilemig/internal/core"
	"agilemig/internal/dist"
	"agilemig/internal/workload"
)

// WorkloadKind selects the Tables I-III workload.
type WorkloadKind int

// The two workloads of §V-C.
const (
	WorkloadYCSB WorkloadKind = iota
	WorkloadSysbench
)

// String names the workload as the paper's tables do.
func (k WorkloadKind) String() string {
	if k == WorkloadSysbench {
		return "Sysbench (Trans/s)"
	}
	return "YCSB/Redis (Ops/s)"
}

// AppPerfConfig shapes one Tables I-III cell: 4 VMs under memory pressure,
// one migrated with the given technique, application performance averaged
// across all 4 clients through the migration.
type AppPerfConfig struct {
	Workload  WorkloadKind
	Technique core.Technique
	Scale     float64
	Seed      uint64
}

// measureSeconds is the measurement window from migration start (§V-C
// uses 300 s); the window extends to the migration's end if the migration
// takes longer.
const measureSeconds = 300

// AppPerfResult is one workload×technique measurement.
type AppPerfResult struct {
	Workload  WorkloadKind
	Technique core.Technique
	// AvgOpsPerSec is the Table I number: average per-VM application
	// throughput during the measurement window.
	AvgOpsPerSec float64
	// Migration carries Table II (TotalSeconds) and Table III
	// (BytesTransferred).
	Migration *core.Result
	// Outcome distinguishes a finished migration from one that timed out
	// or was rolled back; the tables annotate the latter two differently.
	Outcome cluster.Outcome
}

// Completed reports whether the migration finished (source drained).
//
//lint:outcomecheck derived view; the full verdict stays in r.Outcome
func (r *AppPerfResult) Completed() bool { return r.Outcome == cluster.OutcomeCompleted }

// RunAppPerf executes one cell.
func RunAppPerf(cfg AppPerfConfig) *AppPerfResult {
	s := cfg.Scale
	if s <= 0 {
		s = 1
	}
	agile := cfg.Technique == core.Agile

	tcfg := cluster.DefaultConfig()
	tcfg.Seed = cfg.Seed
	tcfg.HostRAMBytes = scaleBytes(PaperHostRAM, s)
	tcfg.SwapPartitionBytes = scaleBytes(30*cluster.GiB, s)
	tcfg.IntermediateRAMBytes = scaleBytes(100*cluster.GiB, s)
	tb := cluster.New(tcfg)

	vmMem := scaleBytes(PaperVMMem, s)
	resv := scaleBytes(PaperReservation, s)

	var dataset int64
	var ccfg workload.ClientConfig
	var queried int64
	recSize := int64(1024)
	if cfg.Workload == WorkloadSysbench {
		dataset = scaleBytes(PaperSysbenchDataset, s)
		ccfg = sysbenchClient()
		queried = dataset
	} else {
		dataset = scaleBytes(PaperYCSBDataset, s)
		ccfg = ycsbClient()
		queried = scaleBytes(PaperLargeFraction, s)
	}

	var handles []*cluster.VMHandle
	for i := 0; i < PaperNumVMs; i++ {
		h := tb.DeployVM(fmt.Sprintf("vm%d", i+1), vmMem, resv, agile)
		h.LoadDataset(dataset)
		// Both workloads touch their queried range uniformly: YCSB by
		// §V-A's configuration, OLTP because Sysbench's row selection
		// spreads across the table's leaf pages.
		h.AttachClient(ccfg, dist.NewUniform(queried/recSize))
		handles = append(handles, h)
	}

	// Settle: load-time reclaim plus working-set warmup under pressure.
	tb.RunSeconds(scaleSeconds(300, s))

	victim := handles[0]
	startOps := tb.AggregateOps()
	startT := tb.Eng.NowSeconds()
	destResv := scaleBytes(7*cluster.GiB, s)
	mustMigrate(tb, victim, cfg.Technique, destResv)
	done := tb.RunUntilMigrated(victim, scaleSeconds(4000, s))
	// Rebalance as the cluster manager would, then keep measuring until
	// the window closes.
	tb.RebalanceSource(destResv)
	window := scaleSeconds(measureSeconds, s)
	elapsed := tb.Eng.NowSeconds() - startT
	if elapsed < window {
		tb.RunSeconds(window - elapsed)
		elapsed = window
	}
	totalOps := tb.AggregateOps() - startOps

	res := &AppPerfResult{
		Workload:     cfg.Workload,
		Technique:    cfg.Technique,
		AvgOpsPerSec: float64(totalOps) / elapsed / PaperNumVMs,
		Outcome:      done,
	}
	if victim.Result != nil {
		res.Migration = victim.Result
	} else if victim.Migration != nil {
		res.Migration = victim.Migration.Result()
	}
	return res
}

// RunAppPerfTables runs all six cells of Tables I-III. Every cell is an
// independent scenario (own testbed, own seeded engine), so the cells fan
// out across workers (0 or omitted = all cores, 1 = serial); results come
// back in the fixed workload×technique order regardless of parallelism.
func RunAppPerfTables(scale float64, seed uint64, parallelism ...int) []*AppPerfResult {
	var cfgs []AppPerfConfig
	for _, wk := range []WorkloadKind{WorkloadYCSB, WorkloadSysbench} {
		for _, tech := range []core.Technique{core.PreCopy, core.PostCopy, core.Agile} {
			cfgs = append(cfgs, AppPerfConfig{
				Workload: wk, Technique: tech, Scale: scale, Seed: seed,
			})
		}
	}
	return runPoints(par(parallelism), len(cfgs), func(i int) *AppPerfResult {
		return RunAppPerf(cfgs[i])
	})
}

// PrintAppPerfTables renders Tables I, II and III from the six cells.
func PrintAppPerfTables(w io.Writer, results []*AppPerfResult) {
	cell := func(wk WorkloadKind, tech core.Technique) *AppPerfResult {
		for _, r := range results {
			if r.Workload == wk && r.Technique == tech {
				return r
			}
		}
		return nil
	}
	techs := []core.Technique{core.PreCopy, core.PostCopy, core.Agile}
	printTable := func(title string, value func(*AppPerfResult) string) {
		fmt.Fprintln(w, title)
		fmt.Fprintf(w, "%-22s%12s%12s%12s\n", "", "Pre-copy", "Post-copy", "Agile")
		for _, wk := range []WorkloadKind{WorkloadYCSB, WorkloadSysbench} {
			fmt.Fprintf(w, "%-22s", wk)
			for _, tech := range techs {
				v := "-"
				if r := cell(wk, tech); r != nil {
					v = value(r)
				}
				fmt.Fprintf(w, "%12s", v)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}
	printTable("Table I: average application performance across all 4 VMs", func(r *AppPerfResult) string {
		return fmt.Sprintf("%.2f", r.AvgOpsPerSec)
	})
	printTable("Table II: total migration time (seconds)", func(r *AppPerfResult) string {
		if r.Migration == nil {
			return "-"
		}
		if r.Outcome == cluster.OutcomeAborted {
			return "aborted"
		}
		if !r.Completed() {
			return ">timeout"
		}
		return fmt.Sprintf("%.2f", r.Migration.TotalSeconds)
	})
	printTable("Table III: amount of data transferred (MB)", func(r *AppPerfResult) string {
		if r.Migration == nil {
			return "-"
		}
		return fmt.Sprintf("%.0f", float64(r.Migration.BytesTransferred)/1e6)
	})
}
