package experiments

import (
	"agilemig/internal/cluster"
	"agilemig/internal/core"
	"agilemig/internal/dist"
	"agilemig/internal/metrics"
	"agilemig/internal/sim"
	"agilemig/internal/trace"
	"agilemig/internal/vmd"
	"agilemig/internal/workload"
)

// QuickstartConfig shapes the quickstart scenario: one loaded VM migrated
// with each technique on a fresh testbed (the examples/quickstart
// comparison, packaged so the CLI and the observability tests share it).
type QuickstartConfig struct {
	Scale float64
	Seed  uint64
	// Techniques defaults to PreCopy, PostCopy, Agile.
	Techniques []core.Technique

	// Trace/Metrics, when non-nil, attach to the Agile run only: each
	// technique gets a fresh testbed whose sim clock restarts at zero, so a
	// shared bus would interleave three timelines.
	Trace   *trace.Trace
	Metrics *metrics.Registry

	DisableFastForward bool

	// Faults, when non-empty, is injected into every technique's testbed
	// (each gets its own clock, so the schedule replays per run); Replicas
	// sets the VMD replication factor. Both default to off, keeping the
	// runs byte-identical to builds without fault support.
	Faults   *sim.FaultPlan
	Replicas int

	// VMD selects the far-memory store's v2 mechanisms for every testbed;
	// the zero value is the flat v1 store (byte-identical).
	VMD vmd.StoreConfig
}

// DefaultQuickstartConfig returns the quickstart scenario at the given
// scale: a 2 GiB VM with a 1.5 GiB dataset and a 768 MiB reservation on a
// 6 GiB host, all multiplied by Scale.
func DefaultQuickstartConfig() QuickstartConfig {
	return QuickstartConfig{
		Scale:      1,
		Seed:       1,
		Techniques: []core.Technique{core.PreCopy, core.PostCopy, core.Agile},
	}
}

// QuickstartResult is one technique's migration outcome plus the testbed it
// ran on (kept alive so the caller can summarize the observed run).
type QuickstartResult struct {
	Result  core.Result
	Testbed *cluster.Testbed
}

// RunQuickstart migrates the quickstart VM once per technique and returns
// the results in technique order. Runs are sequential and independent; the
// configured Trace/Metrics observe only the Agile run.
func RunQuickstart(cfg QuickstartConfig) []QuickstartResult {
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	if len(cfg.Techniques) == 0 {
		cfg.Techniques = []core.Technique{core.PreCopy, core.PostCopy, core.Agile}
	}
	var out []QuickstartResult
	for _, tech := range cfg.Techniques {
		ccfg := cluster.DefaultConfig()
		ccfg.Seed = cfg.Seed
		ccfg.HostRAMBytes = scaleBytes(6*cluster.GiB, cfg.Scale)
		ccfg.IntermediateRAMBytes = scaleBytes(16*cluster.GiB, cfg.Scale)
		ccfg.DisableFastForward = cfg.DisableFastForward
		ccfg.Faults = cfg.Faults
		ccfg.Replicas = cfg.Replicas
		ccfg.VMD = cfg.VMD
		if tech == core.Agile {
			ccfg.Trace = cfg.Trace
			ccfg.Metrics = cfg.Metrics
		}
		tb := cluster.New(ccfg)

		agile := tech == core.Agile || tech == core.ScatterGather
		vm := tb.DeployVM("demo", scaleBytes(2*cluster.GiB, cfg.Scale),
			scaleBytes(768*cluster.MiB, cfg.Scale), agile)
		vm.LoadDataset(scaleBytes(1536*cluster.MiB, cfg.Scale))

		wcfg := workload.YCSB()
		wcfg.MaxOpsPerSecond = 10_000
		wcfg.WriteFraction = 0.05
		vm.AttachClient(wcfg, dist.NewUniform(vm.Store.Records()))

		tb.RunSeconds(scaleSeconds(120, cfg.Scale))
		mustMigrate(tb, vm, tech, scaleBytes(768*cluster.MiB, cfg.Scale))
		if tb.RunUntilMigrated(vm, 4000) != cluster.OutcomeCompleted {
			panic("experiments: quickstart migration did not finish: " + tech.String())
		}
		// Let demand-paging tails and sampled series settle briefly.
		tb.RunSeconds(scaleSeconds(10, cfg.Scale))
		out = append(out, QuickstartResult{Result: *vm.Result, Testbed: tb})
	}
	return out
}
