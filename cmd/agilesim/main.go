// Command agilesim reproduces the paper's evaluation. Each experiment id
// corresponds to one table or figure of "Agile Live Migration of Virtual
// Machines" (IPPS 2016); the output prints the same rows or series the
// paper reports.
//
// Usage:
//
//	agilesim [-scale f] [-seed n] [-csv file] [-parallel n]
//	         [-trace-out file] [-trace-jsonl file] [-metrics-out file]
//	         [-metrics-addr host:port] [-metrics-hold s]
//	         [-cpuprofile file] [-memprofile file] <experiment>
//	agilesim analyze -spans file.jsonl [-csv out.csv]
//	agilesim analyze -prom metrics.txt
//
// Experiments:
//
//	fig4       YCSB throughput timeline during pre-copy migration
//	fig5       YCSB throughput timeline during post-copy migration
//	fig6       YCSB throughput timeline during Agile migration
//	fig7       total migration time vs VM size (idle & busy, all techniques)
//	fig8       data transferred vs VM size (same sweep)
//	tables     Tables I-III (app performance, migration time, data volume)
//	fig9       transparent WSS tracking (reservation over time)
//	fig10      YCSB throughput while the reservation adapts
//	ablation   design-choice ablations (push, remote swap, placement, watermarks)
//	quickstart one loaded VM migrated with each technique (the observability demo)
//	recovery   Agile migration surviving a VMD server crash (K=1 vs K=2)
//	vmdsweep   VMD store-variant ladder (v1 flat / +batch / +prefetch / +ctier / +hash)
//	fleet      staggered 64-host evacuation on the sharded parallel kernel
//	all        everything above
//
// The -shards flag sets the parallel kernel width of the fleet experiment
// and of the drain experiment's rack phase (cluster.FleetConfig.Shards):
// each cell (set -cells to resize them) runs on its own engine, and -shards
// workers run those engines. Output is byte-identical at any -shards value
// and GOMAXPROCS — CI diffs exactly that matrix. The paper testbed is one
// network-arbitration domain, so every other experiment runs on one
// engine.
//
// The -faults flag injects a deterministic fault schedule into the
// quickstart runs (e.g. -faults crash:inter1@130+10,loss:source@125+5=0.2)
// and -replicas sets the VMD replication factor (for recovery it instead
// narrows the K=1-vs-K=2 comparison to the given K); both default to off,
// in which case the output is byte-identical to a build without fault
// support.
//
// The -trace-out flag writes a Chrome trace-event JSON file (open it in
// Perfetto or chrome://tracing) of the quickstart's observed run;
// -trace-jsonl writes the same events — plus the migration's span tree —
// as one JSON object per line, and -metrics-out writes the sampled metric
// series as JSONL. -metrics-addr serves the registry in Prometheus text
// format at http://<addr>/metrics while the run executes (snapshots are
// published at sampler ticks; scrapes never touch simulator state), and
// -metrics-hold keeps serving the final snapshot for that many wall-clock
// seconds after the run so a scraper can collect the end state.
//
// `agilesim analyze` post-processes a span JSONL log: per migration it
// reports the critical path (segments exactly tiling the migration
// window), downtime attribution against the VM-stopped window,
// demand-fault latency percentiles, and wasted work (retried faults,
// refuted prefetch windows); -prom instead validates a Prometheus
// exposition file with a strict text-format 0.0.4 parser.
//
// -scale 1.0 reproduces the paper's sizes (10 GB VMs, 23 GB hosts) and
// takes several wall-clock minutes; -scale 0.25 preserves every shape at a
// quarter of the size and a fraction of the cost.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"

	"agilemig/internal/cluster"
	"agilemig/internal/core"
	"agilemig/internal/dist"
	"agilemig/internal/experiments"
	"agilemig/internal/host"
	"agilemig/internal/metrics"
	"agilemig/internal/report"
	"agilemig/internal/sim"
	"agilemig/internal/trace"
	"agilemig/internal/workload"
)

// writeNamedFile creates path and runs write against it, exiting on error.
func writeNamedFile(path string, write func(f *os.File) error) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "agilesim:", err)
		os.Exit(1)
	}
	defer f.Close()
	if err := write(f); err != nil {
		fmt.Fprintln(os.Stderr, "agilesim:", err)
		os.Exit(1)
	}
}

func main() {
	// `agilesim analyze` is a subcommand with its own flags; dispatch it
	// before the main flag set sees the arguments.
	if len(os.Args) > 1 && os.Args[1] == "analyze" {
		runAnalyze(os.Args[2:])
		return
	}
	scale := flag.Float64("scale", 0.25, "size/time scale factor (1.0 = paper scale)")
	seed := flag.Uint64("seed", 1, "simulation seed")
	csvPath := flag.String("csv", "", "also write timeline series as CSV to this file")
	parallel := flag.Int("parallel", 0, "experiment-point workers (0 = all cores, 1 = serial)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON file (Perfetto / chrome://tracing)")
	traceJSONL := flag.String("trace-jsonl", "", "write the trace as JSON lines to this file")
	metricsOut := flag.String("metrics-out", "", "write sampled metric series as JSON lines to this file")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus text-format metrics at http://<addr>/metrics during the quickstart (use 127.0.0.1:port)")
	metricsHold := flag.Float64("metrics-hold", 0, "keep serving the final /metrics snapshot this many seconds after the run")
	traceBuf := flag.Int("trace-buf", trace.DefaultBusCapacity, "trace ring-buffer capacity (events)")
	faults := flag.String("faults", "", "fault schedule for quickstart runs (crash:<srv>@<t>[+<d>],linkdown:<nic>@<t>[+<d>],loss:<nic>@<t>[+<d>][=<rate>])")
	replicas := flag.Int("replicas", 0, "VMD replication factor for quickstart runs; for recovery, run only this K (0/1 = off)")
	shards := flag.Int("shards", 1, "parallel-kernel width for fleet and drain (1 = serial); results are byte-identical at any value")
	cells := flag.Int("cells", 0, "fleet experiment: migration cells (2 hosts each; 0 = default 32)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: agilesim [-scale f] [-seed n] [-csv file] [-parallel n] [-shards n] [-faults plan] [-replicas k] [-trace-out file] [-trace-jsonl file] [-metrics-out file] [-metrics-addr host:port] [-metrics-hold s] [-cpuprofile file] [-memprofile file] <experiment>\n")
		fmt.Fprintf(os.Stderr, "experiments: fig4 fig5 fig6 fig7 fig8 tables fig9 fig10 ablation quickstart recovery vmdsweep fleet drain demo report all\n")
		fmt.Fprintf(os.Stderr, "       agilesim analyze -spans file.jsonl [-csv out.csv] | analyze -prom metrics.txt\n")
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	id := flag.Arg(0)
	out := os.Stdout

	// A batch simulator with a small live set and a high allocation rate:
	// let the heap grow further between collections unless the user tuned
	// GC themselves.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(800)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "agilesim:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "agilesim:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "agilesim:", err)
			os.Exit(1)
		}
		defer func() {
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "agilesim:", err)
			}
			f.Close()
		}()
	}

	var csvOut *os.File
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "agilesim:", err)
			os.Exit(1)
		}
		defer f.Close()
		csvOut = f
	}

	runFig := func(tech core.Technique) {
		cfg := experiments.DefaultPressureConfig(tech)
		cfg.Scale = *scale
		cfg.Seed = *seed
		r := experiments.RunPressureTimeline(cfg)
		r.Print(out)
		if csvOut != nil {
			if err := r.WriteCSV(csvOut); err != nil {
				fmt.Fprintln(os.Stderr, "agilesim: csv:", err)
			}
		}
	}
	runSweep := func() {
		cfg := experiments.DefaultSizeSweepConfig()
		cfg.Scale = *scale
		cfg.Seed = *seed
		cfg.Parallelism = *parallel
		rows := experiments.RunSizeSweep(cfg)
		experiments.PrintSizeSweep(out, rows)
	}
	runTables := func() {
		results := experiments.RunAppPerfTables(*scale, *seed, *parallel)
		experiments.PrintAppPerfTables(out, results)
	}
	runWSS := func() {
		cfg := experiments.DefaultWSSTrackConfig()
		cfg.Scale = *scale
		cfg.Seed = *seed
		r := experiments.RunWSSTracking(cfg)
		r.Print(out)
		if csvOut != nil {
			if err := r.WriteCSV(csvOut); err != nil {
				fmt.Fprintln(os.Stderr, "agilesim: csv:", err)
			}
		}
	}
	runAblation := func() {
		push := experiments.RunAblationActivePush(*scale, *seed)
		remote := experiments.RunAblationRemoteSwap(*scale, *seed, *parallel)
		placement := experiments.RunAblationPlacement(*seed, *parallel)
		watermark := experiments.RunAblationWatermark(*seed, *parallel)
		experiments.PrintAblations(out, push, remote, placement, watermark)
		experiments.PrintAutoConverge(out, experiments.RunAblationAutoConverge(*scale, *seed, *parallel))
		experiments.PrintScatterEviction(out, experiments.RunScatterEviction(*scale, *seed))
	}

	runDemo := func() {
		// A single traced Agile migration, printing the Migration
		// Manager's event log.
		cfg := cluster.DefaultConfig()
		cfg.HostRAMBytes = int64(float64(6*cluster.GiB) * *scale * 4)
		cfg.IntermediateRAMBytes = int64(float64(16*cluster.GiB) * *scale * 4)
		tb := cluster.New(cfg)
		h := tb.DeployVM("demo", int64(float64(2*cluster.GiB)**scale*4), int64(float64(768*cluster.MiB)**scale*4), true)
		h.LoadDataset(int64(float64(1536*cluster.MiB) * *scale * 4))
		ccfg := workload.YCSB()
		ccfg.MaxOpsPerSecond = 10_000
		h.AttachClient(ccfg, dist.NewUniform(h.Store.Records()))
		tb.RunSeconds(120 * *scale * 4)
		tr := trace.New(0)
		spec := core.Spec{
			VM: h.VM, Source: tb.Source, Dest: tb.Dest,
			DestReservationBytes: h.VM.Group().ReservationBytes(),
			DestBackend:          host.VMDSwapBackend(h.NS, tb.Dest.VMDClient()),
			Namespace:            h.NS,
			Trace:                tr,
		}
		mig := core.Start(tb.Eng, tb.Net, core.Agile, spec)
		for !mig.Done() {
			tb.Eng.Step()
		}
		fmt.Fprintln(out, "Agile migration event trace:")
		fmt.Fprint(out, tr.String())
		fmt.Fprintln(out, mig.Result())
	}

	runQuickstart := func() {
		var tr *trace.Trace
		var reg *metrics.Registry
		if *traceOut != "" || *traceJSONL != "" {
			tr = trace.New(*traceBuf)
		}
		if *metricsOut != "" || *metricsAddr != "" {
			reg = metrics.NewRegistry()
		}
		var ep *metricsEndpoint
		if *metricsAddr != "" {
			var err error
			ep, err = startMetricsEndpoint(*metricsAddr)
			if err != nil {
				fmt.Fprintln(os.Stderr, "agilesim: -metrics-addr:", err)
				os.Exit(1)
			}
			// The hook runs on the simulation goroutine at every sampler
			// tick: render there, publish atomically, serve lock-free.
			reg.SetSampleHook(func() { ep.publish(reg) })
		}
		cfg := experiments.DefaultQuickstartConfig()
		cfg.Scale = *scale
		cfg.Seed = *seed
		cfg.Trace = tr
		cfg.Metrics = reg
		cfg.Replicas = *replicas
		if *faults != "" {
			plan, err := sim.ParseFaultPlan(*faults)
			if err != nil {
				fmt.Fprintln(os.Stderr, "agilesim: -faults:", err)
				os.Exit(2)
			}
			cfg.Faults = plan
		}
		results := experiments.RunQuickstart(cfg)

		table := metrics.NewTable(
			fmt.Sprintf("Migrating a %.1f GiB VM under load (scale %.2f)", 2**scale, *scale),
			"technique", "total (s)", "downtime (s)", "data (MB)", "cold pages by reference")
		var observed *experiments.QuickstartResult
		for i := range results {
			r := results[i].Result
			table.AddF(r.Technique.String(),
				fmt.Sprintf("%.1f", r.TotalSeconds),
				fmt.Sprintf("%.3f", r.DowntimeSeconds),
				fmt.Sprintf("%.0f", float64(r.BytesTransferred)/1e6),
				r.OffsetRecords)
			if r.Technique == core.Agile {
				observed = &results[i]
			}
		}
		fmt.Fprint(out, table.String())
		if observed != nil && (tr != nil || reg != nil) {
			fmt.Fprintln(out)
			report.Summary(out, observed.Testbed, tr)
		} else if observed != nil {
			// No observability sinks: still surface the far-memory store's
			// counters (retries, spills, failover reads, prefetch hit-rate).
			fmt.Fprintln(out)
			report.VMDSummary(out, observed.Testbed)
		}
		if tr != nil {
			if d := tr.Drops(); d > 0 {
				fmt.Fprintf(os.Stderr, "agilesim: trace ring dropped %d events; rerun with -trace-buf %d or larger\n",
					d, tr.Cap()*2)
			}
			if d := tr.SpanDrops(); d > 0 {
				fmt.Fprintf(os.Stderr, "agilesim: span store dropped %d newest spans; rerun with -trace-buf %d or larger\n",
					d, tr.SpanCap()*2)
			}
			writeFile := func(path string, write func(f *os.File) error) {
				f, err := os.Create(path)
				if err != nil {
					fmt.Fprintln(os.Stderr, "agilesim:", err)
					os.Exit(1)
				}
				defer f.Close()
				if err := write(f); err != nil {
					fmt.Fprintln(os.Stderr, "agilesim:", err)
					os.Exit(1)
				}
			}
			if *traceOut != "" {
				writeFile(*traceOut, func(f *os.File) error { return trace.WriteChromeTrace(f, tr) })
			}
			if *traceJSONL != "" {
				writeFile(*traceJSONL, func(f *os.File) error { return trace.WriteJSONL(f, tr) })
			}
		}
		if reg != nil && *metricsOut != "" {
			f, err := os.Create(*metricsOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, "agilesim:", err)
				os.Exit(1)
			}
			defer f.Close()
			if err := reg.WriteJSONL(f); err != nil {
				fmt.Fprintln(os.Stderr, "agilesim:", err)
				os.Exit(1)
			}
		}
		if ep != nil {
			ep.holdAndClose(reg, *metricsHold)
		}
	}

	runFleet := func() {
		opt := experiments.DefaultFleetOptions()
		opt.Cells = *cells
		opt.Shards = *shards
		opt.Seed = *seed
		opt.Scale = *scale
		opt.Observe = *traceJSONL != "" || *metricsOut != ""
		opt.TraceCapacity = *traceBuf
		rep := experiments.RunFleet(opt)
		experiments.PrintFleet(out, rep)

		writeFile := func(path string, write func(f *os.File) error) {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "agilesim:", err)
				os.Exit(1)
			}
			defer f.Close()
			if err := write(f); err != nil {
				fmt.Fprintln(os.Stderr, "agilesim:", err)
				os.Exit(1)
			}
		}
		if csvOut != nil {
			if err := experiments.WriteFleetCSV(csvOut, rep.Rows); err != nil {
				fmt.Fprintln(os.Stderr, "agilesim: csv:", err)
			}
		}
		if *traceJSONL != "" {
			// The canonical (T, scope, actor) merge of the per-cell rings
			// and span stores: byte-identical at any -shards and GOMAXPROCS.
			writeFile(*traceJSONL, func(f *os.File) error {
				return trace.WriteEventsSpansJSONL(f,
					rep.Fleet.MergedTraceEvents(), rep.Fleet.MergedSpans(),
					rep.Fleet.TraceDrops(), rep.Fleet.SpanDrops(), rep.Fleet.OpenSpans())
			})
			if d := rep.Fleet.SpanDrops(); d > 0 {
				fmt.Fprintf(os.Stderr, "agilesim: fleet span stores dropped %d newest spans; rerun with -trace-buf larger\n", d)
			}
		}
		if *metricsOut != "" {
			// Per-cell registries concatenated in cell order, equally
			// placement-independent.
			writeFile(*metricsOut, func(f *os.File) error {
				for i := 0; i < len(rep.Rows); i++ {
					if err := rep.Fleet.CellRegistry(i).WriteJSONL(f); err != nil {
						return err
					}
				}
				return nil
			})
		}
	}

	runDrain := func() {
		opt := experiments.DefaultDrainOptions()
		opt.Scale = *scale
		opt.Seed = *seed
		opt.Shards = *shards
		if *cells > 0 {
			opt.RackCells = *cells
		}
		opt.Observe = *traceJSONL != "" || *metricsOut != ""
		opt.TraceCapacity = *traceBuf
		rep := experiments.RunDrain(opt)
		experiments.PrintDrain(out, rep)
		if csvOut != nil {
			if err := experiments.WriteDrainCSV(csvOut, rep); err != nil {
				fmt.Fprintln(os.Stderr, "agilesim: csv:", err)
			}
		}
		if *traceJSONL != "" || *metricsOut != "" {
			// One stream per policy run, suffixed with the policy name so
			// both drains stay inspectable side by side.
			for _, p := range rep.Policies {
				if *traceJSONL != "" {
					writeNamedFile(*traceJSONL+"."+p.Policy, func(f *os.File) error {
						return trace.WriteEventsSpansJSONL(f, p.Trace.Events(), p.Trace.Spans(),
							p.Trace.Drops(), p.Trace.SpanDrops(), p.Trace.OpenSpans())
					})
				}
				if *metricsOut != "" {
					writeNamedFile(*metricsOut+"."+p.Policy, func(f *os.File) error {
						return p.Registry.WriteJSONL(f)
					})
				}
			}
		}
	}

	if id != "quickstart" && id != "fleet" && id != "drain" && (*traceOut != "" || *traceJSONL != "" || *metricsOut != "") {
		fmt.Fprintln(os.Stderr, "agilesim: -trace-out/-trace-jsonl/-metrics-out attach to the quickstart, fleet and drain experiments; ignoring")
	}
	if (id == "fleet" || id == "drain") && *traceOut != "" {
		fmt.Fprintln(os.Stderr, "agilesim: -trace-out (Chrome trace) attaches to the quickstart experiment; fleet/drain write -trace-jsonl; ignoring")
	}
	if id != "quickstart" && (*metricsAddr != "" || *metricsHold > 0) {
		fmt.Fprintln(os.Stderr, "agilesim: -metrics-addr/-metrics-hold attach to the quickstart experiment; ignoring")
	}
	if id != "quickstart" && *faults != "" {
		fmt.Fprintln(os.Stderr, "agilesim: -faults attaches to the quickstart experiment (recovery has its own schedule); ignoring")
	}
	if id != "quickstart" && id != "recovery" && *replicas > 1 {
		fmt.Fprintln(os.Stderr, "agilesim: -replicas attaches to the quickstart and recovery experiments; ignoring")
	}

	switch id {
	case "fig4":
		runFig(core.PreCopy)
	case "fig5":
		runFig(core.PostCopy)
	case "fig6":
		runFig(core.Agile)
	case "fig7", "fig8":
		runSweep()
	case "table1", "table2", "table3", "tables":
		runTables()
	case "fig9", "fig10":
		runWSS()
	case "ablation", "ablations":
		runAblation()
	case "quickstart":
		runQuickstart()
	case "recovery":
		rcfg := experiments.DefaultRecoveryConfig()
		rcfg.Scale = *scale
		rcfg.Seed = *seed
		// -replicas narrows the K=1-vs-K=2 comparison to a single factor
		// (CI byte-diffs the K=2 run on its own).
		if *replicas > 1 {
			rcfg.ReplicaFactors = []int{*replicas}
		}
		experiments.PrintRecovery(out, experiments.RunRecovery(rcfg))
	case "vmdsweep":
		vcfg := experiments.DefaultVMDSweepConfig()
		vcfg.Scale = *scale
		vcfg.Seed = *seed
		experiments.PrintVMDSweep(out, experiments.RunVMDSweep(vcfg))
	case "fleet":
		runFleet()
	case "drain":
		runDrain()
	case "demo", "trace":
		runDemo()
	case "report":
		report.Generate(out, report.Options{Scale: *scale, Seed: *seed, Parallelism: *parallel,
			Pressure: true, Sweep: true, Tables: true, WSS: true, Ablation: true})
	case "all":
		// The three pressure timelines are independent scenarios: run them
		// through the fan-out harness, then print in figure order.
		cfg := experiments.DefaultPressureConfig(core.PreCopy)
		cfg.Scale = *scale
		cfg.Seed = *seed
		for _, r := range experiments.RunPressureTechniques(cfg,
			[]core.Technique{core.PreCopy, core.PostCopy, core.Agile}, *parallel) {
			r.Print(out)
			if csvOut != nil {
				if err := r.WriteCSV(csvOut); err != nil {
					fmt.Fprintln(os.Stderr, "agilesim: csv:", err)
				}
			}
		}
		runSweep()
		runTables()
		runWSS()
		runAblation()
	default:
		fmt.Fprintf(os.Stderr, "agilesim: unknown experiment %q\n", id)
		flag.Usage()
		os.Exit(2)
	}
}
