package main

import (
	"fmt"

	"agilemig/internal/cluster"
	"agilemig/internal/core"
	"agilemig/internal/dist"
	"agilemig/internal/experiments"
	"agilemig/internal/mem"
	"agilemig/internal/metrics"
	"agilemig/internal/sim"
	"agilemig/internal/vmd"
	wl "agilemig/internal/workload"
)

// workload is one benchmark input: a scenario of the paper's §V, or a
// mechanism later changes will optimise, built from the public cluster
// API in the order internal/experiments builds it. Every workload is a
// batch run whose load comes from closed-loop simulated clients.
type workload struct {
	name string
	why  string
	run  func(r *run)
}

// workloads lists the benchmark's inputs in the order -repeat alternates
// them. The host-time shares quoted in each why are from the traced run
// on the reference host (bench/README.md).
var workloads = []workload{
	{"pressure", "Figure 6 YCSB ramp on a thrashing host, one Agile migration: workload, simnet, mem and cgroup swap-out writes", runPressure},
	{"sweep", "busy Figures 7-8 at 8 and 10 GB for pre-copy, post-copy and Agile: mem, core round pump and local blockdev swap", runSweep},
	{"farmem", "vmdsweep ladder: post-switchover VMD demand reads through per-page, batched, readahead and tiered stores", runFarmem},
	{"fleet", "96-cell staggered Agile evacuation on 2 shards: the only sim.ShardGroup workload, fixed per-migration costs", runFleet},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Scales. The full scales give each workload 5-10 s of host time on the
// reference host (2 cores); the tiny ones take about a tenth of a second
// each and drive -smoke and the tests. The tiny pressure timeline ends
// soon after its migration. Pressure's scale cannot go lower: below 0.01
// the simulator itself fails (vmd: read or free of an unwritten offset in
// a VM that is not migrating).
const (
	pressureScale, pressureTinyScale = 0.25, 0.01
	tinyPressureDuration             = 700 // unscaled seconds, like PressureConfig.Duration
	sweepScale, sweepTinyScale       = 0.25, 0.005
	farmemScale, farmemTinyScale     = 1, 0.01
	fleetScale, fleetTinyScale       = 0.25, 0.02
	fleetCells, fleetTinyCells       = 96, 4
)

func (r *run) scale(full, tiny float64) float64 {
	if r.tiny {
		return tiny
	}
	return full
}

// scaleBytes and scaleSeconds are the experiments package's scaling rules
// (page-aligned bytes, at least one page; at least one second).
func scaleBytes(b int64, scale float64) int64 {
	v := int64(float64(b) * scale)
	if v < mem.PageSize {
		v = mem.PageSize
	}
	return mem.PagesToBytes(mem.BytesToPages(v))
}

func scaleSeconds(s, scale float64) float64 {
	if v := s * scale; v >= 1 {
		return v
	}
	return 1
}

// ycsbClient is the YCSB shape the paper experiments use.
func ycsbClient() wl.ClientConfig {
	cfg := wl.YCSB()
	cfg.MaxOpsPerSecond = 20_000
	return cfg
}

// runPressure is experiments.RunPressureTimeline for Agile (Figure 6):
// four VMs on a host that cannot hold their ramped working sets, vm1
// migrated at t=MigrateAt, then the rest of the timeline. The throughput
// samplers of the experiment only read state, so leaving them out changes
// no simulated result.
func runPressure(r *run) {
	pc := experiments.DefaultPressureConfig(core.Agile)
	s := r.scale(pressureScale, pressureTinyScale)
	if r.tiny {
		pc.Duration = tinyPressureDuration
	}

	cfg := cluster.DefaultConfig()
	cfg.Seed = r.seed
	cfg.HostRAMBytes = scaleBytes(experiments.PaperHostRAM, s)
	cfg.SwapPartitionBytes = scaleBytes(30*cluster.GiB, s)
	cfg.IntermediateRAMBytes = scaleBytes(100*cluster.GiB, s)
	tb := r.newTestbed(cfg)

	vmMem := scaleBytes(experiments.PaperVMMem, s)
	resv := scaleBytes(experiments.PaperReservation, s)
	dataset := scaleBytes(experiments.PaperYCSBDataset, s)
	smallFrac := scaleBytes(experiments.PaperSmallFraction, s)
	largeFrac := scaleBytes(experiments.PaperLargeFraction, s)
	const recSize = 1024

	var handles []*cluster.VMHandle
	for i := 0; i < experiments.PaperNumVMs; i++ {
		h := r.deploy(tb, fmt.Sprintf("vm%d", i+1), vmMem, resv, true, dataset, dist.NewUniform(smallFrac/recSize))
		handles = append(handles, h)
	}
	r.timed(phWarm, func() { tb.RunSeconds(scaleSeconds(pc.SettleSeconds, s)) })

	rampStart := scaleSeconds(pc.RampStart, s)
	stagger := scaleSeconds(pc.RampStagger, s)
	for i, h := range handles {
		h := h
		tb.Eng.AfterSeconds(rampStart+float64(i)*stagger, func() {
			h.Client.SetDist(dist.NewUniform(largeFrac / recSize))
		})
	}

	// The migration fires from an engine event exactly as in the
	// experiment; the benchmark splits the run at that event's tick, so the
	// phase boundaries change no simulated result.
	destResv := scaleBytes(7*cluster.GiB, s)
	victim := handles[0]
	rebalanced := false
	migrateAt := tb.Eng.Now() + sim.Time(tb.Eng.SecondsToTicks(scaleSeconds(pc.MigrateAt, s)))
	end := tb.Eng.Now() + sim.Time(tb.Eng.SecondsToTicks(scaleSeconds(pc.Duration, s)))
	tb.Eng.AfterSeconds(scaleSeconds(pc.MigrateAt, s), func() {
		if _, err := tb.Migrate(victim, core.Agile, destResv); err != nil {
			r.problem("pressure: migrate: %v", err)
			return
		}
		tb.Eng.Every(tb.Eng.SecondsToTicks(scaleSeconds(1, s)), func(sim.Time) bool {
			if victim.Result == nil {
				return true
			}
			if !rebalanced {
				rebalanced = true
				tb.RebalanceSource(destResv)
			}
			return false
		})
	})

	r.timed(phWarm, func() { tb.Eng.Run(migrateAt) })
	r.timed(phMigrate, func() {
		for tb.Eng.Now() < end && victim.Migration != nil && !victim.Migration.Done() {
			tb.Eng.Advance(end)
		}
	})
	r.heapMark()
	r.timed(phTail, func() { tb.Eng.Run(end) })
	r.recordMigration("agile/vm1", victim, outcomeOf(victim))
	r.finishTestbed(tb, handles)
}

// runSweep is the busy half of experiments.RunSizeSweep (Figures 7-8) at
// 8 and 10 GB, one fresh testbed per point, points in the experiment's
// order and run serially. Not 12 GB: there pre-copy takes one more round
// on some seeds (554 or 615 simulated s), and a seed-varied benchmark
// cannot hold tight bounds on a two-valued outcome.
func runSweep(r *run) {
	s := r.scale(sweepScale, sweepTinyScale)
	for _, tech := range []core.Technique{core.PreCopy, core.PostCopy, core.Agile} {
		for _, size := range []int64{8 * cluster.GiB, 10 * cluster.GiB} {
			cfg := cluster.DefaultConfig()
			cfg.Seed = r.seed
			cfg.HostRAMBytes = scaleBytes(experiments.SizeSweepHostRAM, s)
			cfg.SwapPartitionBytes = scaleBytes(30*cluster.GiB, s)
			cfg.IntermediateRAMBytes = scaleBytes(32*cluster.GiB, s)
			tb := r.newTestbed(cfg)

			vmMem := scaleBytes(size, s)
			resv := cfg.HostRAMBytes - scaleBytes(500*cluster.MiB, s)
			if resv > vmMem {
				resv = vmMem
			}
			dataset := vmMem - scaleBytes(500*cluster.MiB, s)
			if dataset < cluster.MiB {
				dataset = cluster.MiB
			}
			h := r.deploy(tb, "vm", vmMem, resv, tech == core.Agile, dataset, nil)
			r.timed(phWarm, func() { tb.RunSeconds(scaleSeconds(200, s)) })

			point := fmt.Sprintf("%s/%dGB", tech, size/cluster.GiB)
			out := r.migrate(point, tb, h, tech, resv, core.Tuning{}, scaleSeconds(4000, s))
			r.recordMigration(point, h, out)
			r.finishTestbed(tb, []*cluster.VMHandle{h})
		}
	}
}

// farmemVariant is one store configuration of the vmdsweep ladder.
type farmemVariant struct {
	name  string
	store vmd.StoreConfig
	tun   core.Tuning
}

// farmemVariants is experiments' cumulative vmdsweep ladder.
func farmemVariants(ctierCapPages int64) []farmemVariant {
	const b = 32
	readahead := vmd.ReadaheadConfig{Enabled: true}
	tiers := vmd.TierConfig{Enabled: true, CompressedCapPages: ctierCapPages}
	batched := core.Tuning{BatchPages: b}
	return []farmemVariant{
		{name: "v1 flat"},
		{name: "+batch", store: vmd.StoreConfig{BatchPages: b}, tun: batched},
		{name: "+prefetch", store: vmd.StoreConfig{BatchPages: b, Readahead: readahead}, tun: batched},
		{name: "+ctier", store: vmd.StoreConfig{BatchPages: b, Readahead: readahead, Tiers: tiers}, tun: batched},
		{name: "+hash", store: vmd.StoreConfig{
			BatchPages: b, Readahead: readahead, Tiers: tiers,
			Placement: vmd.PlaceHash, RebalanceBytesPerSec: 64 * cluster.MiB,
		}, tun: batched},
	}
}

// runFarmem is experiments.RunVMDSweep: one Agile migration of a
// sequentially scanned VM into a tight destination reservation, once per
// store variant, so the scan demand-reads its dataset from the VMD after
// switchover.
func runFarmem(r *run) {
	s := r.scale(farmemScale, farmemTinyScale)
	ctierCap := int64(mem.BytesToPages(scaleBytes(256*cluster.MiB, s)))
	for _, v := range farmemVariants(ctierCap) {
		cfg := cluster.DefaultConfig()
		cfg.Seed = r.seed
		cfg.HostRAMBytes = scaleBytes(6*cluster.GiB, s)
		cfg.Intermediates = 4
		cfg.IntermediateRAMBytes = scaleBytes(4*cluster.GiB, s)
		cfg.VMD = v.store
		tb := r.newTestbed(cfg)

		wcfg := wl.YCSB()
		wcfg.MaxOpsPerSecond = 10_000
		wcfg.WriteFraction = 0.05
		var h *cluster.VMHandle
		r.timed(phBuild, func() {
			h = tb.DeployVM("sweep", scaleBytes(2*cluster.GiB, s), scaleBytes(768*cluster.MiB, s), true)
		})
		r.timed(phLoad, func() { h.LoadDataset(scaleBytes(1536*cluster.MiB, s)) })
		r.timed(phBuild, func() { h.AttachClient(wcfg, dist.NewSequential(h.Store.Records())) })
		r.observeClient(h)
		r.timed(phWarm, func() { tb.RunSeconds(scaleSeconds(120, s)) })

		// The experiment's read-latency histogram, installed at the same
		// point; the sink only observes.
		hist := metrics.NewHistogram("sweep/read.latency.seconds", oneMsBounds())
		h.NS.SetReadLatencySink(hist.Observe)

		out := r.migrate(v.name, tb, h, core.Agile, scaleBytes(512*cluster.MiB, s), v.tun, 4000)
		r.timed(phTail, func() { tb.RunSeconds(scaleSeconds(60, s)) })
		r.recordMigration(v.name, h, out)
		r.migs[len(r.migs)-1].ReadP99Ms = hist.P99() * 1000
		r.finishTestbed(tb, []*cluster.VMHandle{h})
	}
}

// runFleet is experiments.RunFleet at 96 cells on 2 shards. Setup is
// NewFleet plus the warm-up, split at the last lookahead window boundary
// before the first start command: the window grid, and with it every
// barrier and mailbox drain, is the unsplit run's.
func runFleet(r *run) {
	s := r.scale(fleetScale, fleetTinyScale)
	cfg := cluster.DefaultFleetConfig()
	cfg.Cells = fleetCells
	cfg.Shards = 2
	if r.tiny {
		cfg.Cells = fleetTinyCells
	}
	if r.shards > 0 {
		cfg.Shards = r.shards
	}
	cfg.Seed = r.seed
	cfg.HostRAMBytes = scaleBytes(cfg.HostRAMBytes, s)
	cfg.VMMemBytes = scaleBytes(cfg.VMMemBytes, s)
	cfg.DatasetBytes = scaleBytes(cfg.DatasetBytes, s)
	cfg.ReservationBytes = scaleBytes(cfg.ReservationBytes, s)
	cfg.IntermediateRAMBytes = scaleBytes(cfg.IntermediateRAMBytes, s)
	cfg.WarmupSeconds = scaleSeconds(cfg.WarmupSeconds, s)
	r.observeFleet(&cfg)
	const maxSeconds = 600

	var f *cluster.Fleet
	r.timed(phBuild, func() { f = cluster.NewFleet(cfg) })
	eng0 := f.Group.Engine(0)
	var others []*sim.Engine
	for i := 1; i < f.Group.Shards(); i++ {
		others = append(others, f.Group.Engine(i))
	}
	r.meter(eng0, others...)
	la := sim.Time(f.Group.Lookahead())
	split := sim.Time(eng0.SecondsToTicks(cfg.WarmupSeconds)) / la * la
	r.timed(phWarm, func() { f.Group.Run(split) })
	var res cluster.EvacuationResult
	r.timed(phMigrate, func() { res = f.RunEvacuation(maxSeconds - eng0.NowSeconds()) })
	r.heapMark()

	r.simSeconds += eng0.NowSeconds()
	for _, row := range f.Rows() {
		r.migs = append(r.migs, migration{
			Point:    row.Cell,
			Outcome:  row.Outcome,
			Total:    row.TotalSeconds,
			Downtime: row.DowntimeSeconds,
			Bytes:    row.BytesTransferred,
		})
		// A cell's client ops are public only as of its migration's end.
		r.appOps += row.OpsAtComplete
	}
	if !res.Success() {
		r.problem("fleet: %s", res)
	}
	r.finishFleet(f)
}

// deploy places a VM, loads its dataset and attaches a YCSB client, timing
// each call to its phase. A nil d queries the whole dataset uniformly.
func (r *run) deploy(tb *cluster.Testbed, name string, memBytes, resv int64, agile bool, dataset int64, d dist.Dist) *cluster.VMHandle {
	var h *cluster.VMHandle
	r.timed(phBuild, func() { h = tb.DeployVM(name, memBytes, resv, agile) })
	r.timed(phLoad, func() { h.LoadDataset(dataset) })
	if d == nil {
		d = dist.NewUniform(h.Store.Records())
	}
	r.timed(phBuild, func() { h.AttachClient(ycsbClient(), d) })
	r.observeClient(h)
	return h
}

// newTestbed times cluster.New, attaching trace and metrics sinks in a
// traced run.
func (r *run) newTestbed(cfg cluster.Config) *cluster.Testbed {
	r.observeConfig(&cfg)
	var tb *cluster.Testbed
	r.timed(phBuild, func() { tb = cluster.New(cfg) })
	r.meter(tb.Eng)
	return tb
}

// migrate starts one migration and runs until it ends or times out,
// returning its outcome; the live heap is read right after.
func (r *run) migrate(point string, tb *cluster.Testbed, h *cluster.VMHandle, tech core.Technique, destResv int64, tun core.Tuning, timeoutSeconds float64) cluster.Outcome {
	out := cluster.OutcomeTimeout
	r.timed(phMigrate, func() {
		if _, err := tb.MigrateTuned(h, tech, destResv, tun); err != nil {
			r.problem("%s: migrate: %v", point, err)
			return
		}
		out = tb.RunUntilMigrated(h, timeoutSeconds)
	})
	r.heapMark()
	return out
}

// outcomeOf classifies a migration the benchmark ran to a deadline itself,
// as RunUntilMigrated would.
func outcomeOf(h *cluster.VMHandle) cluster.Outcome {
	switch {
	case h.Migration == nil:
		return cluster.OutcomeTimeout
	case h.Migration.Aborted():
		return cluster.OutcomeAborted
	case h.Migration.Done():
		return cluster.OutcomeCompleted
	}
	return cluster.OutcomeTimeout
}

// oneMsBounds is vmdsweep's latency layout: 1 ms buckets to 100 ms, so
// every tick-quantized latency lands in its own bucket.
func oneMsBounds() []float64 {
	var b []float64
	for ms := 1; ms <= 100; ms++ {
		b = append(b, float64(ms)/1000)
	}
	return append(b, 0.150, 0.250, 0.500, 1.0, 2.5, 5.0)
}
