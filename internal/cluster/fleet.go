package cluster

import (
	"fmt"

	"agilemig/internal/blockdev"
	"agilemig/internal/core"
	"agilemig/internal/dist"
	"agilemig/internal/metrics"
	"agilemig/internal/sim"
	"agilemig/internal/trace"
	"agilemig/internal/workload"
)

// FleetConfig shapes a Fleet: an evacuation-scale cluster of independent
// migration cells, each on its own engine of the parallel kernel. Each
// cell is a miniature paper testbed — source host, destination host, one
// VMD intermediate, an external client — with its own simnet.Network:
// simnet's max-min fairness couples every NIC of one network into a single
// arbitration domain, so the network is the unit of engine ownership
// (DESIGN.md §6g) and giving each cell its own keeps cells independent and
// parallel.
type FleetConfig struct {
	Seed uint64
	// Cells is the number of migration cells; each contributes two full
	// hosts plus an intermediate, so the default 32 is a 64-host cluster.
	Cells int
	// Shards is the parallel kernel width: how many workers run the
	// cells' engines within a lookahead window (default 1, the serial
	// reference; at most Cells). Every cell has its own engine whatever
	// the width, so output is identical at any Shards value.
	Shards int

	HostRAMBytes         int64
	OSOverheadBytes      int64
	VMMemBytes           int64
	DatasetBytes         int64
	ReservationBytes     int64
	IntermediateRAMBytes int64
	NetBytesPerSec       int64
	SwapPartitionBytes   int64
	SSD                  blockdev.Config

	// WarmupSeconds is how long workloads run before the first start
	// command, letting reclaim push each dataset's cold tail to swap.
	WarmupSeconds float64
	// SettleSeconds is how long the fleet keeps running after the last
	// migration completes before stopping itself.
	SettleSeconds float64

	MaxOpsPerSecond float64
	WriteFraction   float64

	// MigrationTimeoutSeconds, when positive, arms a per-cell watchdog at
	// each migration's start: a migration that has not reached switchover
	// by the deadline is aborted and rolled back to its source, and the
	// cell reports Outcome "aborted" instead of blocking the fleet forever.
	// Zero disables the watchdog (the historical behaviour).
	MigrationTimeoutSeconds float64
	// Faults, when non-empty, is a per-cell fault schedule. Each afflicted
	// cell is a Testbed built with the plan, so targets carry the Testbed's
	// names, resolved inside the cell with its name prefix: "source",
	// "dest", "clients" and "inter1" name the cell's NICs (for link and
	// loss events) and "inter1" its VMD server (for crash/restart).
	// Afflicted cells arm the VMD fault-tolerance timeouts and the
	// demand-paging retry path, as any Testbed under a fault plan does.
	Faults *sim.FaultPlan
	// FaultCells selects which cell indices receive the fault plan; nil
	// applies it to every cell.
	FaultCells []int

	// Observe attaches one trace and one metrics registry per cell
	// (disjoint per engine by construction, which the -race isolation test
	// relies on). Merged views are deterministic at any shard count.
	Observe bool
	// TraceCapacity bounds each cell's ring when Observe is set (0 selects
	// trace.DefaultCapacity).
	TraceCapacity int

	DisableFastForward bool
}

const (
	// controlLatencySeconds is the one-way latency of the evacuation
	// controller's links to the cells. It is also what bounds the
	// kernel's lookahead (1 + latency ticks), so it sets the
	// compute-per-barrier ratio of a parallel run.
	controlLatencySeconds = 0.020
	// staggerSeconds separates consecutive cells' migration start
	// commands.
	staggerSeconds = 0.25
)

// DefaultFleetConfig returns a 32-cell (64-host) evacuation sized so a
// full run is minutes of simulated time: 64 MiB VMs with 48 MiB datasets
// under 24 MiB reservations, swapping the overflow to a one-server VMD per
// cell over 1 Gbps links.
func DefaultFleetConfig() FleetConfig {
	return FleetConfig{
		Seed:                 1,
		Cells:                32,
		Shards:               1,
		HostRAMBytes:         192 * MiB,
		OSOverheadBytes:      16 * MiB,
		VMMemBytes:           64 * MiB,
		DatasetBytes:         48 * MiB,
		ReservationBytes:     24 * MiB,
		IntermediateRAMBytes: 256 * MiB,
		NetBytesPerSec:       GbpsBytes,
		SwapPartitionBytes:   1 * GiB,
		SSD: blockdev.Config{
			Name:           "cell-ssd",
			BytesPerSecond: 90 * MiB,
			IOPS:           10_000,
		},
		WarmupSeconds:   30,
		SettleSeconds:   5,
		MaxOpsPerSecond: 2000,
		WriteFraction:   0.05,
	}
}

// FleetRow is one cell's evacuation outcome. Every field is captured at a
// deterministic simulated time on the cell's own engine, so rows are
// byte-identical across shard counts and GOMAXPROCS.
type FleetRow struct {
	Cell             string
	StartedAtSeconds float64
	DoneAtSeconds    float64
	TotalSeconds     float64
	DowntimeSeconds  float64
	BytesTransferred int64
	OpsAtComplete    int64
	// Outcome is "completed", "aborted" or "unfinished"; Reason carries
	// the failure detail for the latter two. Before this field existed an
	// aborted cell was indistinguishable from an evacuated one: the
	// migration's OnComplete fires for rollbacks too, so the fleet counted
	// the cell "done" and reported the evacuation a success.
	Outcome string
	Reason  string
}

// The FleetRow.Outcome values.
const (
	FleetOutcomeCompleted  = "completed"
	FleetOutcomeAborted    = "aborted"
	FleetOutcomeUnfinished = "unfinished"
)

// fleetCell is one migration cell: a Testbed on its own engine, seen
// through its one VM. Everything it owns lives on that engine.
type fleetCell struct {
	vm  *VMHandle
	row FleetRow
	// abortReason is set (on the cell's engine) before the watchdog calls
	// Abort, so the completion callback can attribute the rollback.
	abortReason string
}

// Fleet is the assembled evacuation cluster: Cells independent migration
// cells, each on its own engine of a sim.ShardGroup, plus an evacuation
// controller on engine 0 that staggers the migration start commands over
// control links and stops the run once every cell reports completion.
type Fleet struct {
	Cfg   FleetConfig
	Group *sim.ShardGroup

	cells []*fleetCell
	// terminal counts cells whose migration reached a terminal state
	// (completed or aborted) — the settle-and-stop trigger.
	terminal int
}

// NewFleet builds the fleet. All construction happens before the first
// run, on the caller's goroutine.
func NewFleet(cfg FleetConfig) *Fleet {
	if cfg.Cells <= 0 {
		cfg.Cells = 32
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Shards > cfg.Cells {
		cfg.Shards = cfg.Cells
	}
	g := sim.NewShardGroup(cfg.Seed, cfg.Shards)
	f := &Fleet{Cfg: cfg, Group: g}
	eng0 := g.Engine(0)
	ctrlLat := eng0.SecondsToTicks(controlLatencySeconds)
	stagger := eng0.SecondsToTicks(staggerSeconds)
	warmup := eng0.SecondsToTicks(cfg.WarmupSeconds)

	// The controller on engine 0 issues one staggered start command per
	// cell over the cell's control links. The completion handler is
	// commutative (a count and a stop timer), as same-tick arrivals from
	// different cells drain in engine order — see the §6g proof
	// obligations.
	for i := 0; i < cfg.Cells; i++ {
		c, e := f.buildCell(i)
		f.cells = append(f.cells, c)
		start := g.Link(0, e, ctrlLat, 0)
		back := g.Link(e, 0, ctrlLat, 0)
		at := sim.Time(warmup) + sim.Time(int64(i)*int64(stagger))
		eng0.Schedule(at, func() {
			start.Send(0, func() {
				f.startCell(c, func() { back.Send(0, f.cellCompleted) })
			})
		})
	}
	if cfg.DisableFastForward {
		for i := 0; i < g.Engines(); i++ {
			g.Engine(i).SetFastForward(false)
		}
	}
	return f
}

// buildCell assembles cell i on an engine of its own, whose index it
// returns: a Testbed whose actors carry the "cellNNN-" prefix, with one
// Agile-deployed VM and its YCSB client.
func (f *Fleet) buildCell(i int) (*fleetCell, int) {
	cfg := f.Cfg
	name := fmt.Sprintf("cell%03d", i)
	e := f.Group.AddEngine(name)
	tcfg := Config{
		Seed:                 cfg.Seed,
		HostRAMBytes:         cfg.HostRAMBytes,
		OSOverheadBytes:      cfg.OSOverheadBytes,
		NetBytesPerSec:       cfg.NetBytesPerSec,
		SSD:                  cfg.SSD,
		SwapPartitionBytes:   cfg.SwapPartitionBytes,
		Intermediates:        1,
		IntermediateRAMBytes: cfg.IntermediateRAMBytes,
	}
	if cfg.Observe {
		tcfg.Trace = trace.New(cfg.TraceCapacity)
		tcfg.Metrics = metrics.NewRegistry()
	}
	if f.cellFaulted(i) {
		tcfg.Faults = cfg.Faults
	}
	tb := build(f.Group.Engine(e), tcfg, name+"-", sim.SeedForName(cfg.Seed, name+"/loss"))

	c := &fleetCell{row: FleetRow{Cell: name}}
	c.vm = tb.DeployVM(name+"-vm", cfg.VMMemBytes, cfg.ReservationBytes, true)
	c.vm.LoadDataset(cfg.DatasetBytes)
	wcfg := workload.YCSB()
	wcfg.Name = name + "-ycsb"
	wcfg.MaxOpsPerSecond = cfg.MaxOpsPerSecond
	wcfg.Concurrency = 8
	wcfg.WriteFraction = cfg.WriteFraction
	// The client stream is derived from (seed, cell name), never from an
	// engine's master stream: the draw sequence is independent of
	// construction order and of the engine layout.
	c.vm.attachClient(wcfg, dist.NewUniform(c.vm.Store.Records()),
		sim.NewRNG(sim.SeedForName(cfg.Seed, name+"/client")))
	return c, e
}

// cellFaulted reports whether cell i is afflicted by the fleet fault plan.
func (f *Fleet) cellFaulted(i int) bool {
	if f.Cfg.FaultCells == nil {
		return true
	}
	for _, idx := range f.Cfg.FaultCells {
		if idx == i {
			return true
		}
	}
	return false
}

// startCell runs on the cell's own engine when the controller's start
// command arrives: it records the start time and launches the Agile
// migration to the cell's destination, wiring onDone to fire (still on the
// cell's engine) when the migration reaches a terminal state.
func (f *Fleet) startCell(c *fleetCell, onDone func()) {
	tb := c.vm.tb
	c.row.StartedAtSeconds = tb.Eng.NowSeconds()
	m, err := tb.Launch(c.vm.VM.Name(), tb.Dest.Name(), core.Agile, f.Cfg.ReservationBytes, 0,
		func(res *core.Result) {
			// Everything in the row is read at the completion tick, on the
			// cell's engine — deterministic however long the run continues.
			c.row.DoneAtSeconds = tb.Eng.NowSeconds()
			c.row.TotalSeconds = res.TotalSeconds
			c.row.DowntimeSeconds = res.DowntimeSeconds
			c.row.BytesTransferred = res.BytesTransferred
			c.row.OpsAtComplete = c.vm.Client.OpsCompleted()
			if res.Aborted {
				c.row.Outcome = FleetOutcomeAborted
				c.row.Reason = c.abortReason
				if c.row.Reason == "" {
					c.row.Reason = "rolled back to source"
				}
			} else {
				c.row.Outcome = FleetOutcomeCompleted
			}
			onDone()
		})
	if err != nil {
		// The cell's only VM sits idle at its source until this command.
		panic("cluster: fleet " + err.Error())
	}
	if f.Cfg.MigrationTimeoutSeconds > 0 {
		deadline := f.Cfg.MigrationTimeoutSeconds
		tb.Eng.AfterSeconds(deadline, func() {
			if m.Done() || m.Switched() {
				// Finished, rolled back, or past the point of no return (a
				// switched migration finishes at destination pace).
				return
			}
			c.abortReason = fmt.Sprintf("no switchover within %.0fs; rolled back", deadline)
			m.Abort()
		})
	}
}

// cellCompleted runs on engine 0 each time a cell's terminal report —
// evacuated or rolled back — arrives over its control link; the last one
// arms the settle-and-stop timer.
func (f *Fleet) cellCompleted() {
	f.terminal++
	if f.terminal == len(f.cells) {
		f.Group.Engine(0).AfterSeconds(f.Cfg.SettleSeconds, f.Group.Stop)
	}
}

// EvacuationResult distinguishes a clean evacuation from a partial one:
// how many cells evacuated, how many rolled back, and how many were still
// in flight (or never started) when the run ended.
type EvacuationResult struct {
	Cells      int
	Evacuated  int
	Aborted    int
	Unfinished int
}

// Success reports a clean evacuation: every cell's VM runs at its
// destination.
func (r EvacuationResult) Success() bool { return r.Evacuated == r.Cells }

// String summarizes the result.
func (r EvacuationResult) String() string {
	if r.Success() {
		return fmt.Sprintf("evacuated %d/%d cells", r.Evacuated, r.Cells)
	}
	return fmt.Sprintf("evacuated %d/%d cells (%d aborted, %d unfinished)",
		r.Evacuated, r.Cells, r.Aborted, r.Unfinished)
}

// RunEvacuation drives the whole evacuation: warmup, staggered migrations,
// settle, stop — bounded by maxSeconds of simulated time. The result
// distinguishes success from partial failure; rows not terminal when the
// run ends are finalized as "unfinished" with a reason. (The historical
// bool return said "done" as soon as every cell reported terminal — a
// fleet full of rollbacks counted as a finished evacuation.)
func (f *Fleet) RunEvacuation(maxSeconds float64) EvacuationResult {
	f.Group.RunSeconds(maxSeconds)
	res := EvacuationResult{Cells: len(f.cells)}
	now := f.Group.Engine(0).NowSeconds()
	for _, c := range f.cells {
		switch c.row.Outcome {
		case FleetOutcomeCompleted:
			res.Evacuated++
		case FleetOutcomeAborted:
			res.Aborted++
		default:
			res.Unfinished++
			c.row.Outcome = FleetOutcomeUnfinished
			if c.row.StartedAtSeconds > 0 {
				c.row.Reason = fmt.Sprintf("still in flight at %.0fs", now)
			} else {
				c.row.Reason = "never started"
			}
		}
	}
	return res
}

// Rows returns the per-cell outcomes in cell order. Call it only between
// runs (at a barrier), when every engine is quiescent.
func (f *Fleet) Rows() []FleetRow {
	rows := make([]FleetRow, len(f.cells))
	for i, c := range f.cells {
		rows[i] = c.row
	}
	return rows
}

// MergedTraceEvents returns every cell's trace merged into the canonical
// (T, Scope, Actor) timeline — byte-identical at any shard count because
// each actor lives in exactly one cell. Nil when the fleet was built
// without Observe.
func (f *Fleet) MergedTraceEvents() []trace.Event {
	traces := make([]*trace.Trace, len(f.cells))
	for i, c := range f.cells {
		traces[i] = c.vm.tb.Cfg.Trace
	}
	return trace.MergeByTime(traces...)
}

// TraceDrops sums ring overwrites across the per-cell traces.
func (f *Fleet) TraceDrops() int64 {
	var d int64
	for _, c := range f.cells {
		d += c.vm.tb.Cfg.Trace.Drops()
	}
	return d
}

// MergedSpans returns every cell's spans merged into the canonical
// (Start, Scope, Actor) order with IDs renumbered and parent links
// remapped — like MergedTraceEvents, byte-identical at any shard count.
// Nil when the fleet was built without Observe.
func (f *Fleet) MergedSpans() []trace.Span {
	traces := make([]*trace.Trace, len(f.cells))
	for i, c := range f.cells {
		traces[i] = c.vm.tb.Cfg.Trace
	}
	return trace.MergeSpans(traces...)
}

// SpanDrops sums refused span Begins across the per-cell traces.
func (f *Fleet) SpanDrops() int64 {
	var d int64
	for _, c := range f.cells {
		d += c.vm.tb.Cfg.Trace.SpanDrops()
	}
	return d
}

// OpenSpans sums never-ended spans across the per-cell traces.
func (f *Fleet) OpenSpans() int {
	var n int
	for _, c := range f.cells {
		n += c.vm.tb.Cfg.Trace.OpenSpans()
	}
	return n
}

// CellTrace returns cell i's private trace (nil without Observe); the
// -race sink-isolation test uses it to prove cells share no emitter.
func (f *Fleet) CellTrace(i int) *trace.Trace { return f.cells[i].vm.tb.Cfg.Trace }

// CellRegistry returns cell i's private metrics registry (nil without
// Observe).
func (f *Fleet) CellRegistry(i int) *metrics.Registry { return f.cells[i].vm.tb.Cfg.Metrics }
