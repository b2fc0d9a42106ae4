package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"agilemig/internal/cluster"
	"agilemig/internal/core"
	"agilemig/internal/ctlplane"
	"agilemig/internal/detorder"
	"agilemig/internal/dist"
	"agilemig/internal/metrics"
	"agilemig/internal/sim"
	"agilemig/internal/trace"
)

// DrainOptions shapes the `drain` experiment: evacuate one loaded host
// through the declarative control plane, under an application-latency SLO,
// once per placement policy; then run the fleet-scale rack evacuation with
// a fault plan active to exercise the per-cell failure reporting.
type DrainOptions struct {
	Scale float64
	Seed  uint64
	// MaxConcurrent bounds simultaneously running migrations (default 4 —
	// the drain genuinely shares NICs and VMD bandwidth).
	MaxConcurrent int
	// MaxSeconds bounds the drain phase in simulated time.
	MaxSeconds float64

	// RackCells sizes the rack-evacuation phase (0 skips it; the agilesim
	// default is the full 32-cell rack).
	RackCells int
	// Shards is the parallel kernel width for the rack phase, whose cells
	// each run on their own engine. The policy phase is one testbed on
	// one engine.
	Shards int

	// Observe attaches trace/metrics sinks to the drain testbeds.
	Observe       bool
	TraceCapacity int
}

// DefaultDrainOptions returns the experiment defaults.
func DefaultDrainOptions() DrainOptions {
	return DrainOptions{
		Scale:         1,
		Seed:          1,
		MaxConcurrent: 4,
		MaxSeconds:    4000,
		RackCells:     32,
		Shards:        1,
	}
}

// DrainMigRow is one control-plane migration's outcome.
type DrainMigRow struct {
	VM                string
	Dest              string
	Phase             string
	Reason            string
	StartedAtSeconds  float64
	FinishedAtSeconds float64
	DowntimeSeconds   float64
	// P99Seconds is the VM's client-visible p99 op latency over the whole
	// run (warmup plus drain).
	P99Seconds float64
}

// DrainSpread is how many evacuated VMs one destination host received.
type DrainSpread struct {
	Host string
	VMs  int
}

// DrainPolicyResult is one placement policy's drain outcome.
type DrainPolicyResult struct {
	Policy string
	Rows   []DrainMigRow
	Counts ctlplane.Counts
	// DrainSeconds is submission of the first migration to completion of
	// the last.
	DrainSeconds float64
	// MaxP99Seconds is the worst per-VM client p99 latency.
	MaxP99Seconds float64
	SLOMet        bool
	Spread        []DrainSpread

	// Trace and Registry are the observability sinks (nil unless Observe).
	Trace    *trace.Trace
	Registry *metrics.Registry
}

// DrainReport bundles the policy comparison and the optional rack phase.
type DrainReport struct {
	SLOp99Seconds float64
	Policies      []DrainPolicyResult
	// Rack is the fleet-scale evacuation with the fault plan active (nil
	// when RackCells is 0).
	Rack *FleetReport
}

// drainVMs is the number of VMs evacuated from the loaded host.
const drainVMs = 6

// sloP99Seconds is the application p99 latency bound the drain is judged
// against.
const sloP99Seconds = 0.5

// RunDrain runs the host-drain comparison across both placement policies,
// then the faulted rack evacuation. Everything runs on simulated time;
// output is byte-identical at any Shards value and GOMAXPROCS.
func RunDrain(opt DrainOptions) DrainReport {
	if opt.Scale <= 0 {
		opt.Scale = 1
	}
	if opt.MaxConcurrent <= 0 {
		opt.MaxConcurrent = 4
	}
	if opt.MaxSeconds <= 0 {
		opt.MaxSeconds = 4000
	}
	rep := DrainReport{SLOp99Seconds: sloP99Seconds}
	policies := []ctlplane.PlacementPolicy{
		ctlplane.GreedyFreeRAM{},
		ctlplane.DestinationSwap{},
	}
	for _, pol := range policies {
		rep.Policies = append(rep.Policies, runDrainPolicy(opt, pol))
	}
	if opt.RackCells > 0 {
		rack := runDrainRack(opt)
		rep.Rack = &rack
	}
	return rep
}

// runDrainPolicy evacuates the loaded source host once under the given
// placement policy.
func runDrainPolicy(opt DrainOptions, pol ctlplane.PlacementPolicy) DrainPolicyResult {
	vmMem := scaleBytes(2*cluster.GiB, opt.Scale)
	resv := scaleBytes(1536*cluster.MiB, opt.Scale)
	dataset := scaleBytes(1536*cluster.MiB, opt.Scale)

	tcfg := cluster.DefaultConfig()
	tcfg.Seed = opt.Seed
	// The loaded source holds all six VMs; the default "dest" host is the
	// big destination the greedy policy piles onto. The drained machine is
	// a fat host with a 10 Gbps uplink (as is the client/VMD side), while
	// every candidate destination hangs off 1 Gbps — so the drain's
	// bottleneck is the destination NICs, which is exactly where placement
	// decides how much bandwidth each migration gets.
	tcfg.HostRAMBytes = scaleBytes(16*cluster.GiB, opt.Scale)
	tcfg.IntermediateRAMBytes = scaleBytes(48*cluster.GiB, opt.Scale)
	tcfg.NetBytesPerSec = 10 * cluster.GbpsBytes
	tcfg.DestNetBytesPerSec = cluster.GbpsBytes
	res := DrainPolicyResult{Policy: pol.Name()}
	if opt.Observe {
		capacity := opt.TraceCapacity
		if capacity <= 0 {
			capacity = trace.DefaultBusCapacity
		}
		res.Trace = trace.New(capacity)
		res.Registry = metrics.NewRegistry()
		tcfg.Trace = res.Trace
		tcfg.Metrics = res.Registry
	}
	tb := cluster.New(tcfg)
	// Heterogeneous smaller candidates: greedy ignores them (the big host
	// stays the free-RAM maximum assignment after assignment), the swap
	// policy spreads onto them.
	tb.AddHost("nodeb", scaleBytes(8*cluster.GiB, opt.Scale), cluster.GbpsBytes)
	tb.AddHost("nodec", scaleBytes(6*cluster.GiB, opt.Scale), cluster.GbpsBytes)
	tb.AddHost("noded", scaleBytes(6*cluster.GiB, opt.Scale), cluster.GbpsBytes)

	type vmState struct {
		h   *cluster.VMHandle
		lat *metrics.Histogram
	}
	var vms []vmState
	for i := 0; i < drainVMs; i++ {
		name := fmt.Sprintf("vm%d", i+1)
		h := tb.DeployVM(name, vmMem, resv, true)
		h.LoadDataset(dataset)
		ccfg := ycsbClient()
		ccfg.MaxOpsPerSecond = 4000
		c := h.AttachClient(ccfg, dist.NewUniform(h.Store.Records()))
		lat := metrics.NewHistogram(name+"/op.latency.seconds", metrics.DefaultLatencyBounds)
		c.SetLatencyHistogram(lat)
		vms = append(vms, vmState{h: h, lat: lat})
	}
	tb.RunSeconds(scaleSeconds(120, opt.Scale))

	ctl := ctlplane.NewController(tb.Eng, tb, ctlplane.Config{
		MaxConcurrent: opt.MaxConcurrent,
		Policy:        pol,
		Trace:         tcfg.Trace,
	})
	drainStart := tb.Eng.NowSeconds()
	// Cap each migration to half a destination NIC so the drain cannot
	// starve the application flows outright; time out stuck migrations
	// well past the expected transfer time.
	capBps := cluster.GbpsBytes / 2
	for _, v := range vms {
		ctl.Submit(ctlplane.Spec{
			VM:                      v.h.VM.Name(),
			Technique:               core.Agile,
			DestReservationBytes:    resv,
			BandwidthCapBytesPerSec: capBps,
			TimeoutSeconds:          scaleSeconds(1500, opt.Scale),
		})
	}
	deadline := drainStart + opt.MaxSeconds
	for !ctl.Done() && tb.Eng.NowSeconds() < deadline {
		tb.RunSeconds(1)
	}

	res.Counts = ctl.Counts()
	var lastDone float64
	spread := map[string]int{}
	for i, m := range ctl.Migrations() {
		row := DrainMigRow{
			VM:                m.Spec.VM,
			Dest:              m.Status.Dest,
			Phase:             m.Status.Phase.String(),
			Reason:            m.Status.Reason,
			StartedAtSeconds:  m.Status.StartedAtSeconds,
			FinishedAtSeconds: m.Status.FinishedAtSeconds,
			P99Seconds:        vms[i].lat.P99(),
		}
		if m.Status.Result != nil {
			row.DowntimeSeconds = m.Status.Result.DowntimeSeconds
		}
		if m.Status.Phase == ctlplane.PhaseSucceeded {
			spread[m.Status.Dest]++
			if m.Status.FinishedAtSeconds > lastDone {
				lastDone = m.Status.FinishedAtSeconds
			}
		}
		if row.P99Seconds > res.MaxP99Seconds {
			res.MaxP99Seconds = row.P99Seconds
		}
		res.Rows = append(res.Rows, row)
	}
	if lastDone > 0 {
		res.DrainSeconds = lastDone - drainStart
	}
	for _, hostName := range detorder.Keys(spread) {
		res.Spread = append(res.Spread, DrainSpread{Host: hostName, VMs: spread[hostName]})
	}
	res.SLOMet = res.Counts.Succeeded == res.Counts.Total && res.MaxP99Seconds < sloP99Seconds
	return res
}

// runDrainRack is the fleet-scale phase: a full rack evacuation with the
// PR-4 fault plan active on one cell — its source NIC goes down before the
// start commands and stays down past the migration watchdog, so the cell
// deterministically reports an aborted, reasoned row instead of wedging
// the fleet.
func runDrainRack(opt DrainOptions) FleetReport {
	cfg := cluster.DefaultFleetConfig()
	cfg.Cells = opt.RackCells
	if opt.Shards > 0 {
		cfg.Shards = opt.Shards
	}
	cfg.Seed = opt.Seed
	cfg.HostRAMBytes = scaleBytes(cfg.HostRAMBytes, opt.Scale)
	cfg.VMMemBytes = scaleBytes(cfg.VMMemBytes, opt.Scale)
	cfg.DatasetBytes = scaleBytes(cfg.DatasetBytes, opt.Scale)
	cfg.ReservationBytes = scaleBytes(cfg.ReservationBytes, opt.Scale)
	cfg.IntermediateRAMBytes = scaleBytes(cfg.IntermediateRAMBytes, opt.Scale)
	cfg.WarmupSeconds = scaleSeconds(cfg.WarmupSeconds, opt.Scale)
	cfg.MigrationTimeoutSeconds = 20
	if cfg.Cells > 1 {
		// Fault only cell 1: link down one second before the start
		// commands, up long after the watchdog fires.
		cfg.Faults = (&sim.FaultPlan{}).LinkFlap("source", cfg.WarmupSeconds-1, cfg.MigrationTimeoutSeconds+60)
		cfg.FaultCells = []int{1}
	}
	f := cluster.NewFleet(cfg)
	res := f.RunEvacuation(600)
	return FleetReport{
		Rows:       f.Rows(),
		Result:     res,
		SimSeconds: f.Group.Engine(0).NowSeconds(),
		Fleet:      f,
	}
}

// PrintDrain renders the per-policy comparison table, the per-migration
// detail, and the rack-phase summary.
func PrintDrain(w io.Writer, rep DrainReport) {
	table := metrics.NewTable(
		fmt.Sprintf("Host drain through the control plane (%d VMs, p99 SLO %.0f ms)",
			drainVMs, rep.SLOp99Seconds*1e3),
		"policy", "succeeded", "aborted/failed", "drain (s)", "max p99 (ms)", "SLO", "placement")
	for _, p := range rep.Policies {
		slo := "met"
		if !p.SLOMet {
			slo = "VIOLATED"
		}
		table.AddF(p.Policy,
			fmt.Sprintf("%d/%d", p.Counts.Succeeded, p.Counts.Total),
			p.Counts.Aborted+p.Counts.Failed,
			fmt.Sprintf("%.1f", p.DrainSeconds),
			fmt.Sprintf("%.1f", p.MaxP99Seconds*1e3),
			slo, spreadString(p.Spread))
	}
	fmt.Fprint(w, table.String())
	for _, p := range rep.Policies {
		detail := metrics.NewTable("policy "+p.Policy,
			"vm", "dest", "phase", "start (s)", "finish (s)", "downtime (s)", "p99 (ms)")
		for _, r := range p.Rows {
			phase := r.Phase
			if r.Reason != "" {
				phase += " (" + r.Reason + ")"
			}
			detail.AddF(r.VM, r.Dest, phase,
				fmt.Sprintf("%.2f", r.StartedAtSeconds),
				fmt.Sprintf("%.2f", r.FinishedAtSeconds),
				fmt.Sprintf("%.3f", r.DowntimeSeconds),
				fmt.Sprintf("%.1f", r.P99Seconds*1e3))
		}
		fmt.Fprint(w, detail.String())
	}
	if rep.Rack != nil {
		fmt.Fprintln(w, "Rack evacuation with fault plan active (cell 1 source link down):")
		PrintFleet(w, *rep.Rack)
	}
}

// spreadString renders a placement spread as "host:count host:count".
func spreadString(spread []DrainSpread) string {
	if len(spread) == 0 {
		return "-"
	}
	s := ""
	for i, d := range spread {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s:%d", d.Host, d.VMs)
	}
	return s
}

// WriteDrainCSV writes every policy's migration rows as CSV — one
// deterministic line per migration, used by the CI shard-equivalence diff.
func WriteDrainCSV(w io.Writer, rep DrainReport) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"policy", "vm", "dest", "phase", "reason", "started_s", "finished_s", "downtime_s", "p99_ms"}); err != nil {
		return err
	}
	for _, p := range rep.Policies {
		for _, r := range p.Rows {
			rec := []string{
				p.Policy, r.VM, r.Dest, r.Phase, r.Reason,
				fmt.Sprintf("%.3f", r.StartedAtSeconds),
				fmt.Sprintf("%.3f", r.FinishedAtSeconds),
				fmt.Sprintf("%.3f", r.DowntimeSeconds),
				strconv.FormatFloat(r.P99Seconds*1e3, 'f', 3, 64),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
