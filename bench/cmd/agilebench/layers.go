package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"agilemig/internal/blockdev"
	"agilemig/internal/cgroup"
	"agilemig/internal/cluster"
	"agilemig/internal/metrics"
	"agilemig/internal/simnet"
	"agilemig/internal/trace"
)

// observer collects a traced run's layer work counts, simulated latencies
// and trace volume. Testbed counts come from each layer's public
// accessors; the fleet's cells are private, so its counts come from the
// per-cell metrics registries, events and spans. Simulated latencies come
// from the registries' histograms on every workload. A nil observer is an
// untraced run.
type observer struct {
	traces []*trace.Trace
	opLat  *metrics.Histogram
	// groups holds every cgroup a VM of the current testbed lived in.
	groups []*cgroup.Group
	counts map[string]float64
	// lat merges the registries' latency histograms, by name suffix.
	lat map[string]*bucketHist
}

// Trace capacities. The structural spans of every migration fit; bulk
// VMD read spans and old events overflow, which trace.drops reports.
const (
	testbedTraceCap = 1 << 18
	fleetCellTrace  = 1 << 14
)

// Registry histograms merged into the simulated-latency metrics.
const (
	readLatency   = "/read.latency.seconds"   // per VMD namespace
	demandLatency = "/demand.latency.seconds" // per migrating VM
)

func newObserver() *observer {
	return &observer{
		opLat:  metrics.NewHistogram("bench/op.latency.seconds", oneMsBounds()),
		counts: map[string]float64{},
		lat:    map[string]*bucketHist{readLatency: {}, demandLatency: {}},
	}
}

// observeConfig attaches a fresh trace and metrics registry to a testbed.
func (r *run) observeConfig(cfg *cluster.Config) {
	if r.obs == nil {
		return
	}
	cfg.Trace = trace.New(testbedTraceCap)
	cfg.Metrics = metrics.NewRegistry()
	r.obs.traces = append(r.obs.traces, cfg.Trace)
}

// observeFleet turns on the fleet's per-cell trace and metrics sinks.
func (r *run) observeFleet(cfg *cluster.FleetConfig) {
	if r.obs == nil {
		return
	}
	cfg.Observe = true
	cfg.TraceCapacity = fleetCellTrace
}

// observeClient hooks a freshly deployed VM's client-latency sink and
// remembers its source cgroup.
func (r *run) observeClient(h *cluster.VMHandle) {
	if r.obs == nil {
		return
	}
	h.Client.SetLatencyHistogram(r.obs.opLat)
	r.obs.groups = append(r.obs.groups, h.VM.Group())
}

func (o *observer) add(name string, v float64) { o.counts[name] += v }

// migrationDone accounts a testbed migration's core counts.
func (o *observer) migrationDone(h *cluster.VMHandle) {
	if o == nil || h.Result == nil {
		return
	}
	res := h.Result
	o.add("core.pages_sent", float64(res.PagesSent))
	o.add("core.rounds", float64(res.Rounds))
	o.add("core.demand_requests", float64(res.DemandRequests))
	o.add("core.offset_records", float64(res.OffsetRecords))
	o.add("core.vm_pages", float64(h.VM.Pages()))
}

// testbedDone reads a finished testbed's layer counters and latency
// histograms.
func (r *run) testbedDone(tb *cluster.Testbed, handles []*cluster.VMHandle) {
	o := r.obs
	if o == nil {
		return
	}
	nics := []*simnet.NIC{tb.Source.NIC(), tb.Dest.NIC(), tb.ClientNIC}
	for _, s := range tb.VMD.Servers() {
		if nic := tb.Net.NICByName(s.Name()); nic != nil {
			nics = append(nics, nic)
		}
	}
	for _, nic := range nics {
		o.add("simnet.mb", float64(nic.BytesSent())/1e6)
		o.add("simnet.lost_msgs", float64(nic.MessagesLost()))
	}
	for _, d := range []*blockdev.Device{tb.Source.SwapDevice(), tb.Dest.SwapDevice()} {
		rd, wr := d.Ops()
		o.add("blockdev.ops", float64(rd+wr))
		o.add("blockdev.mb", float64(d.BytesRead()+d.BytesWritten())/1e6)
	}
	for _, c := range tb.VMD.Clients() {
		w, rd, retried := c.Stats()
		_, _, staged, _, _ := c.ReadsByOrigin()
		o.add("vmd.writes", float64(w))
		o.add("vmd.reads", float64(rd))
		o.add("vmd.retries", float64(retried))
		o.add("vmd.prefetched", float64(c.PrefetchedPages()))
		o.add("vmd.staged_reads", float64(staged))
	}
	for _, h := range handles {
		_, _, stalled := h.Client.Stats()
		o.add("workload.ops", float64(h.Client.OpsCompleted()))
		o.add("workload.stalled", float64(stalled))
		o.add("guest.faults", float64(h.VM.Faults()))
		o.groups = append(o.groups, h.VM.Group())
	}
	seen := map[*cgroup.Group]bool{}
	for _, g := range o.groups {
		if g == nil || seen[g] {
			continue
		}
		seen[g] = true
		st := g.Stats()
		o.add("cgroup.swap_out_pages", float64(st.SwapOutPages))
		o.add("cgroup.swap_in_pages", float64(st.SwapInPages))
		o.add("cgroup.cancelled_evict", float64(st.CancelledEvict))
		o.add("cgroup.swap_full", float64(st.SwapFullEvents))
	}
	o.groups = nil
	if err := scanRegistry(tb.Cfg.Metrics, o.mergeLatency); err != nil {
		r.problem("%v", err)
	}
}

// fleetSuffixes maps per-cell registry metric names to layer counts
// (bytes are converted to MB).
var fleetSuffixes = []struct{ prefix, suffix, count string }{
	{"net/", "/tx.bytes", "simnet.mb"},
	{"disk/", "/read.ops", "blockdev.ops"},
	{"disk/", "/write.ops", "blockdev.ops"},
	{"disk/", "/read.bytes", "blockdev.mb"},
	{"disk/", "/written.bytes", "blockdev.mb"},
	{"", "/swapout.pages", "cgroup.swap_out_pages"},
	{"", "/swapin.pages", "cgroup.swap_in_pages"},
	{"vmd/", "/written.pages", "vmd.writes"},
	{"vmd/", "/read.pages", "vmd.reads"},
	{"vmd/", "/retries", "vmd.retries"},
	{"vmd/", "/prefetched.pages", "vmd.prefetched"},
	{"vmd/", "/staged.reads", "vmd.staged_reads"},
}

// finishFleet reads the fleet's layer counts from its per-cell registries,
// events and spans. Demand requests are the demand-latency histograms'
// counts. Cancelled evictions, stalled operations, guest faults, offset
// records and client op latency have no public path out of a fleet cell,
// so they read 0 for this workload.
func (r *run) finishFleet(f *cluster.Fleet) {
	o := r.obs
	if o == nil {
		return
	}
	o.add("workload.ops", float64(r.appOps))
	for i := range f.Rows() {
		err := scanRegistry(f.CellRegistry(i), func(rec registryRecord) {
			o.mergeLatency(rec)
			if rec.Type == "histogram" && strings.HasSuffix(rec.Name, demandLatency) {
				for _, c := range rec.Buckets {
					o.add("core.demand_requests", float64(c))
				}
			}
			if rec.Type != "gauge" && rec.Type != "counter" {
				return
			}
			for _, s := range fleetSuffixes {
				if strings.HasPrefix(rec.Name, s.prefix) && strings.HasSuffix(rec.Name, s.suffix) {
					v := rec.Value
					if strings.HasSuffix(s.count, ".mb") {
						v /= 1e6
					}
					o.add(s.count, v)
				}
			}
		})
		if err != nil {
			r.problem("fleet: %v", err)
			return
		}
		tr := f.CellTrace(i)
		o.traces = append(o.traces, tr)
		o.add("simnet.lost_msgs", float64(tr.Count(trace.MessageLost)))
		o.add("cgroup.swap_full", float64(tr.Count(trace.CgroupSwapFull)))
		for _, sp := range tr.Spans() {
			switch sp.Name {
			case "migration":
				o.add("core.pages_sent", sp.NumAttr("pages-sent"))
				o.add("core.vm_pages", sp.NumAttr("pages"))
			case "round", "stop-and-copy":
				o.add("core.rounds", 1)
			}
		}
	}
}

// registryRecord is one line of a metrics registry's JSONL export.
type registryRecord struct {
	Type    string
	Name    string
	Value   float64
	Bounds  []float64
	Buckets []int64
}

// scanRegistry calls fn for every instrument the registry exports.
func scanRegistry(reg *metrics.Registry, fn func(registryRecord)) error {
	var buf bytes.Buffer
	if err := reg.WriteJSONL(&buf); err != nil {
		return fmt.Errorf("registry export: %w", err)
	}
	sc := bufio.NewScanner(&buf)
	sc.Buffer(nil, 1<<26) // a sampled series is one long line
	for sc.Scan() {
		var rec registryRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return fmt.Errorf("registry line: %w", err)
		}
		fn(rec)
	}
	return sc.Err()
}

// mergeLatency folds a registry latency histogram into the run's.
func (o *observer) mergeLatency(rec registryRecord) {
	if rec.Type != "histogram" {
		return
	}
	for _, suffix := range []string{readLatency, demandLatency} {
		if strings.HasSuffix(rec.Name, suffix) {
			o.lat[suffix].add(rec.Bounds, rec.Buckets)
		}
	}
}

// bucketHist is the sum of histograms that share bucket bounds (every
// simulator latency histogram uses metrics.DefaultLatencyBounds).
type bucketHist struct {
	bounds []float64
	counts []int64 // len(bounds)+1; the last is the overflow bucket
	n      int64
}

func (h *bucketHist) add(bounds []float64, counts []int64) {
	if h.counts == nil {
		h.bounds = bounds
		h.counts = make([]int64, len(counts))
	}
	if len(counts) != len(h.counts) {
		return // a histogram with other bounds cannot be summed
	}
	for i, c := range counts {
		h.counts[i] += c
		h.n += c
	}
}

// p99ms interpolates the 99th percentile within its bucket, as
// metrics.Histogram does, in milliseconds.
func (h *bucketHist) p99ms() float64 {
	if h.n == 0 {
		return 0
	}
	target := 0.99 * float64(h.n)
	var cum int64
	for i, c := range h.counts {
		if float64(cum+c) >= target && c > 0 {
			lo, hi := 0.0, h.bounds[len(h.bounds)-1]
			if i > 0 {
				lo = h.bounds[i-1]
			}
			if i < len(h.bounds) {
				hi = h.bounds[i]
			}
			return 1000 * (lo + (hi-lo)*(target-float64(cum))/float64(c))
		}
		cum += c
	}
	return 1000 * h.bounds[len(h.bounds)-1]
}

// layerCounts are the per-layer work counts, reported as measured.
var layerCounts = []string{
	"simnet.mb", "simnet.lost_msgs",
	"blockdev.ops", "blockdev.mb",
	"cgroup.swap_out_pages", "cgroup.swap_in_pages", "cgroup.cancelled_evict", "cgroup.swap_full",
	"vmd.writes", "vmd.reads", "vmd.retries", "vmd.prefetched", "vmd.staged_reads",
	"workload.ops", "workload.stalled",
	"guest.faults",
	"core.pages_sent", "core.rounds", "core.demand_requests", "core.offset_records",
}

// layerMetrics fills m with every per-layer metric of a traced run: phase
// times, self time per layer, work counts, unit costs, useful-to-attempted
// ratios, runtime, simulated latencies and trace volume. trace.overhead_pct
// and bench.host_speed need the untraced execution and are added by the
// caller.
func (o *observer) layerMetrics(m map[string]float64, r *run, window usage, self map[string]float64) {
	for p := phase(0); p < numPhases; p++ {
		m["phase."+phaseNames[p]+"_s"] = r.wall[p].Seconds()
	}
	for _, b := range selfBuckets {
		m[b+".self_s"] = self[b]
	}
	c := o.counts
	m["sim.sim_s"] = r.simSeconds
	for _, name := range layerCounts {
		m[name] = c[name]
	}
	per := func(num, den float64) float64 {
		if den <= 0 {
			return 0
		}
		return num / den
	}
	m["simnet.ns_per_kb"] = per(self["simnet"]*1e9, c["simnet.mb"]*1e6/1024)
	m["blockdev.us_per_op"] = per(self["blockdev"]*1e6, c["blockdev.ops"])
	m["cgroup.ns_per_swap_page"] = per(self["cgroup"]*1e9, c["cgroup.swap_out_pages"]+c["cgroup.swap_in_pages"])
	m["vmd.ns_per_op"] = per(self["vmd"]*1e9, c["vmd.writes"]+c["vmd.reads"])
	m["workload.ns_per_op"] = per(self["workload"]*1e9, c["workload.ops"])
	m["guest.ns_per_fault"] = per(self["guest"]*1e9, c["guest.faults"])
	m["core.ns_per_page_sent"] = per(self["core"]*1e9, c["core.pages_sent"])
	m["rt.alloc.ns_per_object"] = per(self["rt.alloc"]*1e9, float64(window.allocN))
	m["sim.host_s_per_sim_s"] = per(window.wall.Seconds(), r.simSeconds)

	m["vmd.retry_ratio"] = per(c["vmd.retries"], c["vmd.writes"]+c["vmd.reads"])
	m["vmd.prefetch_hit_ratio"] = per(c["vmd.staged_reads"], c["vmd.prefetched"])
	m["cgroup.cancel_ratio"] = per(c["cgroup.cancelled_evict"], c["cgroup.swap_out_pages"]+c["cgroup.cancelled_evict"])
	m["core.resend_ratio"] = per(c["core.pages_sent"], c["core.vm_pages"])
	m["workload.stall_ratio"] = per(c["workload.stalled"], c["workload.ops"])

	m["rt.gc_cycles"] = float64(window.gcCycles)
	m["rt.gc_cpu_s"] = window.gcCPUSecs
	m["sim.parallelism"] = per(r.cpu[phMigrate].Seconds(), r.wall[phMigrate].Seconds())

	m["workload.op_p99_ms"] = 0
	if o.opLat.Count() > 0 {
		m["workload.op_p99_ms"] = o.opLat.P99() * 1000
	}
	m["vmd.read_p99_ms"] = o.lat[readLatency].p99ms()
	m["core.demand_fault_p99_ms"] = o.lat[demandLatency].p99ms()

	var events, spans, drops float64
	for _, tr := range o.traces {
		events += float64(tr.Len()) + float64(tr.Drops())
		spans += float64(len(tr.Spans()))
		drops += float64(tr.Drops() + tr.SpanDrops())
	}
	m["trace.events"] = events
	m["trace.spans"] = spans
	m["trace.drops"] = drops
}
