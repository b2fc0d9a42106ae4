package main

// metricDef names a reported metric with its unit and the direction that
// is better. The end-to-end bounds live in BENCHMARK.json alone; a test
// holds these tables and that file to the same names, units and
// directions.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of an untraced run. Host-time metrics are
// medians over the run's executions; sim_* metrics are deterministic per
// seed and identical in every execution.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},           // start to first Migrate: build, load, warm-up (summed over points)
	{"wall_s", "s", "lower"},            // the whole workload, setup included
	{"cpu_s", "s", "lower"},             // user + system over the same window
	{"peak_rss_mb", "MiB", "lower"},     // ru_maxrss of the execution's process
	{"live_heap_mb", "MiB", "lower"},    // live heap after each migration phase's forced GC, max over points
	{"alloc_mb", "MB", "lower"},         // heap bytes allocated over the window
	{"allocs_m", "million", "lower"},    // heap objects allocated over the window
	{"sim_mig_time", "sim_s", "lower"},  // Σ migration total time
	{"sim_downtime", "sim_ms", "lower"}, // Σ migration downtime
	{"sim_data_mb", "MB", "lower"},      // Σ bytes on the migration flows (Table III)
	{"sim_app_mops", "Mops", "higher"},  // Σ client operations completed (Table I)
}

// perLayer are the metrics of a traced run (bench/README.md maps each
// layer to the end-to-end metric it should move).
var perLayer = []metricDef{
	{"phase.build_s", "s", "lower"},
	{"phase.load_s", "s", "lower"},
	{"phase.warm_s", "s", "lower"},
	{"phase.migrate_s", "s", "lower"},
	{"phase.tail_s", "s", "lower"},

	{"sim.self_s", "s", "lower"},
	{"simnet.self_s", "s", "lower"},
	{"blockdev.self_s", "s", "lower"},
	{"cgroup.self_s", "s", "lower"},
	{"vmd.self_s", "s", "lower"},
	{"workload.self_s", "s", "lower"},
	{"core.self_s", "s", "lower"},
	{"guest.self_s", "s", "lower"},
	{"mem.self_s", "s", "lower"},
	{"host.self_s", "s", "lower"},
	{"cluster.self_s", "s", "lower"},
	{"dist.self_s", "s", "lower"},
	{"trace.self_s", "s", "lower"},
	{"metrics.self_s", "s", "lower"},
	{"rt.alloc.self_s", "s", "lower"},
	{"rt.gc.self_s", "s", "lower"},
	{"rt.other.self_s", "s", "lower"},

	{"sim.sim_s", "sim_s", "higher"},
	{"simnet.mb", "MB", "lower"},
	{"simnet.lost_msgs", "count", "lower"},
	{"blockdev.ops", "count", "lower"},
	{"blockdev.mb", "MB", "lower"},
	{"cgroup.swap_out_pages", "pages", "lower"},
	{"cgroup.swap_in_pages", "pages", "lower"},
	{"cgroup.cancelled_evict", "count", "lower"},
	{"cgroup.swap_full", "count", "lower"},
	{"vmd.writes", "pages", "lower"},
	{"vmd.reads", "pages", "lower"},
	{"vmd.retries", "count", "lower"},
	{"vmd.prefetched", "pages", "lower"},
	{"vmd.staged_reads", "pages", "higher"},
	{"workload.ops", "ops", "higher"},
	{"workload.stalled", "ops", "lower"},
	{"guest.faults", "count", "lower"},
	{"core.pages_sent", "pages", "lower"},
	{"core.rounds", "count", "lower"},
	{"core.demand_requests", "count", "lower"},
	{"core.offset_records", "count", "higher"},

	{"simnet.ns_per_kb", "ns/KiB", "lower"},
	{"blockdev.us_per_op", "us/op", "lower"},
	{"cgroup.ns_per_swap_page", "ns/page", "lower"},
	{"vmd.ns_per_op", "ns/page", "lower"},
	{"workload.ns_per_op", "ns/op", "lower"},
	{"guest.ns_per_fault", "ns/fault", "lower"},
	{"core.ns_per_page_sent", "ns/page", "lower"},
	{"rt.alloc.ns_per_object", "ns/object", "lower"},
	{"sim.host_s_per_sim_s", "s/sim_s", "lower"},

	{"vmd.retry_ratio", "ratio", "lower"},
	{"vmd.prefetch_hit_ratio", "ratio", "higher"},
	{"cgroup.cancel_ratio", "ratio", "lower"},
	{"core.resend_ratio", "ratio", "lower"},
	{"workload.stall_ratio", "ratio", "lower"},

	{"rt.gc_cycles", "count", "lower"},
	{"rt.gc_cpu_s", "s", "lower"},
	{"sim.parallelism", "ratio", "higher"},

	{"workload.op_p99_ms", "sim_ms", "lower"},
	{"vmd.read_p99_ms", "sim_ms", "lower"},
	{"core.demand_fault_p99_ms", "sim_ms", "lower"},

	{"trace.overhead_pct", "%", "lower"},
	{"trace.events", "count", "lower"},
	{"trace.spans", "count", "lower"},
	{"trace.drops", "count", "lower"},

	// The untraced execution's speed factor, which host times were scaled
	// by (see hostspeed.go), and its raw, unscaled wall time.
	{"bench.host_speed", "ratio", "higher"},
	{"bench.raw_wall_s", "s", "lower"},
}
