package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"

	"agilemig/internal/cluster"
	"agilemig/internal/sim"
)

// phase indexes the host-time phases of the public calls a workload makes.
type phase int

const (
	phBuild   phase = iota // cluster.New or NewFleet, DeployVM, AttachClient
	phLoad                 // LoadDataset
	phWarm                 // the pre-migration RunSeconds
	phMigrate              // Migrate through RunUntilMigrated, or the evacuation
	phTail                 // the post-migration run
	numPhases
)

var phaseNames = [numPhases]string{"build", "load", "warm", "migrate", "tail"}

// migration is one migration's simulated outcome. Every field is a
// deterministic function of the workload and seed.
type migration struct {
	Point     string
	Outcome   string
	Total     float64 // simulated seconds
	Downtime  float64 // simulated seconds
	Bytes     int64
	LostPages int64
	LostReads int64
	// ReadP99Ms is farmem's demand-read p99 from the sink installed before
	// the migration. It stays out of the digest: with a metrics registry
	// attached, reads issued before the sink was installed also report to
	// it, so a traced run observes a few more reads of the same simulation.
	ReadP99Ms float64 `json:"-"`
}

// run is one execution of one workload in this process. The workload
// calls the cluster API through it; it times each call's phase, keeps the
// cost of heap readings out of the measured window, and collects the
// simulated outcome.
type run struct {
	seed   uint64
	tiny   bool
	shards int       // fleet shard count override (tests); 0 keeps 2
	obs    *observer // non-nil in a traced run
	// meters time the host's speed in an untraced run: meters[0] on the
	// benchmark's goroutine, then one per further shard of a parallel run.
	meters []*speedMeter

	wall [numPhases]time.Duration
	cpu  [numPhases]time.Duration
	// pause is what the heap readings cost; it is subtracted from the
	// measured window.
	pause    usage
	liveHeap uint64

	migs       []migration
	appOps     int64
	simSeconds float64
	problems   []string
}

func (r *run) problem(format string, args ...interface{}) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// timed runs fn and charges its host wall and CPU time to phase p.
// Speed-meter bursts inside fn are not charged.
func (r *run) timed(p phase, fn func()) {
	bw0, bc0 := spent(r.meters)
	t0, c0 := time.Now(), processCPU()
	fn()
	if len(r.meters) > 0 {
		r.meters[0].maybe()
	}
	bw1, bc1 := spent(r.meters)
	r.wall[p] += time.Since(t0) - (bw1 - bw0)
	r.cpu[p] += processCPU() - c0 - (bc1 - bc0)
}

// heapMark reads the live heap at the end of a migration phase: a forced
// GC, then /gc/heap/live:bytes. Its cost is kept out of the window.
func (r *run) heapMark() {
	before := takeUsage()
	runtime.GC()
	live := readUint64("/gc/heap/live:bytes")
	if live > r.liveHeap {
		r.liveHeap = live
	}
	r.pause = r.pause.plus(takeUsage().minus(before))
}

// meter lets the run's speed meters burst from inside a simulation:
// meters[0] on eng, which the benchmark's goroutine runs, and a new meter
// on each of shards, which run on goroutines of their own.
func (r *run) meter(eng *sim.Engine, shards ...*sim.Engine) {
	if len(r.meters) == 0 {
		return
	}
	r.meters[0].attach(eng)
	for _, e := range shards {
		m, err := newSpeedMeter(r.tiny)
		if err != nil {
			r.problem("%v", err)
			return
		}
		m.attach(e)
		r.meters = append(r.meters, m)
	}
}

// releaseMeters unmaps the run's speed meters once their bursts are read.
func (r *run) releaseMeters() error {
	for _, m := range r.meters {
		if err := m.release(); err != nil {
			return fmt.Errorf("speed meter: unmap working set: %w", err)
		}
	}
	r.meters = nil
	return nil
}

// runWorkload runs w, turning a simulator panic on this goroutine into a
// failed migration, so the run still reports its result.
func (r *run) runWorkload(w workload) {
	defer func() {
		if p := recover(); p != nil {
			r.migs = append(r.migs, migration{Point: "in flight", Outcome: fmt.Sprint("simulator panic: ", p)})
		}
	}()
	w.run(r)
}

// recordMigration appends h's migration outcome.
func (r *run) recordMigration(point string, h *cluster.VMHandle, out cluster.Outcome) {
	m := migration{Point: point, Outcome: out.String(), LostPages: h.NS.LostPages(), LostReads: h.NS.LostReads()}
	if h.Result != nil {
		m.Total = h.Result.TotalSeconds
		m.Downtime = h.Result.DowntimeSeconds
		m.Bytes = h.Result.BytesTransferred
	}
	r.migs = append(r.migs, m)
	r.obs.migrationDone(h)
}

// finishTestbed accounts a finished testbed: its clients' operations, its
// simulated time and, in a traced run, its layers' work counts.
func (r *run) finishTestbed(tb *cluster.Testbed, handles []*cluster.VMHandle) {
	for _, h := range handles {
		r.appOps += h.Client.OpsCompleted()
	}
	r.simSeconds += tb.Eng.NowSeconds()
	r.testbedDone(tb, handles)
}

// usage is a reading of the process's resource counters.
type usage struct {
	wall      time.Duration // since an arbitrary origin
	cpu       time.Duration // user + system
	allocB    uint64
	allocN    uint64
	gcCycles  uint64
	gcCPUSecs float64
}

var origin = time.Now()

func takeUsage() usage {
	s := []rtmetrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	rtmetrics.Read(s)
	return usage{
		wall:      time.Since(origin),
		cpu:       processCPU(),
		allocB:    s[0].Value.Uint64(),
		allocN:    s[1].Value.Uint64(),
		gcCycles:  s[2].Value.Uint64(),
		gcCPUSecs: s[3].Value.Float64(),
	}
}

func (u usage) minus(v usage) usage {
	return usage{u.wall - v.wall, u.cpu - v.cpu, u.allocB - v.allocB, u.allocN - v.allocN,
		u.gcCycles - v.gcCycles, u.gcCPUSecs - v.gcCPUSecs}
}

func (u usage) plus(v usage) usage {
	return usage{u.wall + v.wall, u.cpu + v.cpu, u.allocB + v.allocB, u.allocN + v.allocN,
		u.gcCycles + v.gcCycles, u.gcCPUSecs + v.gcCPUSecs}
}

func readUint64(name string) uint64 {
	s := []rtmetrics.Sample{{Name: name}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// RUSAGE_SELF cannot fail on a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func processCPU() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sample is what one workload execution reports to the run that started
// it: the outcome digest, the failure accounting and every metric value.
type sample struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Digest    string             `json:"digest"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
}

// execute runs workload w once in this process and measures it. A traced
// execution attaches the trace and metrics sinks and takes a CPU profile,
// and reports the per-layer metrics as well.
func execute(w workload, seed uint64, tiny, traced bool) (sample, error) {
	// agilesim's setting: the simulator's live heap is small next to its
	// allocation rate, so GC runs rarely.
	debug.SetGCPercent(800)
	r := &run{seed: seed, tiny: tiny}
	var prof bytes.Buffer
	if !traced {
		m, err := newSpeedMeter(tiny)
		if err != nil {
			return sample{}, err
		}
		r.meters = []*speedMeter{m}
	} else {
		r.obs = newObserver()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return sample{}, fmt.Errorf("start CPU profile: %w", err)
		}
	}
	start := takeUsage()
	r.runWorkload(w)
	window := takeUsage().minus(start).minus(r.pause)
	if traced {
		pprof.StopCPUProfile()
	}
	bw, bc := spent(r.meters)
	window.wall -= bw
	window.cpu -= bc
	speed := speedFactor(r.meters)
	if err := r.releaseMeters(); err != nil {
		return sample{}, err
	}

	smp := sample{Workload: w.name, Traced: traced, Metrics: map[string]float64{}}
	smp.Digest, smp.Attempted, smp.Failed, smp.Problems = r.verdict(w.name)
	m := smp.Metrics
	m["setup_s"] = speed * (r.wall[phBuild] + r.wall[phLoad] + r.wall[phWarm]).Seconds()
	m["wall_s"] = speed * window.wall.Seconds()
	m["cpu_s"] = speed * window.cpu.Seconds()
	m["raw_wall_s"] = window.wall.Seconds()
	m["host_speed"] = speed
	m["peak_rss_mb"] = float64(rusage().Maxrss) / 1024 // Linux reports KiB
	m["live_heap_mb"] = float64(r.liveHeap) / (1 << 20)
	m["alloc_mb"] = float64(window.allocB) / 1e6
	m["allocs_m"] = float64(window.allocN) / 1e6
	for _, mg := range r.migs {
		m["sim_mig_time"] += mg.Total
		m["sim_downtime"] += mg.Downtime * 1000
		m["sim_data_mb"] += float64(mg.Bytes) / 1e6
	}
	m["sim_app_mops"] = float64(r.appOps) / 1e6
	if traced {
		self, err := selfTimes(prof.Bytes())
		if err != nil {
			return sample{}, err
		}
		r.obs.layerMetrics(m, r, window, self)
	}
	return smp, nil
}

// verdict digests the simulated outcome and counts the failed migrations:
// a migration fails if it did not complete or lost data. Workload-level
// shape checks from the paper add problems without failing a migration.
func (r *run) verdict(name string) (digest string, attempted, failed int, problems []string) {
	problems = append(problems, r.problems...)
	for _, m := range r.migs {
		attempted++
		if m.Outcome != cluster.OutcomeCompleted.String() || m.LostPages > 0 || m.LostReads > 0 {
			failed++
			problems = append(problems, fmt.Sprintf("%s: %s, %d lost pages, %d lost reads", m.Point, m.Outcome, m.LostPages, m.LostReads))
		}
	}
	if attempted == 0 {
		attempted, failed = 1, 1
		problems = append(problems, name+": no migration ran")
	}
	problems = append(problems, shapeProblems(name, r.migs)...)
	b, err := json.Marshal(struct {
		Migrations []migration
		AppOps     int64
		SimSeconds float64
	}{r.migs, r.appOps, r.simSeconds})
	if err != nil {
		panic(err) // plain structs always marshal
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:12]), attempted, failed, problems
}

// shapeProblems checks the paper's headline shapes on the workload's own
// outputs, so a change that keeps every migration completing but breaks
// the model still reads as incorrect.
func shapeProblems(name string, migs []migration) []string {
	var out []string
	find := func(point string) *migration {
		for i := range migs {
			if migs[i].Point == point {
				return &migs[i]
			}
		}
		out = append(out, name+": missing point "+point)
		return &migration{}
	}
	for _, m := range migs {
		if m.Total <= 0 || m.Bytes <= 0 || m.Downtime <= 0 || m.Downtime > m.Total {
			out = append(out, fmt.Sprintf("%s: implausible migration %+v", name, m))
		}
	}
	switch name {
	case "sweep":
		// Figures 7-8: past host memory Agile moves less data, and does so
		// faster, than pre-copy.
		for _, size := range []string{"8GB", "10GB"} {
			pre, agile := find("pre-copy/"+size), find("agile/"+size)
			if agile.Bytes >= pre.Bytes || agile.Total >= pre.Total {
				out = append(out, fmt.Sprintf("sweep %s: agile (%.1fs, %d B) not ahead of pre-copy (%.1fs, %d B)",
					size, agile.Total, agile.Bytes, pre.Total, pre.Bytes))
			}
		}
	case "farmem":
		// vmdsweep's headline: readahead cuts the demand-read tail.
		flat, pf := find("v1 flat"), find("+prefetch")
		if pf.ReadP99Ms >= flat.ReadP99Ms {
			out = append(out, fmt.Sprintf("farmem: prefetch read p99 %.2fms not below flat %.2fms", pf.ReadP99Ms, flat.ReadP99Ms))
		}
	}
	return out
}
