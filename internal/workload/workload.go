// Package workload drives VMs the way the paper's benchmarks do: an
// in-memory key-value dataset (Redis under YCSB) or an OLTP table (MySQL
// under Sysbench) mapped onto guest pages, queried by closed-loop clients
// on an external host. Operation throughput emerges from the simulation:
// every operation pays network request/response bytes on the real simulated
// NICs and stalls on real page faults when it touches non-resident pages,
// so memory pressure, swap-device queueing and migration traffic all show
// up as reduced ops/s exactly as they do in the paper's figures.
package workload

import (
	"agilemig/internal/dist"
	"agilemig/internal/guest"
	"agilemig/internal/mem"
	"agilemig/internal/metrics"
	"agilemig/internal/sim"
	"agilemig/internal/simnet"
)

// KVStore maps a dataset of fixed-size records onto a contiguous range of
// guest pages, standing in for Redis's or InnoDB's in-memory image.
type KVStore struct {
	vm          *guest.VM
	basePage    mem.PageID
	pages       int
	recordBytes int64
	records     int64
}

// NewKVStore lays a dataset of datasetBytes (recordBytes per record) into
// the VM's memory starting at offsetBytes.
func NewKVStore(vm *guest.VM, offsetBytes, datasetBytes, recordBytes int64) *KVStore {
	if recordBytes <= 0 || recordBytes > mem.PageSize {
		panic("workload: record size must be in (0, PageSize]")
	}
	base := mem.PageID(mem.BytesToPages(offsetBytes))
	pages := mem.BytesToPages(datasetBytes)
	if int(base)+pages > vm.Pages() {
		panic("workload: dataset does not fit in VM memory")
	}
	return &KVStore{
		vm:          vm,
		basePage:    base,
		pages:       pages,
		recordBytes: recordBytes,
		records:     datasetBytes / recordBytes,
	}
}

// VM returns the VM holding the dataset.
func (s *KVStore) VM() *guest.VM { return s.vm }

// Records returns the number of records.
func (s *KVStore) Records() int64 { return s.records }

// Pages returns the dataset size in pages.
func (s *KVStore) Pages() int { return s.pages }

// DatasetBytes returns the dataset size in bytes.
func (s *KVStore) DatasetBytes() int64 { return mem.PagesToBytes(s.pages) }

// PageOfRecord returns the guest page holding the given record.
func (s *KVStore) PageOfRecord(rec int64) mem.PageID {
	if rec < 0 || rec >= s.records {
		panic("workload: record out of range")
	}
	return s.basePage + mem.PageID(mem.BytesToPages(rec*s.recordBytes))
}

// Load populates the whole dataset (the "load the 9 GB Redis dataset"
// setup step). It bulk-writes the pages; the caller runs the simulation
// afterwards so reclaim can push the cold excess to the swap device.
func (s *KVStore) Load() {
	s.vm.BulkPopulate(s.basePage, s.basePage+mem.PageID(s.pages))
}

// ClientConfig shapes a closed-loop benchmark client.
type ClientConfig struct {
	Name string
	// MaxOpsPerSecond is the client+server CPU ceiling: the throughput
	// observed when every touched page is resident and the network is idle.
	MaxOpsPerSecond float64
	// Concurrency is the number of outstanding operations (YCSB threads).
	Concurrency int
	// WriteFraction of operations issue writes (dirtying pages).
	WriteFraction float64
	// PagesPerRead / PagesPerWrite are the guest pages touched per
	// operation (record page plus server-side structures).
	PagesPerRead  int
	PagesPerWrite int
	// WritePagesDirtied is how many of a write operation's touched pages
	// are actually modified (an OLTP transaction reads many B-tree pages
	// but dirties only the updated rows and index leaves). Zero means all
	// touched pages are dirtied.
	WritePagesDirtied int
	// RequestBytes / ResponseBytes travel on the client's flows for every
	// operation — this is the application traffic that migration streams
	// interfere with.
	RequestBytes  int64
	ResponseBytes int64
}

// YCSB returns the YCSB/Redis client shape used by the paper's §V-A: 1 KiB
// records, one record page plus one server-structure page per access.
// Although §V-A issues read-only operations, Redis updates the accessed
// object's LRU clock on every read, dirtying the record's page — which is
// exactly why the paper's pre-copy retransmits ~5 GB against a "read-only"
// workload. Every operation therefore counts as a one-page write for the
// migration dirty log.
func YCSB() ClientConfig {
	return ClientConfig{
		Name:              "ycsb",
		MaxOpsPerSecond:   25_000,
		Concurrency:       64,
		WriteFraction:     1.0,
		PagesPerRead:      2,
		PagesPerWrite:     2,
		WritePagesDirtied: 1, // the robj LRU update dirties the record page only
		RequestBytes:      64,
		ResponseBytes:     1100,
	}
}

// Sysbench returns the Sysbench-OLTP/MySQL client shape used by §V-C:
// transactions that touch many B-tree pages and write a fraction of them.
func Sysbench() ClientConfig {
	return ClientConfig{
		Name:              "sysbench",
		MaxOpsPerSecond:   120,
		Concurrency:       16,
		WriteFraction:     1.0, // every OLTP transaction includes writes
		PagesPerRead:      20,
		PagesPerWrite:     24, // B-tree traversals plus the updated rows
		WritePagesDirtied: 10, // rows, index leaves, undo/redo pages
		RequestBytes:      512,
		ResponseBytes:     4096,
	}
}

// Client is one closed-loop benchmark client running on an external host.
type Client struct {
	eng   *sim.Engine
	cfg   ClientConfig
	store *KVStore
	rng   *sim.RNG
	d     dist.Dist

	reqFlow  *simnet.Flow // client host -> VM host
	respFlow *simnet.Flow // VM host -> client host

	tokens   float64
	perTick  float64
	inflight int
	paused   bool

	opsCompleted int64
	readsDone    int64
	writesDone   int64
	stalledOps   int64

	// lat, when set, observes each operation's client-visible latency in
	// seconds (issue to response arrival). Nil keeps the fast path
	// observation-free. secPerTick converts an op's issue tick to the
	// seconds the engine's clock would have read then.
	lat        *metrics.Histogram
	secPerTick float64

	// free is a freelist of op records. Each op's lifecycle spans several
	// network and fault callbacks; pooling the record and its three
	// callbacks keeps the per-operation path allocation-free.
	free []*op
}

// op carries one operation's state across its request, page-touch and
// response callbacks. The callbacks are bound once when the op record is
// first created and reused across recycles.
type op struct {
	c        *Client
	rec      int64
	write    bool
	respFlow *simnet.Flow
	pending  int
	stalled  bool
	issuedAt sim.Time // for the latency histogram

	executeF func() // request delivered at the VM host
	finishF  func() // one touched page became usable
	doneF    func() // response delivered back at the client
}

// NewClient creates a client and registers it in sim.PhaseWorkload. The
// distribution draws record indices; use SetDist to change the queried
// fraction mid-run (the pressure ramp in Figures 4-6).
func NewClient(eng *sim.Engine, cfg ClientConfig, store *KVStore, d dist.Dist,
	reqFlow, respFlow *simnet.Flow, rng *sim.RNG) *Client {
	if cfg.Concurrency <= 0 || cfg.MaxOpsPerSecond <= 0 {
		panic("workload: client with no capacity")
	}
	c := &Client{
		eng:        eng,
		cfg:        cfg,
		store:      store,
		rng:        rng,
		d:          d,
		reqFlow:    reqFlow,
		respFlow:   respFlow,
		perTick:    cfg.MaxOpsPerSecond * eng.TickLen().Seconds(),
		secPerTick: eng.TickLen().Seconds(),
	}
	eng.AddTicker(sim.PhaseWorkload, c)
	return c
}

// SetDist replaces the record distribution (e.g. widening the queried
// fraction from 200 MB to 6 GB).
func (c *Client) SetDist(d dist.Dist) {
	if d.N() > c.store.Records() {
		panic("workload: distribution wider than dataset")
	}
	c.d = d
}

// SetFlows retargets the client at a new VM location (called when a
// migration switches execution to the destination host).
func (c *Client) SetFlows(req, resp *simnet.Flow) {
	c.reqFlow = req
	c.respFlow = resp
}

// Pause stops issuing new operations (in-flight ones complete).
func (c *Client) Pause() { c.paused = true }

// Unpause resumes issuing operations.
func (c *Client) Unpause() { c.paused = false }

// OpsCompleted returns the cumulative completed operation count.
func (c *Client) OpsCompleted() int64 { return c.opsCompleted }

// Stats returns cumulative (reads, writes, stalled) operation counts.
func (c *Client) Stats() (reads, writes, stalled int64) {
	return c.readsDone, c.writesDone, c.stalledOps
}

// InFlight returns the number of outstanding operations.
func (c *Client) InFlight() int { return c.inflight }

// SetLatencyHistogram starts recording each operation's client-visible
// latency (seconds from issue to response arrival) into h; nil turns
// recording back off. Experiments with latency SLOs (the drain scenario's
// p99 bound) use this to judge application impact during migrations.
func (c *Client) SetLatencyHistogram(h *metrics.Histogram) { c.lat = h }

// Tick paces new operations under the token bucket and concurrency cap.
// The server VM's CPU quota scales the effective service rate (vCPU
// throttling slows the server, not the client).
func (c *Client) Tick(_ sim.Time) {
	c.tokens += c.perTick * c.store.VM().CPUQuota()
	if burst := float64(c.cfg.Concurrency); c.tokens > burst {
		c.tokens = burst
	}
	vm := c.store.VM()
	for c.tokens >= 1 && c.inflight < c.cfg.Concurrency {
		if c.paused || !vm.Running() {
			return
		}
		c.tokens--
		c.inflight++
		c.startOp()
	}
}

// NextWake reports when the client next has work. A tick is an exact no-op
// only when the token bucket is at a fixed point (accruing another tick's
// tokens changes nothing once the bucket is capped at the burst size) and
// no operation could be issued; anything else — accrual in progress, or an
// issuable op — needs the very next tick. Op completions arrive through
// the network and device components, whose own hints wake the engine.
func (c *Client) NextWake(now sim.Time) (sim.Time, bool) {
	next := c.tokens + c.perTick*c.store.VM().CPUQuota()
	if burst := float64(c.cfg.Concurrency); next > burst {
		next = burst
	}
	//lint:tickdrift exact — next is c.tokens plus a fixed per-tick increment (or the cap); inequality means accrual made progress this tick, no accumulation-order ambiguity
	if next != c.tokens {
		return now + 1, true
	}
	if next >= 1 && c.inflight < c.cfg.Concurrency && !c.paused && c.store.VM().Running() {
		return now + 1, true
	}
	return sim.Never, true
}

func (c *Client) startOp() {
	var o *op
	if n := len(c.free); n > 0 {
		o = c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
	} else {
		o = &op{c: c}
		o.executeF = o.execute
		o.finishF = o.finish
		o.doneF = o.done
	}
	o.write = c.rng.Float64() < c.cfg.WriteFraction
	o.rec = c.d.Next(c.rng)
	// Capture the flows at issue time so an op in flight across a
	// migration switchover completes on the path it started on.
	o.respFlow = c.respFlow
	o.pending = 0
	o.stalled = false
	o.issuedAt = c.eng.Now()
	c.reqFlow.SendMessage(c.cfg.RequestBytes, o.executeF)
}

// execute touches the operation's pages at the VM and sends the response
// when they are all usable.
func (o *op) execute() {
	c := o.c
	vm := c.store.VM()
	nPages := c.cfg.PagesPerRead
	if o.write {
		nPages = c.cfg.PagesPerWrite
	}
	first := c.store.PageOfRecord(o.rec)
	o.pending = 1 // guards against synchronous completion racing the loop
	dirtied := nPages
	if o.write && c.cfg.WritePagesDirtied > 0 && c.cfg.WritePagesDirtied < nPages {
		dirtied = c.cfg.WritePagesDirtied
	}
	last := mem.PageID(c.store.Pages()) + c.store.basePage
	for i := 0; i < nPages; i++ {
		p := first + mem.PageID(i)
		if p >= last {
			p = c.store.basePage + (p - last) // wrap within dataset
		}
		o.pending++
		// The first WritePagesDirtied pages of a write are modified; the
		// rest are read-only touches (index traversal).
		w := o.write && i < dirtied
		if vm.Access(p, w, o.finishF) {
			o.pending--
		} else {
			o.stalled = true
		}
	}
	o.finish()
}

// finish runs once per touched page becoming usable; the last one sends the
// response.
func (o *op) finish() {
	o.pending--
	if o.pending > 0 {
		return
	}
	if o.stalled {
		o.c.stalledOps++
	}
	o.respFlow.SendMessage(o.c.cfg.ResponseBytes, o.doneF)
}

// done runs when the response reaches the client; the op record returns to
// the freelist. A record whose callbacks were dropped by a flow Close is
// simply never recycled.
func (o *op) done() {
	c := o.c
	c.lat.Observe(c.eng.NowSeconds() - float64(o.issuedAt)*c.secPerTick)
	c.opsCompleted++
	if o.write {
		c.writesDone++
	} else {
		c.readsDone++
	}
	c.inflight--
	c.free = append(c.free, o)
}
