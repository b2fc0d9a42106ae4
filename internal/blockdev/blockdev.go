// Package blockdev models block storage devices — the SSD swap partitions
// that pre-copy and post-copy migration thrash against. A device has finite
// bandwidth and IOPS, completion latency, and per-stream request queues
// served round-robin: each requester (in practice, each VM's cgroup) gets a
// fair share of the device, the way a Linux I/O scheduler arbitrates
// between cgroups. Queueing delay under overload emerges naturally, which
// is what makes a thrashing host slow rather than merely busy.
package blockdev

import (
	"fmt"

	"agilemig/internal/metrics"
	"agilemig/internal/sim"
)

// drrQuantum is the byte quantum one rotation slot grants a stream.
const drrQuantum = int64(4096)

// request is one read or write submitted to a device.
type request struct {
	write     bool
	remaining int64
	started   bool
	fn        func()
}

// reqQueue is a FIFO of requests popped from the head in O(1); the dead
// prefix is compacted away once it outweighs the live tail, so a busy
// stream's queue never degrades into an O(n²) shift-per-pop.
type reqQueue struct {
	q    []request
	head int
}

func (q *reqQueue) len() int        { return len(q.q) - q.head }
func (q *reqQueue) front() *request { return &q.q[q.head] }
func (q *reqQueue) push(r request)  { q.q = append(q.q, r) }
func (q *reqQueue) pop() {
	q.q[q.head] = request{} // release fn for GC
	q.head++
	if q.head == len(q.q) {
		q.q, q.head = q.q[:0], 0
	} else if q.head >= len(q.q)-q.head {
		q.q = q.q[:copy(q.q, q.q[q.head:])]
		q.head = 0
	}
}

// Stream is one requester's queue pair on a device. Reads and writes
// queue separately: synchronous reads (page faults) are served before
// asynchronous write-back, the way deadline-style I/O schedulers
// prioritize sync requests — with a reserved share keeping writes from
// starving. Within each class, requests complete in order.
type Stream struct {
	dev  *Device
	name string
	rq   reqQueue // reads
	wq   reqQueue // writes
}

// Device is a bandwidth- and IOPS-limited block device with round-robin
// fair scheduling across streams. Register it once; it drains its queues
// every tick in sim.PhaseDevice.
type Device struct {
	eng          *sim.Engine
	name         string
	bytesPerTick int64
	iopsPerTick  float64
	latency      sim.Duration

	streams  []*Stream
	rotation []*Stream // streams repeated by weight; the RR service order
	rr       int       // next rotation slot, in [0, len(rotation))
	queued   int       // requests waiting or in service on every stream
	def      *Stream
	iopsCred float64

	bytesRead    int64
	bytesWritten int64
	readOps      int64
	writeOps     int64
}

// Config describes a device's performance envelope.
type Config struct {
	Name           string
	BytesPerSecond int64 // total bandwidth, shared by reads and writes
	IOPS           int64 // operations per second
	Latency        sim.Duration
}

// New creates a device and registers it with the engine.
func New(eng *sim.Engine, cfg Config) *Device {
	if cfg.BytesPerSecond <= 0 || cfg.IOPS <= 0 {
		panic("blockdev: non-positive performance parameters")
	}
	tps := eng.TicksPerSecond()
	d := &Device{
		eng:          eng,
		name:         cfg.Name,
		bytesPerTick: maxI64(1, int64(float64(cfg.BytesPerSecond)/tps)),
		iopsPerTick:  float64(cfg.IOPS) / tps,
		latency:      cfg.Latency,
	}
	d.def = d.NewStream("default")
	eng.AddTicker(sim.PhaseDevice, d)
	return d
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Name returns the device name.
func (d *Device) Name() string { return d.name }

// NewStream adds an independent fair-share queue with weight 1.
func (d *Device) NewStream(name string) *Stream {
	return d.NewStreamWeighted(name, 1)
}

// NewStreamWeighted adds a queue that receives `weight` service slots per
// scheduler rotation — how an I/O scheduler would favour the bulk swap
// path over a single background scanner.
func (d *Device) NewStreamWeighted(name string, weight int) *Stream {
	if weight < 1 {
		panic("blockdev: non-positive stream weight")
	}
	s := &Stream{dev: d, name: name}
	d.streams = append(d.streams, s)
	for i := 0; i < weight; i++ {
		d.rotation = append(d.rotation, s)
	}
	return s
}

// Read enqueues a read on the device's default stream.
func (d *Device) Read(bytes int64, fn func()) { d.def.Read(bytes, fn) }

// Write enqueues a write on the device's default stream.
func (d *Device) Write(bytes int64, fn func()) { d.def.Write(bytes, fn) }

// Read enqueues a read of the given size; fn runs when it completes.
func (s *Stream) Read(bytes int64, fn func()) { s.submit(false, bytes, fn) }

// Write enqueues a write of the given size; fn runs when it completes.
func (s *Stream) Write(bytes int64, fn func()) { s.submit(true, bytes, fn) }

func (s *Stream) submit(write bool, bytes int64, fn func()) {
	if bytes <= 0 {
		panic("blockdev: non-positive request size")
	}
	r := request{write: write, remaining: bytes, fn: fn}
	s.dev.queued++
	if write {
		s.wq.push(r)
	} else {
		s.rq.push(r)
	}
}

// QueueLen returns the stream's waiting/in-service request count.
func (s *Stream) QueueLen() int { return s.rq.len() + s.wq.len() }

// QueueLen returns the number of requests waiting or in service across all
// streams.
func (d *Device) QueueLen() int { return d.queued }

// BytesRead returns cumulative bytes read.
func (d *Device) BytesRead() int64 { return d.bytesRead }

// BytesWritten returns cumulative bytes written.
func (d *Device) BytesWritten() int64 { return d.bytesWritten }

// Ops returns cumulative completed (read, write) operation counts.
func (d *Device) Ops() (reads, writes int64) { return d.readOps, d.writeOps }

// RegisterMetrics registers the device's traffic and queue depth as gauges
// keyed by the device name. Per-operation trace events would swamp any
// ring buffer; gauges sampled on sim-time intervals carry the same story.
func (d *Device) RegisterMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	p := "disk/" + d.name + "/"
	reg.Gauge(p+"read.bytes", func() float64 { return float64(d.bytesRead) })
	reg.Gauge(p+"written.bytes", func() float64 { return float64(d.bytesWritten) })
	reg.Gauge(p+"read.ops", func() float64 { return float64(d.readOps) })
	reg.Gauge(p+"write.ops", func() float64 { return float64(d.writeOps) })
	reg.Gauge(p+"queue.len", func() float64 { return float64(d.QueueLen()) })
}

// Tick serves the queues within this tick's bandwidth and IOPS budgets.
// Reads are served first (deadline-style sync priority) under deficit
// round robin across streams; writes get the leftover plus a reserved
// quarter of the budget whenever any are waiting, so write-back cannot
// starve outright.
func (d *Device) Tick(_ sim.Time) {
	budget := d.bytesPerTick
	d.iopsCred += d.iopsPerTick
	if d.queued == 0 {
		// Both service passes of an idle device would find every queue
		// empty and rewind the rotation cursor: only the credit moves.
		d.capCredit()
		return
	}
	writesWaiting := false
	for _, s := range d.streams {
		if s.wq.len() > 0 {
			writesWaiting = true
			break
		}
	}
	// The write reserve is served first so it also claims IOPS credit;
	// reads then take the bulk; any leftover goes back to writes.
	var spentW int64
	if writesWaiting {
		spentW = d.serve(budget/4, true)
	}
	spentR := d.serve(budget-spentW, false)
	d.serve(budget-spentW-spentR, true)
	d.capCredit()
}

// capCredit caps accumulated IOPS credit so an idle period doesn't bank an
// unbounded burst.
func (d *Device) capCredit() {
	if d.iopsCred > 4*d.iopsPerTick+4 {
		d.iopsCred = 4*d.iopsPerTick + 4
	}
}

// NextWake reports when the device next has work: immediately while any
// request is queued, or while IOPS credit is still accruing toward its cap
// (an idle tick changes the credit until then). Once the credit is pinned
// at the cap and the queues are empty, a device tick is an exact state
// no-op — empty service passes rewind the rotation cursor — so the engine
// may skip ahead. In-flight completion callbacks ride the engine's event
// queue and need no wake here.
func (d *Device) NextWake(now sim.Time) (sim.Time, bool) {
	if d.queued > 0 {
		return now + 1, true
	}
	if d.iopsCred < 4*d.iopsPerTick+4 {
		return now + 1, true
	}
	return sim.Never, true
}

// serve drains one request class (reads or writes) under DRR and returns
// the bytes consumed. A pass that changes nothing (every queue of the class
// empty, or no IOPS credit to start the head request) rewinds the rotation
// cursor, so an idle pass leaves the device byte-identical and the service
// order does not depend on how long the device sat idle.
func (d *Device) serve(budget int64, writes bool) int64 {
	if budget <= 0 {
		return 0
	}
	rr0, cred0 := d.rr, d.iopsCred
	served := d.servePass(budget, writes)
	//lint:tickdrift exact — cred0 is a snapshot of d.iopsCred; equality detects "servePass changed nothing", not a computed-value coincidence
	if served == 0 && d.iopsCred == cred0 {
		d.rr = rr0
	}
	return served
}

func (d *Device) servePass(budget int64, writes bool) int64 {
	n := len(d.rotation)
	remaining := budget
	emptyRun := 0
	for remaining > 0 && emptyRun < n {
		s := d.rotation[d.rr]
		if d.rr++; d.rr == n {
			d.rr = 0
		}
		q := &s.rq
		if writes {
			q = &s.wq
		}
		if q.len() == 0 {
			emptyRun++
			continue
		}
		emptyRun = 0
		slot := drrQuantum
		for slot > 0 && remaining > 0 && q.len() > 0 {
			r := q.front()
			if !r.started {
				if d.iopsCred < 1 {
					return budget - remaining
				}
				d.iopsCred--
				r.started = true
			}
			chunk := r.remaining
			if chunk > remaining {
				chunk = remaining
			}
			if chunk > slot {
				chunk = slot
			}
			r.remaining -= chunk
			remaining -= chunk
			slot -= chunk
			if r.write {
				d.bytesWritten += chunk
			} else {
				d.bytesRead += chunk
			}
			if r.remaining > 0 {
				break // quantum or budget exhausted mid-request
			}
			if r.write {
				d.writeOps++
			} else {
				d.readOps++
			}
			if r.fn != nil {
				fn := r.fn
				if d.latency > 0 {
					d.eng.After(d.latency, fn)
				} else {
					// Completion is visible next tick, keeping device
					// latency strictly positive.
					d.eng.After(1, fn)
				}
			}
			q.pop()
			d.queued--
		}
	}
	return budget - remaining
}

// String describes the device.
func (d *Device) String() string {
	return fmt.Sprintf("blockdev{%s, q=%d}", d.name, d.QueueLen())
}
