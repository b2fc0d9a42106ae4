package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"

	"agilemig/internal/sim"
)

// The host this benchmark was calibrated on changes speed by up to 2x over
// minutes (other tenants share its cores), and the simulator's wall and
// CPU time move with it. A speedMeter tracks that: every burstEvery of
// host time it runs a short, fixed reference kernel and times it. The
// kernel's typical duration over an execution, against its duration on
// the reference host, is the factor by which the host was slow while the
// workload ran; host-time metrics are reported multiplied by it, in
// reference seconds. Bursts are subtracted from every timed interval they
// fall in.
//
// What the simulator does between bursts must not change the kernel's
// speed, or a simulator change would partly cancel itself in reference
// seconds. So the kernel's working set lives outside the Go heap (it adds
// nothing to the collector's work or to the heap goal), fits in a core's
// L2 cache, and is read through once, untimed, before every burst: what
// the simulator evicted is back before the clock starts.
// TestSpeedFactorIgnoresInterleavedWork pins this.
type speedMeter struct {
	mem    []byte    // the working set, mapped outside the Go heap
	arena  []refNode // views into mem
	table  []uint64
	heap   []refEvent
	x      uint64
	sink   byte
	rounds int // kernel rounds per burst

	last time.Time
	durs []time.Duration // each burst's wall time
	wall time.Duration   // bursts and their warm passes
	cpu  time.Duration   // their thread CPU time
}

// Kernel shape and burst timing. The working set is 648 KiB, a third of
// the reference host's 2 MiB L2. refBurstRounds takes about refNominal on
// the reference host when it runs at full speed; the sampling period keeps
// the meter's cost to a few percent of the execution.
const (
	arenaNodes     = 1 << 14 // 32-byte nodes: 512 KiB
	tableSlots     = 1 << 14 // 8-byte slots: 128 KiB
	heapSlots      = 512     // 16-byte events: 8 KiB
	burstEvery     = 50 * time.Millisecond
	refBurstRounds = 32_000
	refNominal     = 2 * time.Millisecond
	// meterSeconds is how often, in simulated seconds, the engine offers
	// the meter a chance to burst. It is coarse so that the engine can
	// still fast-forward across every idle span shorter than it.
	meterSeconds = 1
)

type refNode struct {
	key  uint64
	next uint32
	pad  [2]uint64
}

// refEvent names its handler by index into refFns, so the event heap holds
// no pointers and can live outside the Go heap.
type refEvent struct {
	at uint64
	fn uint64
}

var refFns = [2]func(uint64) uint64{refStep, refMix}

// newSpeedMeter maps a meter's working set; release unmaps it. A light
// meter bursts a tenth as long, for tiny runs whose host times nobody
// compares.
func newSpeedMeter(light bool) (*speedMeter, error) {
	const arenaB = arenaNodes * int(unsafe.Sizeof(refNode{}))
	const tableB = tableSlots * 8
	const heapB = heapSlots * int(unsafe.Sizeof(refEvent{}))
	mem, err := syscall.Mmap(-1, 0, arenaB+tableB+heapB, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("speed meter: map working set: %w", err)
	}
	m := &speedMeter{
		mem:    mem,
		arena:  unsafe.Slice((*refNode)(unsafe.Pointer(&mem[0])), arenaNodes),
		table:  unsafe.Slice((*uint64)(unsafe.Pointer(&mem[arenaB])), tableSlots),
		heap:   unsafe.Slice((*refEvent)(unsafe.Pointer(&mem[arenaB+tableB])), heapSlots)[:0],
		x:      88172645463325252,
		rounds: refBurstRounds,
		last:   time.Now(),
		durs:   make([]time.Duration, 0, 1024),
	}
	if light {
		m.rounds /= 10
	}
	return m, nil
}

// release unmaps the working set; the meter must not burst again.
func (m *speedMeter) release() error {
	m.arena, m.table, m.heap = nil, nil, nil
	return syscall.Munmap(m.mem)
}

// attach lets the meter burst from inside a simulation: an engine event
// every meterSeconds checks the host clock. The event reads no simulated
// state, and fast-forward is exact, so no simulated result changes. A
// meter serves one goroutine: each shard of a parallel run gets its own.
func (m *speedMeter) attach(eng *sim.Engine) {
	eng.Every(eng.SecondsToTicks(meterSeconds), func(sim.Time) bool {
		m.maybe()
		return true
	})
}

// maybe bursts if burstEvery has passed since the last burst.
func (m *speedMeter) maybe() {
	if time.Since(m.last) < burstEvery {
		return
	}
	runtime.LockOSThread()
	c0 := threadCPU()
	w0 := time.Now()
	m.warm()
	t0 := time.Now()
	m.kernel(m.rounds)
	m.last = time.Now()
	m.durs = append(m.durs, m.last.Sub(t0))
	m.wall += m.last.Sub(w0)
	m.cpu += threadCPU() - c0
	runtime.UnlockOSThread()
}

// warm reads the working set through once, a cache line at a time.
func (m *speedMeter) warm() {
	var s byte
	for i := 0; i < len(m.mem); i += 64 {
		s += m.mem[i]
	}
	m.sink = s
}

// spent is the host time the bursts of a set of meters have taken.
func spent(meters []*speedMeter) (wall, cpu time.Duration) {
	for _, m := range meters {
		wall += m.wall
		cpu += m.cpu
	}
	return wall, cpu
}

// speedExponent maps the kernel's slowdown onto the simulator's. Load
// from other tenants slows the simulator, whose heap spills out of L2,
// more than it slows a kernel that stays in L2: over the reference host's
// calibration runs, ln raw wall time rose by 1.15-1.54 (by workload and
// run set) per unit fall of ln kernel speed. The exponent is a constant of
// the host, not of the simulator; a simulator change cannot move it.
const speedExponent = 1.35

// speedFactor is refNominal over the typical burst of a set of meters,
// raised to speedExponent: below 1 when the host ran slower than the
// reference, so raw seconds times the factor are reference seconds. The
// typical burst is the mean of the middle 80%: a burst that a GC pause or
// a preemption lands in says nothing about the host's speed. Without
// bursts the factor reads 1.
func speedFactor(meters []*speedMeter) float64 {
	var d []float64 // seconds per kernel round
	for _, m := range meters {
		for _, x := range m.durs {
			d = append(d, x.Seconds()/float64(m.rounds))
		}
	}
	if len(d) == 0 {
		return 1
	}
	sort.Float64s(d)
	mid := d[len(d)/10 : len(d)-len(d)/10]
	sum := 0.0
	for _, x := range mid {
		sum += x
	}
	return math.Pow(refNominal.Seconds()/refBurstRounds*float64(len(mid))/sum, speedExponent)
}

// kernel is host work shaped like the simulator's own — scattered writes
// into a working set, hash-table probes, a binary heap of timestamped
// events and indirect calls — with no allocation.
func (m *speedMeter) kernel(rounds int) {
	const arenaMask = arenaNodes - 1
	const tableMask = tableSlots - 1
	for i := 0; i < rounds; i++ {
		m.x ^= m.x << 13
		m.x ^= m.x >> 7
		m.x ^= m.x << 17
		k := m.x
		nd := &m.arena[k&arenaMask]
		nd.key = k
		nd.next = uint32(k>>16) & arenaMask
		// Probe at most four slots: insert into an empty one, delete an
		// entry whose tag matches, or overwrite the last.
		for p, j := 0, k&tableMask; p < 4; p, j = p+1, (j+1)&tableMask {
			if m.table[j] == 0 || p == 3 {
				m.table[j] = k | 1
				break
			}
			if m.table[j]&6 == k&6 {
				m.table[j] = 0
				break
			}
		}
		m.push(refEvent{at: k % 1024, fn: k & 1})
		if len(m.heap) > heapSlots/2 {
			e := m.pop()
			m.arena[refFns[e.fn](e.at)&arenaMask].pad[0]++
		}
	}
}

func refStep(v uint64) uint64 { return v*2654435761 + 1 }
func refMix(v uint64) uint64  { return v ^ v>>29 }

func (m *speedMeter) push(e refEvent) {
	m.heap = append(m.heap, e) // within the mapped capacity: pop keeps len ≤ heapSlots/2+1
	for i := len(m.heap) - 1; i > 0; {
		p := (i - 1) / 2
		if m.heap[p].at <= m.heap[i].at {
			break
		}
		m.heap[p], m.heap[i] = m.heap[i], m.heap[p]
		i = p
	}
}

func (m *speedMeter) pop() refEvent {
	h := m.heap
	e := h[0]
	n := len(h) - 1
	h[0] = h[n]
	m.heap = h[:n]
	for i := 0; ; {
		l, r, s := 2*i+1, 2*i+2, i
		if l < n && h[l].at < h[s].at {
			s = l
		}
		if r < n && h[r].at < h[s].at {
			s = r
		}
		if s == i {
			return e
		}
		h[s], h[i] = h[i], h[s]
		i = s
	}
}

// threadCPU is the calling thread's user + system time.
func threadCPU() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_THREAD (Linux) cannot fail on a valid pointer.
	_ = syscall.Getrusage(1, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
