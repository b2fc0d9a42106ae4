package sim

import (
	"fmt"
	"time"
)

// Phase orders component work within a single tick. Events always fire
// first; then each phase runs its tickers in registration order. The order
// is chosen so that, within one tick, workloads issue demand before devices
// and the network serve it, and control planes observe the tick's final
// state.
type Phase int

const (
	// PhaseControl runs first: cluster controllers, migration round logic,
	// WSS trackers — anything that reconfigures the system for this tick.
	PhaseControl Phase = iota
	// PhaseWorkload runs application clients and guest access generation.
	PhaseWorkload
	// PhaseMemory runs cgroup reclaim and other memory-management work that
	// turns workload pressure into device requests.
	PhaseMemory
	// PhaseDevice drains block-device request queues.
	PhaseDevice
	// PhaseNetwork arbitrates NIC bandwidth and delivers network payloads.
	PhaseNetwork
	// PhaseCompletion runs handlers that react to this tick's deliveries
	// (fault completions releasing stalled operations, and similar).
	PhaseCompletion
	// PhaseMetrics samples state after everything else has settled.
	PhaseMetrics

	numPhases
)

// Ticker is periodic work registered with an Engine.
type Ticker interface {
	Tick(now Time)
}

// TickerFunc adapts a function to the Ticker interface.
type TickerFunc func(now Time)

// Tick calls f(now).
func (f TickerFunc) Tick(now Time) { f(now) }

// Never is a NextWake result meaning "no tick needed until something
// external (an event, another component) touches me". It is later than any
// reachable simulated time, so the event queue or the run deadline always
// bounds the jump first.
const Never Time = 1 << 62

// IdleHinter is an optional interface a Ticker may implement to let the
// engine fast-forward across idle spans. NextWake returns the earliest
// future tick at which the component's Tick call could change any state,
// assuming nothing external touches the component before then, plus
// ok=true; ok=false means the component cannot predict its next work and
// must be ticked every tick.
//
// The contract is strict, because fast-forwarded runs must be bit-identical
// to tick-by-tick runs: a component may only report a wake later than now+1
// when every skipped Tick call would have been an exact state no-op (no
// counter, credit, queue, rotation or RNG advance). Components that cannot
// guarantee that must return now+1 while active; returning now+1 merely
// disables skipping, never changes results.
type IdleHinter interface {
	NextWake(now Time) (Time, bool)
}

// hintedTicker pairs a tick function with an idle hint (see
// AddTickerFuncHinted).
type hintedTicker struct {
	f    func(now Time)
	hint func(now Time) (Time, bool)
}

func (t hintedTicker) Tick(now Time)                  { t.f(now) }
func (t hintedTicker) NextWake(now Time) (Time, bool) { return t.hint(now) }

// tickerEntry caches the IdleHinter type assertion made at registration so
// the per-step idle scan costs one interface call per ticker.
type tickerEntry struct {
	t Ticker
	h IdleHinter // nil when t does not implement IdleHinter
}

type scheduledEvent struct {
	at  Time
	seq uint64
	fn  func()
}

type eventQueue []scheduledEvent

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

// push and pop are hand-rolled sift operations: container/heap would box
// every scheduledEvent into an interface{}, allocating on each Schedule and
// each fired event — measurably hot in long runs.
func (q *eventQueue) push(ev scheduledEvent) {
	*q = append(*q, ev)
	h := *q
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.Less(i, parent) {
			break
		}
		h.Swap(i, parent)
		i = parent
	}
}

func (q *eventQueue) pop() scheduledEvent {
	h := *q
	ev := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = scheduledEvent{} // release fn for GC
	h = h[:n]
	i := 0
	for {
		smallest := i
		if l := 2*i + 1; l < n && h.Less(l, smallest) {
			smallest = l
		}
		if r := 2*i + 2; r < n && h.Less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.Swap(i, smallest)
		i = smallest
	}
	*q = h
	return ev
}

// Engine is the simulation kernel: a virtual clock, a registry of per-tick
// workers, and an event queue. It is not safe for concurrent use; the whole
// simulation is single-threaded by design so that runs are deterministic.
type Engine struct {
	now     Time
	tickLen time.Duration
	// secPerTick is tickLen.Seconds(), cached: NowSeconds runs on every
	// operation a workload issues.
	secPerTick float64
	tickers    [numPhases][]tickerEntry
	// unhinted counts registered tickers without an IdleHinter; any such
	// ticker disables fast-forward for the whole run (it must see every
	// tick).
	unhinted int
	ff       bool
	events   eventQueue
	seq      uint64
	stopped  bool
	rng      *RNG
}

// NewEngine returns an engine with the given master seed and the default
// tick length.
func NewEngine(seed uint64) *Engine {
	return NewEngineTick(seed, DefaultTickLen)
}

// NewEngineTick returns an engine whose ticks represent the given simulated
// duration.
func NewEngineTick(seed uint64, tickLen time.Duration) *Engine {
	if tickLen <= 0 {
		panic("sim: non-positive tick length")
	}
	return &Engine{tickLen: tickLen, secPerTick: tickLen.Seconds(), rng: NewRNG(seed), ff: true}
}

// SetFastForward enables or disables idle fast-forward (on by default).
// Disabling it forces tick-by-tick stepping; results are identical either
// way — the toggle exists so tests can prove exactly that.
func (e *Engine) SetFastForward(on bool) { e.ff = on }

// FastForwardEnabled reports whether idle fast-forward is on.
func (e *Engine) FastForwardEnabled() bool { return e.ff }

// Now returns the current simulated time in ticks.
func (e *Engine) Now() Time { return e.now }

// NowSeconds returns the current simulated time in seconds; it equals
// Seconds(e.Now(), e.TickLen()).
func (e *Engine) NowSeconds() float64 { return float64(e.now) * e.secPerTick }

// TickLen returns the simulated length of one tick.
func (e *Engine) TickLen() time.Duration { return e.tickLen }

// TicksPerSecond returns how many ticks make up one simulated second.
func (e *Engine) TicksPerSecond() float64 { return 1 / e.tickLen.Seconds() }

// DurationOf converts a wall-style duration to ticks, rounding up.
func (e *Engine) DurationOf(d time.Duration) Duration { return Ticks(d, e.tickLen) }

// SecondsToTicks converts simulated seconds to a tick count, rounding up.
func (e *Engine) SecondsToTicks(s float64) Duration {
	return e.DurationOf(time.Duration(s * float64(time.Second)))
}

// RNG returns the engine's master random stream. Components should derive
// their own stream with Split rather than drawing from it directly.
func (e *Engine) RNG() *RNG { return e.rng }

// AddTicker registers periodic work in the given phase. Tickers cannot be
// removed; long-lived components should ignore ticks once idle (an idle
// ticker is a handful of nanoseconds).
func (e *Engine) AddTicker(p Phase, t Ticker) {
	if p < 0 || p >= numPhases {
		panic(fmt.Sprintf("sim: invalid phase %d", p))
	}
	ent := tickerEntry{t: t}
	if h, ok := t.(IdleHinter); ok {
		ent.h = h
	} else {
		e.unhinted++
	}
	e.tickers[p] = append(e.tickers[p], ent)
}

// AddTickerFunc registers a function as periodic work in the given phase.
// Function tickers carry no idle hint, so registering one disables
// fast-forward for the run; use AddTickerFuncHinted when the closure can
// report when it next needs to run.
func (e *Engine) AddTickerFunc(p Phase, f func(now Time)) {
	e.AddTicker(p, TickerFunc(f))
}

// AddTickerFuncHinted registers a function ticker together with an idle
// hint obeying the IdleHinter contract.
func (e *Engine) AddTickerFuncHinted(p Phase, f func(now Time), hint func(now Time) (Time, bool)) {
	e.AddTicker(p, hintedTicker{f: f, hint: hint})
}

// Schedule runs fn at the start of the given tick. Scheduling in the past
// (or at the current tick) fires at the start of the next tick: within a
// tick, the event pump has already run.
func (e *Engine) Schedule(at Time, fn func()) {
	if at <= e.now {
		at = e.now + 1
	}
	e.seq++
	e.events.push(scheduledEvent{at: at, seq: e.seq, fn: fn})
}

// After runs fn d ticks from now (at least one tick in the future).
func (e *Engine) After(d Duration, fn func()) {
	if d < 1 {
		d = 1
	}
	e.Schedule(e.now+Time(d), fn)
}

// AfterSeconds runs fn the given number of simulated seconds from now.
func (e *Engine) AfterSeconds(s float64, fn func()) {
	e.After(e.SecondsToTicks(s), fn)
}

// Every runs fn every d ticks until it returns false.
func (e *Engine) Every(d Duration, fn func(now Time) bool) {
	if d < 1 {
		d = 1
	}
	var rearm func()
	rearm = func() {
		if fn(e.now) {
			e.After(d, rearm)
		}
	}
	e.After(d, rearm)
}

// Stop makes Run return after the current tick completes.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }

// Step advances the simulation by one tick: the clock moves forward, due
// events fire (in schedule order), then every phase runs its tickers.
func (e *Engine) Step() {
	e.now++
	for len(e.events) > 0 && e.events[0].at <= e.now {
		ev := e.events.pop()
		ev.fn()
	}
	for p := Phase(0); p < numPhases; p++ {
		for _, ent := range e.tickers[p] {
			ent.t.Tick(e.now)
		}
	}
}

// idleTarget returns the tick the clock may jump to (exclusive of the work
// done at that tick) when every registered ticker reports idle past the
// next tick: min(until, next event, earliest component wake). ok=false
// means no skip is possible and the engine must step normally.
func (e *Engine) idleTarget(until Time) (Time, bool) {
	if !e.ff || e.unhinted > 0 {
		return 0, false
	}
	target := until
	if len(e.events) > 0 && e.events[0].at < target {
		target = e.events[0].at
	}
	if target <= e.now+1 {
		return 0, false
	}
	for p := Phase(0); p < numPhases; p++ {
		for _, ent := range e.tickers[p] {
			wake, ok := ent.h.NextWake(e.now)
			if !ok || wake <= e.now+1 {
				return 0, false
			}
			if wake < target {
				target = wake
			}
		}
	}
	return target, true
}

// IdleTarget exposes idleTarget for coordination layers (the sharded
// kernel's window scheduler): ok=true means every skipped tick in
// (Now(), target) would be an exact no-op — in particular, the engine is
// guaranteed to do no work, and so send no messages, before target.
func (e *Engine) IdleTarget(until Time) (Time, bool) {
	return e.idleTarget(until)
}

// Advance performs one fast-forward-aware step toward until: if every
// component reports idle beyond the next tick, the clock first jumps so
// that the single Step lands exactly on min(until, next event, earliest
// wake); otherwise it is a plain Step. Because components may only report
// idle when their skipped ticks would have been exact no-ops (see
// IdleHinter), the observable state trajectory is bit-identical to
// stepping tick by tick.
func (e *Engine) Advance(until Time) {
	if target, ok := e.idleTarget(until); ok {
		e.now = target - 1
	}
	e.Step()
}

// Run advances the simulation until the clock reaches the given time or
// Stop is called, fast-forwarding across idle spans.
func (e *Engine) Run(until Time) {
	for e.now < until && !e.stopped {
		e.Advance(until)
	}
}

// RunSeconds advances the simulation by the given number of simulated
// seconds from the current time.
func (e *Engine) RunSeconds(s float64) {
	e.Run(e.now + Time(e.SecondsToTicks(s)))
}
