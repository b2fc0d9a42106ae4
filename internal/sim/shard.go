package sim

// This file is the parallel kernel: the one place in the simulation core
// where goroutines and synchronization primitives are allowed (the
// shardsafe analyzer in cmd/agilelint enforces exactly that). A ShardGroup
// owns a set of Engines; each engine owns a disjoint set of hosts (their
// tickers, event heaps, cgroups, block devices, per-host VMD and guest
// state) and runs ahead independently under a conservative-lookahead bound
// derived from the minimum inter-engine link latency. Within a window,
// Shards() workers claim engines from a shared counter and run each one
// to the window end. Cross-engine interactions travel as timestamped
// messages in per-engine outboxes that are drained at barrier points, so
// the determinism contract survives parallelism: the same seed produces
// byte-identical traces, metrics and experiment rows regardless of
// GOMAXPROCS and worker count.
//
// Safety argument (DESIGN.md §6g): a ShardLink delivers a message sent at
// tick t no earlier than t+1+latency — the same store-and-forward floor
// simnet gives flows. With L = 1 + min(latency over all links), a window
// that advances every engine from barrier time T to T+L can only generate
// messages arriving at T+2+minLatency or later, which is strictly after
// the window's end; every message is therefore scheduled into its
// destination engine at a barrier before the window containing its
// arrival tick begins. The drain panics on any message timestamped inside
// the window just run — a violated bound is a scheduling bug and must
// never silently reorder.

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// SeedForName derives a deterministic child seed from a root seed and a
// stable name (a host, shard or component identity). Unlike RNG.Split —
// whose result depends on how many splits preceded it — the derived seed
// depends only on (root, name), so components built in different orders,
// or on different shards, draw identical streams. This is what makes a
// sharded cluster's results independent of how hosts are packed into
// shards.
func SeedForName(root uint64, name string) uint64 {
	// FNV-1a over the name folded into the root, finished with a
	// splitmix64 step so near-identical names land far apart.
	h := root ^ 0xcbf29ce484222325
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 0x100000001b3
	}
	return splitmix64step(&h)
}

// shardMsg is one timestamped cross-engine message awaiting the barrier
// drain.
type shardMsg struct {
	to int
	at Time
	fn func()
}

// member pairs an engine with its outbox. The outbox is single-writer:
// only code running on this engine appends, and only the coordinator (with
// every engine quiescent at a barrier) reads, so no lock is needed.
type member struct {
	idx    int
	eng    *Engine
	outbox []shardMsg
}

// ShardGroup coordinates a set of engines through conservative-lookahead
// windows. It starts with Shards() home engines and may gain more through
// AddEngine before its first run; Shards() stays the parallel width, the
// number of workers that run engines within a window. Shards() == 1 is the
// serial reference implementation: the same window/drain schedule with no
// goroutines at all, every engine run in index order.
//
// All engines share one clock discipline: they are aligned at every
// barrier, and between barriers each advances independently to the common
// window end. Methods on the group itself must be called from the
// coordinating goroutine (the one calling Run), except Stop, which any
// engine's event code may call.
type ShardGroup struct {
	seed    uint64
	width   int
	members []*member
	links   []*ShardLink
	// minLatency is the minimum latency over all registered links
	// (Forever when no link exists); the lookahead bound is 1+minLatency.
	minLatency Duration
	started    bool
	stopped    atomic.Bool
	// next is the window's claim counter: a worker takes engine next-1
	// and runs it to the window end, until the counter passes the last
	// engine.
	next atomic.Int64
}

// NewShardGroup returns a group of n home engines, run by n workers,
// sharing the default tick length. Engine 0 is seeded with the root seed
// itself — so a single-engine group, or engine 0 of a larger one, replays
// exactly what NewEngine(seed) would — and home engine i>0 with
// SeedForName(seed, "shard/<i>"). Components that must be
// placement-independent should not draw from the engines' master streams
// at all; derive per-component streams with SeedForName instead.
func NewShardGroup(seed uint64, n int) *ShardGroup {
	if n < 1 {
		panic("sim: shard group needs at least one shard")
	}
	g := &ShardGroup{seed: seed, width: n, minLatency: Forever}
	g.addEngine(seed)
	for i := 1; i < n; i++ {
		g.addEngine(SeedForName(seed, fmt.Sprintf("shard/%d", i)))
	}
	return g
}

func (g *ShardGroup) addEngine(seed uint64) int {
	i := len(g.members)
	g.members = append(g.members, &member{idx: i, eng: NewEngine(seed)})
	return i
}

// AddEngine adds an engine seeded with SeedForName(seed, name) and returns
// its index, which Engine, Link and Post take. Engines may only be added
// before the group's first run, when every clock still reads zero.
func (g *ShardGroup) AddEngine(name string) int {
	if g.started {
		panic("sim: AddEngine after the shard group's first run")
	}
	return g.addEngine(SeedForName(g.seed, name))
}

// Shards returns the parallel width: the number of workers that run the
// group's engines within a window, and the number of home engines.
func (g *ShardGroup) Shards() int { return g.width }

// Engines returns the number of engines, home and added.
func (g *ShardGroup) Engines() int { return len(g.members) }

// Engine returns engine i. Components registered on it are owned by it: no
// other engine's code may touch them outside the mailbox API.
func (g *ShardGroup) Engine(i int) *Engine { return g.members[i].eng }

// Now returns engine 0's clock; at every barrier all engines agree on it.
func (g *ShardGroup) Now() Time { return g.members[0].eng.Now() }

// Lookahead returns how many ticks an engine may run ahead of the slowest
// peer: 1 + the minimum link latency, or 0 meaning unbounded (no links,
// so no engine can affect another and windows are bounded only by the run
// deadline).
func (g *ShardGroup) Lookahead() Duration {
	if g.minLatency >= Forever {
		return 0
	}
	return 1 + g.minLatency
}

// Stop makes the current Run return at the next barrier. It is the one
// group method engine event code may call mid-window (any engine, any
// goroutine); the window still completes, so every engine exits aligned
// at the same tick.
func (g *ShardGroup) Stop() { g.stopped.Store(true) }

// Post enqueues fn to run on engine to at tick at. It must be called from
// code running on engine from (or, between runs, from the coordinator).
// The arrival tick must lie beyond the current lookahead window; the
// barrier drain panics otherwise. Most callers want a ShardLink, which
// computes a safe arrival from its latency and bandwidth.
func (g *ShardGroup) Post(from, to int, at Time, fn func()) {
	m := g.members[from]
	_ = g.members[to] // bounds-check the destination eagerly
	m.outbox = append(m.outbox, shardMsg{to: to, at: at, fn: fn})
}

// ShardLink is a point-to-point message channel between two engines with a
// fixed one-way latency and an optional serialization bandwidth, mirroring
// simnet's timing floor: a message sent at tick t arrives no earlier than
// t+1+latency. A link may connect an engine to itself (from == to); it
// still counts toward the group's lookahead bound.
//
// A link is owned by its source engine: Send may only be called from code
// running on that engine.
type ShardLink struct {
	g            *ShardGroup
	from, to     int
	latency      Duration
	bytesPerTick int64
	nextFree     Time
}

// Link registers a link from engine from to engine to. bytesPerSecond <= 0
// means latency-only (no serialization delay). Adding a link tightens the
// group's lookahead bound; add every link before the first Run so the
// window grid is stable for the whole run.
func (g *ShardGroup) Link(from, to int, latency Duration, bytesPerSecond int64) *ShardLink {
	if latency < 0 {
		panic("sim: negative link latency")
	}
	_ = g.members[from]
	_ = g.members[to]
	var bpt int64
	if bytesPerSecond > 0 {
		tps := g.members[from].eng.TicksPerSecond()
		bpt = int64(float64(bytesPerSecond) / tps)
		if bpt < 1 {
			bpt = 1
		}
	}
	l := &ShardLink{g: g, from: from, to: to, latency: latency, bytesPerTick: bpt}
	g.links = append(g.links, l)
	if latency < g.minLatency {
		g.minLatency = latency
	}
	return l
}

// Send transmits a framed message of the given size; fn runs on the
// destination engine at the arrival tick. Arrival is store-and-forward
// plus propagation behind any queued bytes:
// max(now, link free) + serialization + 1 + latency.
func (l *ShardLink) Send(bytes int64, fn func()) {
	if bytes < 0 {
		panic("sim: negative message size")
	}
	now := l.g.members[l.from].eng.Now()
	txStart := now
	if l.nextFree > txStart {
		txStart = l.nextFree
	}
	txEnd := txStart
	if l.bytesPerTick > 0 && bytes > 0 {
		txEnd += Time((bytes + l.bytesPerTick - 1) / l.bytesPerTick)
	}
	l.nextFree = txEnd
	l.g.Post(l.from, l.to, txEnd+1+Time(l.latency), fn)
}

// windowEnd picks the next barrier tick: the run deadline bounded by the
// lookahead window, extended past it only when every engine proves (via
// the IdleHinter contract) that it will do no work — and so send no
// message — before the extended target.
func (g *ShardGroup) windowEnd(until Time) Time {
	t := g.members[0].eng.Now()
	wend := until
	if la := g.Lookahead(); la > 0 && t+Time(la) < wend {
		wend = t + Time(la)
		ext := until
		for _, m := range g.members {
			target, ok := m.eng.IdleTarget(until)
			if !ok {
				return wend
			}
			if target < ext {
				ext = target
			}
		}
		if ext > wend {
			wend = ext
		}
	}
	return wend
}

// drain moves every outbox message into its destination engine's event
// queue. It runs at a barrier (all engines quiescent), iterating engines
// in index order and each outbox in send order, so the scheduling order —
// and therefore each destination engine's event sequence — is
// deterministic and independent of the worker count. Messages from
// different source engines arriving at the same tick are ordered by
// source engine index, which can differ from the interleaving the same
// components would produce sharing one engine; cross-engine handlers must
// therefore commute within a tick (DESIGN.md §6g lists this proof
// obligation).
func (g *ShardGroup) drain(wend Time) {
	for _, s := range g.members {
		for i := range s.outbox {
			m := s.outbox[i]
			if m.at <= wend {
				panic(fmt.Sprintf(
					"sim: cross-engine message from engine %d to engine %d timestamped tick %d, inside the lookahead window ending at tick %d — conservative lookahead violated (post only beyond now+1+minLatency)",
					s.idx, m.to, m.at, wend))
			}
			g.members[m.to].eng.Schedule(m.at, m.fn)
			s.outbox[i] = shardMsg{} // release fn for GC
		}
		s.outbox = s.outbox[:0]
	}
}

// Run advances every engine until engine 0's clock reaches the given time
// or Stop is called, in lookahead-bounded windows with a barrier (and
// mailbox drain) between them. Engines run concurrently within a window;
// results are nevertheless bit-identical at any GOMAXPROCS and worker
// count because engines share no state between barriers.
func (g *ShardGroup) Run(until Time) {
	g.started = true
	g.stopped.Store(false)
	e0 := g.members[0].eng

	// Workers 1..width-1 live for this run only; each window they receive
	// the common target, claim engines until none is left, and signal the
	// barrier. The calling goroutine is worker 0: it runs engine 0, then
	// claims too.
	var wg sync.WaitGroup
	wake := make([]chan Time, g.width-1)
	for i := range wake {
		ch := make(chan Time)
		wake[i] = ch
		go func() {
			for wend := range ch {
				g.claim(wend)
				wg.Done()
			}
		}()
	}
	defer func() {
		for _, ch := range wake {
			close(ch)
		}
	}()

	for e0.Now() < until && !g.stopped.Load() {
		wend := g.windowEnd(until)
		g.next.Store(1)
		wg.Add(len(wake))
		for _, ch := range wake {
			ch <- wend
		}
		for e0.Now() < wend {
			e0.Advance(wend)
		}
		g.claim(wend)
		wg.Wait()
		g.drain(wend)
	}
}

// RunSeconds advances the group by the given simulated seconds.
func (g *ShardGroup) RunSeconds(s float64) {
	e := g.members[0].eng
	g.Run(e.Now() + Time(e.SecondsToTicks(s)))
}

// claim runs engines taken from the window's claim counter to wend until
// every engine has been taken.
func (g *ShardGroup) claim(wend Time) {
	for {
		i := int(g.next.Add(1)) - 1
		if i >= len(g.members) {
			return
		}
		g.members[i].eng.Run(wend)
	}
}
