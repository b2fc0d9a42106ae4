package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func TestSeedForNameStable(t *testing.T) {
	a := SeedForName(42, "cell001/client")
	b := SeedForName(42, "cell001/client")
	if a != b {
		t.Fatalf("SeedForName not deterministic: %#x vs %#x", a, b)
	}
	if SeedForName(42, "cell002/client") == a {
		t.Fatalf("distinct names collided")
	}
	if SeedForName(43, "cell001/client") == a {
		t.Fatalf("distinct roots collided")
	}
	// The derived stream must not depend on construction order: two fresh
	// derivations interleaved with others still agree.
	_ = SeedForName(42, "noise")
	if SeedForName(42, "cell001/client") != a {
		t.Fatalf("SeedForName depends on call history")
	}
}

func TestShardGroupSeeding(t *testing.T) {
	g := NewShardGroup(7, 2)
	ref := NewEngine(7)
	if g.Engine(0).RNG().Uint64() != ref.RNG().Uint64() {
		t.Fatalf("shard 0 must replay NewEngine(seed) exactly")
	}
	if g.Engine(1).RNG().Uint64() == ref.RNG().Uint64() {
		t.Fatalf("shard 1 stream must differ from the root stream")
	}
}

// TestShardLinkPingPong checks the mailbox timing arithmetic end to end:
// a message sent at tick t over a latency-L link runs on the destination
// engine at exactly t+1+L, matching simnet's store-and-forward floor, and
// the exchange is identical whether the group runs with one OS thread or
// many (the -race build exercises the parallel path).
func TestShardLinkPingPong(t *testing.T) {
	g := NewShardGroup(1, 2)
	l01 := g.Link(0, 1, 3, 0)
	l10 := g.Link(1, 0, 3, 0)

	var arrivals []Time
	var hops int
	var bounce func()
	bounce = func() {
		// Runs alternately on shard 1's and shard 0's engines.
		hops++
		if hops >= 6 {
			return
		}
		if hops%2 == 1 {
			arrivals = append(arrivals, g.Engine(1).Now())
			l10.Send(0, bounce)
		} else {
			arrivals = append(arrivals, g.Engine(0).Now())
			l01.Send(0, bounce)
		}
	}
	g.Engine(0).Schedule(10, func() { l01.Send(0, bounce) })

	g.Run(100)
	// Send at 10 → arrive 14; reply sent at 14 → arrive 18; and so on.
	want := []Time{14, 18, 22, 26, 30}
	if len(arrivals) != len(want) {
		t.Fatalf("got %d arrivals %v, want %v", len(arrivals), arrivals, want)
	}
	for i := range want {
		if arrivals[i] != want[i] {
			t.Fatalf("arrival %d at tick %d, want %d (all: %v)", i, arrivals[i], want[i], arrivals)
		}
	}
	if g.Engine(0).Now() != 100 || g.Engine(1).Now() != 100 {
		t.Fatalf("shards not aligned after Run: %v, %v", g.Engine(0).Now(), g.Engine(1).Now())
	}
}

func TestShardLinkSerialization(t *testing.T) {
	g := NewShardGroup(1, 2)
	// 1000 ticks/s (default tick length), 8000 B/s → 8 bytes/tick.
	l := g.Link(0, 1, 2, 8000)

	var got []Time
	note := func() { got = append(got, g.Engine(1).Now()) }
	g.Engine(0).Schedule(5, func() {
		l.Send(16, note) // tx 5..7, arrive 7+1+2 = 10
		l.Send(8, note)  // queued: tx 7..8, arrive 11
		l.Send(0, note)  // zero-size: tx instant at 8, arrive 11
	})
	g.Run(50)
	want := []Time{10, 11, 11}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("serialized arrivals %v, want %v", got, want)
	}
}

// TestShardLookaheadViolationPanics proves the kernel fails loudly — not
// by silent reordering — when a cross-shard message is timestamped inside
// the lookahead window just run.
func TestShardLookaheadViolationPanics(t *testing.T) {
	g := NewShardGroup(1, 2)
	g.Link(0, 1, 4, 0) // lookahead = 5 ticks

	g.Engine(0).Schedule(2, func() {
		// Bypass ShardLink's safe arithmetic: tick 3 is inside the first
		// window (ticks 1..5).
		g.Post(0, 1, 3, func() {})
	})

	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic for message inside the lookahead window")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "conservative lookahead violated") {
			t.Fatalf("unexpected panic value: %v", r)
		}
	}()
	g.Run(20)
}

// TestShardWindowQuietExtension checks that the window scheduler may jump
// far past the lookahead bound across provably idle spans without
// perturbing event timing.
func TestShardWindowQuietExtension(t *testing.T) {
	g := NewShardGroup(1, 2)
	l := g.Link(0, 1, 1, 0) // lookahead = 2 ticks

	var fired []Time
	g.Engine(0).Schedule(100000, func() {
		l.Send(0, func() { fired = append(fired, g.Engine(1).Now()) })
	})
	g.Engine(1).Schedule(250000, func() { fired = append(fired, g.Engine(1).Now()) })

	g.Run(300000)
	// If the scheduler could not extend windows past the 2-tick lookahead
	// this run would need 150k barriers; timing must be exact either way.
	if len(fired) != 2 || fired[0] != 100002 || fired[1] != 250000 {
		t.Fatalf("fired at %v, want [100002 250000]", fired)
	}
}

func TestShardGroupStopAlignsAtBarrier(t *testing.T) {
	g := NewShardGroup(1, 3)
	g.Link(0, 1, 9, 0) // lookahead = 10
	g.Engine(1).Schedule(25, g.Stop)

	g.Run(1000)
	t0, t1, t2 := g.Engine(0).Now(), g.Engine(1).Now(), g.Engine(2).Now()
	if t0 != t1 || t1 != t2 {
		t.Fatalf("shards not aligned after Stop: %v %v %v", t0, t1, t2)
	}
	if t0 < 25 || t0 >= 1000 {
		t.Fatalf("Stop should end the run at a barrier soon after tick 25, got %v", t0)
	}
	// The group must be reusable after a stop.
	g.Run(t0 + 50)
	if g.Engine(0).Now() != t0+50 {
		t.Fatalf("run after Stop did not resume: at %v", g.Engine(0).Now())
	}
}

// TestShardGroupDeterministicDrainOrder checks same-tick cross-shard
// messages are scheduled in (source shard, send order) — the documented
// canonical order — independent of execution interleaving.
func TestShardGroupDeterministicDrainOrder(t *testing.T) {
	run := func() []int {
		g := NewShardGroup(3, 3)
		l1 := g.Link(1, 0, 5, 0)
		l2 := g.Link(2, 0, 5, 0)
		var order []int
		g.Engine(1).Schedule(2, func() {
			l1.Send(0, func() { order = append(order, 10) })
			l1.Send(0, func() { order = append(order, 11) })
		})
		g.Engine(2).Schedule(2, func() {
			l2.Send(0, func() { order = append(order, 20) })
		})
		g.Run(30)
		return order
	}
	a, b := run(), run()
	want := []int{10, 11, 20}
	for i := range want {
		if a[i] != want[i] || b[i] != want[i] {
			t.Fatalf("drain order unstable or wrong: %v / %v, want %v", a, b, want)
		}
	}
}

// claimRun is one run of the claim-loop workload: 12 engines added to a
// group of the given width, each self-rearming on its own period, posting
// to engine 0 on every firing, and receiving engine 0's reply. It returns
// each added engine's event log and engine 0's arrival log, both keyed by
// the added engine's number so runs at different widths compare.
func claimRun(t *testing.T, workers int) (logs [][]Time, arrivals [][2]int64) {
	t.Helper()
	const added = 12
	g := NewShardGroup(11, workers)
	logs = make([][]Time, added)
	for k := 0; k < added; k++ {
		k := k
		e := g.AddEngine(fmt.Sprintf("engine%02d", k))
		eng := g.Engine(e)
		up := g.Link(e, 0, 4, 0)
		down := g.Link(0, e, 4, 0)
		period := Duration(1 + k%3)
		var fire func()
		fire = func() {
			now := eng.Now()
			logs[k] = append(logs[k], now)
			up.Send(0, func() {
				arrivals = append(arrivals, [2]int64{int64(g.Engine(0).Now()), int64(k)})
				down.Send(0, func() { logs[k] = append(logs[k], -eng.Now()) })
			})
			if now < 200 {
				eng.After(period, fire)
			}
		}
		eng.Schedule(Time(1+k%5), fire)
	}
	g.Run(300)
	for i := 0; i < g.Engines(); i++ {
		if now := g.Engine(i).Now(); now != 300 {
			t.Fatalf("workers=%d: engine %d at tick %d after Run(300)", workers, i, now)
		}
	}
	return logs, arrivals
}

// TestShardGroupClaimLoopIsWidthInvariant runs the same added engines at
// 1, 2 and 4 workers: every engine's event log and the order in which
// engine 0 receives their messages — (engine index, send order) within a
// tick — must not depend on how many workers claimed the engines.
func TestShardGroupClaimLoopIsWidthInvariant(t *testing.T) {
	refLogs, refArrivals := claimRun(t, 1)
	for i := 1; i < len(refArrivals); i++ {
		a, b := refArrivals[i-1], refArrivals[i]
		if a[0] == b[0] && a[1] > b[1] {
			t.Fatalf("same-tick arrivals out of engine order at tick %d: %d before %d", a[0], a[1], b[1])
		}
	}
	for _, w := range []int{2, 4} {
		logs, arrivals := claimRun(t, w)
		if !reflect.DeepEqual(logs, refLogs) {
			t.Errorf("workers=%d: engine event logs differ from the serial run", w)
		}
		if !reflect.DeepEqual(arrivals, refArrivals) {
			t.Errorf("workers=%d: drain order differs from the serial run", w)
		}
	}
}

// TestShardLookaheadViolationPanicsFromAddedEngine: the drain's bound check
// covers added engines' outboxes too.
func TestShardLookaheadViolationPanicsFromAddedEngine(t *testing.T) {
	g := NewShardGroup(1, 2)
	e := g.AddEngine("added")
	g.Link(e, 0, 4, 0) // lookahead = 5 ticks
	g.Engine(e).Schedule(2, func() { g.Post(e, 0, 3, func() {}) })

	defer func() {
		msg, ok := recover().(string)
		if !ok || !strings.Contains(msg, "conservative lookahead violated") {
			t.Fatalf("expected a lookahead-violation panic, got %v", msg)
		}
	}()
	g.Run(20)
}

// TestShardWindowQuietExtensionNeedsEveryEngine: a window extends past the
// lookahead bound only when every engine, added ones included, proves
// itself idle.
func TestShardWindowQuietExtensionNeedsEveryEngine(t *testing.T) {
	g := NewShardGroup(1, 2)
	g.Link(0, 1, 1, 0) // lookahead = 2 ticks
	last := 0
	for k := 0; k < 12; k++ {
		last = g.AddEngine(fmt.Sprintf("engine%02d", k))
	}
	g.Engine(last).Schedule(100000, func() {})
	if got := g.windowEnd(300000); got != 100000 {
		t.Fatalf("idle group: window ends at %d, want the next event at 100000", got)
	}
	busy := g.AddEngine("busy")
	g.Engine(busy).AddTickerFunc(PhaseControl, func(Time) {})
	if got := g.windowEnd(300000); got != 2 {
		t.Fatalf("one busy engine: window ends at %d, want the lookahead bound 2", got)
	}
}

func TestShardGroupAddEngineAfterRunPanics(t *testing.T) {
	g := NewShardGroup(1, 1)
	g.Run(10)
	defer func() {
		if recover() == nil {
			t.Fatalf("AddEngine after a run must panic")
		}
	}()
	g.AddEngine("late")
}
