//go:build !race

// The race detector instruments every memory access of the reference
// kernel and of the work below, which changes their relative speeds; this
// test measures only uninstrumented code.

package main

import (
	"testing"
	"time"
)

var workSink uint64

// computeWork is register-only work, about a millisecond of it.
func computeWork() {
	x := workSink | 1
	for i := 0; i < 1<<20; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	workSink = x
}

// sweepWork writes through a buffer far larger than L2, evicting the
// meter's working set, as a simulator with a large heap would.
func sweepWork(buf []uint64) func() {
	return func() {
		for i := range buf {
			buf[i] += uint64(i)
		}
	}
}

// Injecting a known extra cost between a simulated workload's steps must
// grow its reference seconds by that cost, whether the cost is
// compute-bound or sweeps the caches: work the simulator does between
// bursts may not change the speed the meter reads, or a simulator change
// would cancel part of itself. Each round times the base work alone, then
// with each extra interleaved, so host drift affects all of them alike;
// the check is on medians over rounds.
func TestSpeedFactorIgnoresInterleavedWork(t *testing.T) {
	rounds := 9
	if testing.Short() {
		rounds = 5
	}
	buf := make([]uint64, 4<<20) // 32 MiB
	extras := []struct {
		name string
		work func()
	}{{"compute", computeWork}, {"sweep", sweepWork(buf)}}

	// measure runs steps of base work, each followed by extra (if any) and
	// a forced burst, in one timed phase. It returns the phase's reference
	// seconds, its speed factor and the raw time extra took.
	measure := func(extra func()) (ref, speed float64, extraRaw time.Duration) {
		m, err := newSpeedMeter(false)
		if err != nil {
			t.Fatal(err)
		}
		r := &run{meters: []*speedMeter{m}}
		r.timed(phMigrate, func() {
			for i := 0; i < 40; i++ {
				computeWork()
				if extra != nil {
					t0 := time.Now()
					extra()
					extraRaw += time.Since(t0)
				}
				m.last = time.Time{}
				m.maybe()
			}
		})
		speed = speedFactor(r.meters)
		if err := r.releaseMeters(); err != nil {
			t.Fatal(err)
		}
		return speed * r.wall[phMigrate].Seconds(), speed, extraRaw
	}

	growth := make([][]float64, len(extras)) // measured growth / injected cost
	for round := 0; round < rounds; round++ {
		base, speed, _ := measure(nil)
		for i, x := range extras {
			ref, _, raw := measure(x.work)
			growth[i] = append(growth[i], (ref-base)/(speed*raw.Seconds()))
		}
	}
	for i, x := range extras {
		g := median(growth[i])
		t.Logf("%s: reference seconds grew by %.3f of the injected cost (rounds %.3f)", x.name, g, growth[i])
		if g < 0.85 || g > 1.15 {
			t.Errorf("%s: reference seconds grew by %.3f of the injected cost, want 1 ± 0.15", x.name, g)
		}
	}
}
