// Package metrics collects time series from a running simulation and
// post-processes them into the numbers the paper reports: average
// throughput over a window, total migration time, data transferred, and
// "time until performance recovers to 90% of its maximum".
package metrics

import (
	"fmt"
	"math"
	"sort"

	"agilemig/internal/sim"
)

// Point is one sample: simulated time in seconds and a value.
type Point struct {
	T float64
	V float64
}

// Series is a named sequence of samples in time order.
type Series struct {
	Name   string
	Points []Point
}

// NewSeries returns an empty series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Add appends a sample. Samples must be added in non-decreasing time order.
func (s *Series) Add(t, v float64) {
	if n := len(s.Points); n > 0 && s.Points[n-1].T > t {
		panic("metrics: out-of-order sample")
	}
	s.Points = append(s.Points, Point{T: t, V: v})
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Points) }

// Last returns the final sample, or a zero Point if empty.
func (s *Series) Last() Point {
	if len(s.Points) == 0 {
		return Point{}
	}
	return s.Points[len(s.Points)-1]
}

// MeanBetween returns the mean of samples with t0 <= T < t1. ok is false
// if the window holds no samples. Since Add enforces time order, the
// window bounds are found by binary search: O(log n + window) rather than
// a full scan, which matters when report generation slices a long series
// into many buckets.
func (s *Series) MeanBetween(t0, t1 float64) (mean float64, ok bool) {
	lo, hi := s.window(t0, t1)
	if lo >= hi {
		return 0, false
	}
	sum := 0.0
	for _, p := range s.Points[lo:hi] {
		sum += p.V
	}
	return sum / float64(hi-lo), true
}

// window returns the half-open index range [lo, hi) of samples with
// t0 <= T < t1.
func (s *Series) window(t0, t1 float64) (lo, hi int) {
	lo = sort.Search(len(s.Points), func(i int) bool { return s.Points[i].T >= t0 })
	hi = lo + sort.Search(len(s.Points)-lo, func(i int) bool { return s.Points[lo+i].T >= t1 })
	return lo, hi
}

// Max returns the maximum sample value, or 0 for an empty series.
func (s *Series) Max() float64 {
	m := math.Inf(-1)
	for _, p := range s.Points {
		if p.V > m {
			m = p.V
		}
	}
	if math.IsInf(m, -1) {
		return 0
	}
	return m
}

// MaxSmoothed returns the maximum of a centered moving average over the
// given window size in samples. The paper's "maximum performance" baseline
// uses a smoothed peak so that one lucky sample doesn't set an unreachable
// bar.
func (s *Series) MaxSmoothed(window int) float64 {
	sm := s.Smoothed(window)
	return sm.Max()
}

// Smoothed returns a new series whose value at each sample is the mean of
// the surrounding window (trailing window of the given size).
func (s *Series) Smoothed(window int) *Series {
	if window < 1 {
		window = 1
	}
	out := NewSeries(s.Name + ".smoothed")
	sum := 0.0
	for i, p := range s.Points {
		sum += p.V
		if i >= window {
			sum -= s.Points[i-window].V
		}
		n := window
		if i+1 < window {
			n = i + 1
		}
		out.Add(p.T, sum/float64(n))
	}
	return out
}

// Percentile returns the p-th percentile (0..100) of the sample values.
func (s *Series) Percentile(p float64) float64 {
	if len(s.Points) == 0 {
		return 0
	}
	vals := make([]float64, len(s.Points))
	for i, pt := range s.Points {
		vals[i] = pt.V
	}
	sort.Float64s(vals)
	if p <= 0 {
		return vals[0]
	}
	if p >= 100 {
		return vals[len(vals)-1]
	}
	rank := p / 100 * float64(len(vals)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(vals) {
		return vals[lo]
	}
	return vals[lo]*(1-frac) + vals[lo+1]*frac
}

// RecoveryTime returns how long after fromT the smoothed series first
// reaches target and stays at or above it for sustain consecutive samples.
// ok is false if the series never recovers.
func RecoveryTime(s *Series, fromT, target float64, smoothWindow, sustain int) (delay float64, ok bool) {
	sm := s.Smoothed(smoothWindow)
	if sustain < 1 {
		sustain = 1
	}
	run := 0
	for i, p := range sm.Points {
		if p.T < fromT {
			continue
		}
		if p.V >= target {
			run++
			if run == sustain {
				// Recovery is the first sample of the sustained run.
				first := sm.Points[i-sustain+1]
				return first.T - fromT, true
			}
		} else {
			run = 0
		}
	}
	return 0, false
}

// Sampler periodically samples a value function into a series. Register it
// once per series; it runs in sim.PhaseMetrics.
type Sampler struct {
	eng      *sim.Engine
	interval sim.Duration
	next     sim.Time
	series   *Series
	fn       func() float64
}

// Sample registers a sampler that records fn() into series every
// intervalSeconds of simulated time.
func Sample(eng *sim.Engine, intervalSeconds float64, series *Series, fn func() float64) *Sampler {
	s := &Sampler{
		eng:      eng,
		interval: eng.SecondsToTicks(intervalSeconds),
		series:   series,
		fn:       fn,
	}
	if s.interval < 1 {
		s.interval = 1
	}
	s.next = eng.Now() + sim.Time(s.interval)
	eng.AddTicker(sim.PhaseMetrics, s)
	return s
}

// Tick records a sample when the interval elapses.
func (s *Sampler) Tick(now sim.Time) {
	if now < s.next {
		return
	}
	s.next = now + sim.Time(s.interval)
	s.series.Add(s.eng.NowSeconds(), s.fn())
}

// NextWake reports the sampler's next sampling tick; every tick before it
// is an exact no-op, so the engine may skip ahead to it.
func (s *Sampler) NextWake(now sim.Time) (sim.Time, bool) {
	if s.next <= now {
		return now + 1, true
	}
	return s.next, true
}

// SampleRate registers a sampler that records the per-second rate of a
// cumulative counter (e.g. completed operations) every intervalSeconds.
func SampleRate(eng *sim.Engine, intervalSeconds float64, series *Series, counter func() float64) *Sampler {
	var last float64
	var lastT = eng.NowSeconds()
	return Sample(eng, intervalSeconds, series, func() float64 {
		cur := counter()
		now := eng.NowSeconds()
		dt := now - lastT
		if dt <= 0 {
			return 0
		}
		rate := (cur - last) / dt
		last, lastT = cur, now
		return rate
	})
}

// FormatBytes renders a byte count in binary units.
func FormatBytes(b int64) string {
	const unit = 1024
	if b < unit {
		return fmt.Sprintf("%d B", b)
	}
	div, exp := int64(unit), 0
	for n := b / unit; n >= unit; n /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f %ciB", float64(b)/float64(div), "KMGTPE"[exp])
}
