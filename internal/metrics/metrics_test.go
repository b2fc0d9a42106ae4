package metrics

import (
	"math"
	"strings"
	"testing"

	"agilemig/internal/sim"
)

func TestSeriesAddAndLast(t *testing.T) {
	s := NewSeries("x")
	s.Add(1, 10)
	s.Add(2, 20)
	if s.Len() != 2 || s.Last().V != 20 {
		t.Fatal("add/last wrong")
	}
}

func TestSeriesOutOfOrderPanics(t *testing.T) {
	s := NewSeries("x")
	s.Add(5, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order add did not panic")
		}
	}()
	s.Add(4, 1)
}

func TestMeanBetween(t *testing.T) {
	s := NewSeries("x")
	for i := 0; i < 10; i++ {
		s.Add(float64(i), float64(i))
	}
	m, ok := s.MeanBetween(2, 5) // samples 2,3,4
	if !ok || m != 3 {
		t.Fatalf("MeanBetween = %v, %v", m, ok)
	}
	if _, ok := s.MeanBetween(100, 200); ok {
		t.Fatal("empty window reported ok")
	}
}

func TestMaxAndPercentile(t *testing.T) {
	s := NewSeries("x")
	for _, v := range []float64{5, 1, 9, 3} {
		s.Add(float64(s.Len()), v)
	}
	if s.Max() != 9 {
		t.Fatalf("Max = %v", s.Max())
	}
	if p := s.Percentile(0); p != 1 {
		t.Fatalf("p0 = %v", p)
	}
	if p := s.Percentile(100); p != 9 {
		t.Fatalf("p100 = %v", p)
	}
	if p := s.Percentile(50); p != 4 { // sorted 1,3,5,9 -> midpoint (3+5)/2
		t.Fatalf("p50 = %v", p)
	}
}

func TestEmptySeriesSafe(t *testing.T) {
	s := NewSeries("x")
	if s.Max() != 0 || s.Percentile(50) != 0 || s.Last().V != 0 {
		t.Fatal("empty series not safe")
	}
}

func TestSmoothed(t *testing.T) {
	s := NewSeries("x")
	vals := []float64{0, 10, 0, 10, 0, 10}
	for i, v := range vals {
		s.Add(float64(i), v)
	}
	sm := s.Smoothed(2)
	if sm.Len() != s.Len() {
		t.Fatal("smoothed length differs")
	}
	// After the first sample every smoothed value is 5.
	for _, p := range sm.Points[1:] {
		if p.V != 5 {
			t.Fatalf("smoothed value %v, want 5", p.V)
		}
	}
}

func TestRecoveryTime(t *testing.T) {
	s := NewSeries("tput")
	// Baseline 100 until t=10, crash to 10 until t=50, recover to 95 after.
	for i := 0; i <= 100; i++ {
		v := 100.0
		if i > 10 && i <= 50 {
			v = 10
		} else if i > 50 {
			v = 95
		}
		s.Add(float64(i), v)
	}
	d, ok := RecoveryTime(s, 10, 90, 1, 3)
	if !ok {
		t.Fatal("no recovery found")
	}
	if d < 40 || d > 43 {
		t.Fatalf("recovery delay %v, want ~41", d)
	}
}

func TestRecoveryTimeNever(t *testing.T) {
	s := NewSeries("tput")
	for i := 0; i < 10; i++ {
		s.Add(float64(i), 1)
	}
	if _, ok := RecoveryTime(s, 0, 50, 1, 2); ok {
		t.Fatal("reported recovery that never happened")
	}
}

// TestRecoveryTimeEqualTimestamps feeds samples that share a timestamp,
// which Series.Add allows: the sustained run must start at its own first
// sample, not at the first sample carrying the same time.
func TestRecoveryTimeEqualTimestamps(t *testing.T) {
	for _, tc := range []struct {
		name string
		pts  []Point
		want float64
	}{
		{"run opens the series", []Point{{1, 10}, {1, 10}}, 1},
		{"run shares a time with a low sample", []Point{{0, 1}, {1, 1}, {1, 10}, {1, 10}}, 1},
	} {
		s := NewSeries("tput")
		for _, p := range tc.pts {
			s.Add(p.T, p.V)
		}
		d, ok := RecoveryTime(s, 0, 10, 1, 2)
		if !ok || d != tc.want {
			t.Errorf("%s: RecoveryTime = %v, %v; want %v, true", tc.name, d, ok, tc.want)
		}
	}
}

func TestRecoveryTimeSustainRejectsBlip(t *testing.T) {
	s := NewSeries("tput")
	for i := 0; i <= 50; i++ {
		v := 10.0
		if i == 20 { // single-sample blip
			v = 100
		}
		if i >= 40 {
			v = 100
		}
		s.Add(float64(i), v)
	}
	d, ok := RecoveryTime(s, 0, 90, 1, 3)
	if !ok {
		t.Fatal("no recovery")
	}
	if d < 39 {
		t.Fatalf("recovery at %v latched onto the blip", d)
	}
}

func TestSamplerInterval(t *testing.T) {
	eng := sim.NewEngine(1)
	s := NewSeries("v")
	n := 0.0
	Sample(eng, 0.1, s, func() float64 { n++; return n })
	eng.RunSeconds(1.0)
	// 1 second at 100ms interval = 10 samples.
	if s.Len() != 10 {
		t.Fatalf("sampled %d times, want 10", s.Len())
	}
	if math.Abs(s.Points[0].T-0.1) > 1e-9 {
		t.Fatalf("first sample at %v, want 0.1", s.Points[0].T)
	}
}

func TestSampleRate(t *testing.T) {
	eng := sim.NewEngine(1)
	s := NewSeries("rate")
	var counter float64
	eng.AddTickerFunc(sim.PhaseWorkload, func(sim.Time) { counter += 5 }) // 5 per tick = 5000/s
	SampleRate(eng, 0.5, s, func() float64 { return counter })
	eng.RunSeconds(2.0)
	if s.Len() != 4 {
		t.Fatalf("%d samples", s.Len())
	}
	for _, p := range s.Points {
		if math.Abs(p.V-5000) > 50 {
			t.Fatalf("rate %v, want ~5000", p.V)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Results", "workload", "pre", "post", "agile")
	tb.AddF("YCSB", 470, 247, 108)
	tb.AddF("Sysbench", 182.66, 157.56, 80.37)
	out := tb.String()
	for _, want := range []string{"Results", "workload", "YCSB", "182.66", "agile"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestTableRowMismatchPanics(t *testing.T) {
	tb := NewTable("x", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("short row did not panic")
		}
	}()
	tb.Add("only-one")
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("x", "a", "b")
	tb.Add("1", "2")
	var sb strings.Builder
	if err := tb.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "a,b\n1,2\n" {
		t.Fatalf("csv = %q", sb.String())
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	a, b := NewSeries("a"), NewSeries("b")
	a.Add(1, 10)
	a.Add(2, 20)
	b.Add(1, 100)
	var sb strings.Builder
	if err := WriteSeriesCSV(&sb, a, b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 || lines[0] != "t,a,b" {
		t.Fatalf("csv = %q", sb.String())
	}
	if !strings.HasPrefix(lines[2], "2.000,20.000,") {
		t.Fatalf("row 2 = %q (missing-value handling)", lines[2])
	}
}

func TestAsciiPlotRuns(t *testing.T) {
	s := NewSeries("tput")
	for i := 0; i < 100; i++ {
		s.Add(float64(i), float64(i%10))
	}
	out := AsciiPlot(s, 10, 40)
	if !strings.Contains(out, "tput") || len(strings.Split(out, "\n")) < 10 {
		t.Fatalf("plot output unexpected:\n%s", out)
	}
	if AsciiPlot(NewSeries("e"), 5, 10) != "(no data)\n" {
		t.Fatal("empty plot not handled")
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int64]string{
		512:             "512 B",
		2048:            "2.0 KiB",
		5 * 1024 * 1024: "5.0 MiB",
	}
	for in, want := range cases {
		if got := FormatBytes(in); got != want {
			t.Fatalf("FormatBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestMaxSmoothedDampensSpike(t *testing.T) {
	s := NewSeries("x")
	for i := 0; i < 50; i++ {
		v := 10.0
		if i == 25 {
			v = 1000 // single-sample spike
		}
		s.Add(float64(i), v)
	}
	raw := s.Max()
	sm := s.MaxSmoothed(5)
	if raw != 1000 {
		t.Fatalf("raw max %v", raw)
	}
	if sm > 300 {
		t.Fatalf("smoothed max %v still dominated by the spike", sm)
	}
}

func TestSamplerStartsMidRun(t *testing.T) {
	eng := sim.NewEngine(1)
	eng.RunSeconds(5)
	s := NewSeries("late")
	Sample(eng, 1, s, func() float64 { return 1 })
	eng.RunSeconds(3)
	if s.Len() != 3 {
		t.Fatalf("%d samples from a late-registered sampler", s.Len())
	}
	if s.Points[0].T < 5.9 {
		t.Fatalf("first sample at %v predates registration", s.Points[0].T)
	}
}
