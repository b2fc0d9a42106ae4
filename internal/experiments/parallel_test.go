package experiments

import (
	"sync/atomic"
	"testing"
)

func TestRunPointsOrderAndBounds(t *testing.T) {
	var live, peak atomic.Int64
	out := runPoints(3, 16, func(i int) int {
		n := live.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		defer live.Add(-1)
		return i * i
	})
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d (results must be in input order)", i, v, i*i)
		}
	}
	if peak.Load() > 3 {
		t.Fatalf("observed %d concurrent points, want <= 3", peak.Load())
	}
	if got := runPoints(0, 0, func(int) int { return 1 }); len(got) != 0 {
		t.Fatalf("n=0 returned %d results", len(got))
	}
}
