//go:build race

package cluster

import "testing"

// skipUnderRace skips a heap guard: the race detector's instrumentation
// allocates on its own, so heap byte counts are meaningless under -race.
func skipUnderRace(t *testing.T) {
	t.Helper()
	t.Skip("heap allocation counts are unreliable under -race")
}
