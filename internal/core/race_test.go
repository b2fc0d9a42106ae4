//go:build race

package core

import "testing"

// skipUnderRace skips an allocation guard: the race detector's
// instrumentation allocates on its own, so allocation counts are
// meaningless under -race.
func skipUnderRace(t *testing.T) {
	t.Helper()
	t.Skip("allocation counts are unreliable under -race")
}
