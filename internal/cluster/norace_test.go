//go:build !race

package cluster

import "testing"

// skipUnderRace skips a heap guard under -race; this build has no race
// detector, so the guard runs.
func skipUnderRace(*testing.T) {}
