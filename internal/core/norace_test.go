//go:build !race

package core

import "testing"

// skipUnderRace skips an allocation guard under -race; this build has no
// race detector, so the guard runs.
func skipUnderRace(*testing.T) {}
