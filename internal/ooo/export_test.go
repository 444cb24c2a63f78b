package ooo

import (
	"math/rand"

	"loadsched/internal/trace"
)

// Re-exports for the external pool differential test (package ooo_test).
// internal/runner imports ooo, so a test driving both Engine and Pool.Run
// cannot be an in-package ooo test; these shims hand it the same randomized
// machine and workload generators the in-package differential tests use.

// DiffProfiles exposes diffProfiles.
func DiffProfiles(rng *rand.Rand, n int) []trace.Profile { return diffProfiles(rng, n) }

// DiffConfig exposes diffConfig.
func DiffConfig(rng *rand.Rand) func() Config { return diffConfig(rng) }

// CoincidentProfile exposes the ready-list edge-case workload.
func CoincidentProfile() trace.Profile { return coincidentProfile }
