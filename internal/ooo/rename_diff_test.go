package ooo

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"loadsched/internal/trace"
)

// Differential property tests for side-car rename: producer resolution from
// the trace layer's precomputed dependence side-car (the default whenever
// the source publishes one) must agree exactly — same Stats, same cycle
// count, same CPI stack — with the legacy per-engine alias-table rename
// (reference.aliasRename), across randomized machines, mixed trace
// groups, reused pooled engines and wrapping file replay.

// TestRenameSidecarDiff pins side-car rename to the alias-table oracle on
// randomized machine+workload configurations over shared-recording cursors
// (the sweep hot path).
func TestRenameSidecarDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(0x51deca6))
	profiles := diffProfiles(rng, 5)

	var cases []diffCase
	for i := 0; i < 16; i++ {
		cases = append(cases, diffCase{
			name:  fmt.Sprintf("random-%d", i),
			prof:  profiles[rng.Intn(len(profiles))],
			build: diffConfig(rng),
		})
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			const warmup, uops = 1000, 4000
			run := func(legacy bool) Stats {
				cfg := tc.build()
				cfg.WarmupUops = warmup
				e := newEngine(cfg, trace.Replay(tc.prof), reference{aliasRename: legacy})
				if legacy == (e.depSrc != nil) {
					t.Fatalf("legacy=%v but depSrc=%v", legacy, e.depSrc != nil)
				}
				return e.Run(uops)
			}
			side, legacy := run(false), run(true)
			if side != legacy {
				t.Errorf("side-car and alias-table rename diverged\nside-car: %+v\nlegacy:   %+v", side, legacy)
			}
			if got, want := side.CPI.Total(), side.Cycles; got != want {
				t.Errorf("side-car CPI stack sums to %d, want Cycles=%d", got, want)
			}
		})
	}
}

// TestRenameSidecarDiffPooledReuse drives one engine per rename mode
// through Reset across a mixed sequence of trace groups — the engine-pool
// reuse pattern — and requires the modes to agree run by run. This is what
// catches stale per-slot state the trimmed clearSlot no longer rewrites.
func TestRenameSidecarDiffPooledReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(0x9001ed))
	profiles := diffProfiles(rng, 4)
	cfg := DefaultConfig()
	cfg.WarmupUops = 500
	side := newEngine(cfg, trace.Replay(profiles[0]), reference{})
	legacy := newEngine(cfg, trace.Replay(profiles[0]), reference{aliasRename: true})
	// Revisit groups so reuse happens both across and back onto a profile.
	order := []int{0, 1, 2, 1, 3, 0, 2}
	for i, pi := range order {
		if i > 0 {
			if !side.Reset(trace.Replay(profiles[pi])) || !legacy.Reset(trace.Replay(profiles[pi])) {
				t.Fatal("default policy should be pool-reusable")
			}
		}
		s, l := side.Run(3000), legacy.Run(3000)
		if s != l {
			t.Fatalf("run %d (profile %d): side-car and legacy diverged after reuse\nside-car: %+v\nlegacy:   %+v",
				i, pi, s, l)
		}
	}
}

// TestRenameSidecarDiffStreamWrap replays a recorded trace file through
// StreamReader past its end, so the side-car's renumbering-invariant deltas
// and per-pass store bases are exercised across wrap-around.
func TestRenameSidecarDiffStreamWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(0x77a9))
	prof := diffProfiles(rng, 1)[0]
	path := filepath.Join(t.TempDir(), "wrap.trace")
	if err := trace.WriteTraceFile(path, prof, 6000); err != nil {
		t.Fatal(err)
	}
	run := func(legacy bool) Stats {
		r, err := trace.StreamTraceFile(path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		cfg := DefaultConfig()
		cfg.WarmupUops = 2000
		// 2000 warmup + 10000 measured = two full wraps of the 6000-uop file.
		return newEngine(cfg, r, reference{aliasRename: legacy}).Run(10000)
	}
	side, legacy := run(false), run(true)
	if side != legacy {
		t.Errorf("side-car and legacy diverged across file wrap\nside-car: %+v\nlegacy:   %+v", side, legacy)
	}
}
