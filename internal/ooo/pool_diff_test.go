package ooo_test

import (
	"fmt"
	"math/rand"
	"testing"

	"loadsched/internal/ooo"
	"loadsched/internal/runner"
	"loadsched/internal/trace"
)

// TestPoolRunMatchesSoloDiff extends the scheduler differential to the
// simulation runner: every job Pool.Run executes — on a pooled engine that
// Reset from an earlier job or on a fresh one, at any worker count — must
// produce Stats byte-identical to the same machine built fresh and run
// alone. Any divergence is state leaking across a Reset or between workers.
func TestPoolRunMatchesSoloDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(0xba7c4))
	profiles := ooo.DiffProfiles(rng, 2)
	const warmup, uops = 1000, 4000

	// Nine randomized machines, plus a narrow machine that mispredicts
	// every miss so wakeups, deferred miss detections and recovery-bubble
	// expiries pile onto shared cycles (the coincident workload). Each
	// machine runs on two workloads, so with one worker its second job
	// runs on the engine its first job parked.
	// Only describable machines are pooled (see runner.ConfigKey); the
	// rest build fresh for every job.
	var jobs []runner.Job
	pooledJobs, pooledMachines := 0, 0
	add := func(build func() ooo.Config, profs ...trace.Profile) {
		for _, prof := range profs {
			jobs = append(jobs, runner.Job{Build: build, Profile: prof, Uops: uops, Warmup: warmup})
		}
		if _, ok := runner.ConfigKey(build()); ok {
			pooledJobs += len(profs)
			pooledMachines++
		}
	}
	for i := 0; i < 9; i++ {
		add(ooo.DiffConfig(rng), profiles[i%2], profiles[(i+1)%2])
	}
	for _, bubble := range []int{0, 6} {
		add(narrowCoincident(bubble), ooo.CoincidentProfile(), profiles[0])
	}

	solo := make([]ooo.Stats, len(jobs))
	for i, j := range jobs {
		cfg := j.Build()
		cfg.WarmupUops = j.Warmup
		solo[i] = ooo.NewEngine(cfg, trace.Replay(j.Profile)).Run(j.Uops)
	}

	for _, workers := range []int{1, 3, 9} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			p := runner.NewIsolated(workers, nil)
			got := p.Run(jobs)
			for i := range jobs {
				if got[i] != solo[i] {
					t.Errorf("job %d diverged under Pool.Run (workers=%d)\npool: %+v\nsolo: %+v",
						i, workers, got[i], solo[i])
				}
			}
			c := p.Counters()
			if c.EngineBuilds+c.EngineReuses != int64(pooledJobs) {
				t.Fatalf("EngineBuilds(%d)+EngineReuses(%d) != %d describable jobs",
					c.EngineBuilds, c.EngineReuses, pooledJobs)
			}
			if want := int64(pooledJobs - pooledMachines); workers == 1 && c.EngineReuses != want {
				t.Errorf("EngineReuses = %d, want %d (one build per machine)", c.EngineReuses, want)
			}
		})
	}
}

// TestPoolRunCoincidentEdgeCases extends the ready-list fast-forward edge
// cases to the runner: on the coincident workload, a narrow machine that
// Pool.Run executes on an engine Reset from an identical earlier job must
// match the same machine run alone, so coincident wakeups, deferred miss
// detections and bubble expiries never depend on what the engine ran before.
func TestPoolRunCoincidentEdgeCases(t *testing.T) {
	const warmup, uops = 500, 3000
	var jobs []runner.Job
	for _, bubble := range []int{0, 6} {
		job := runner.Job{Build: narrowCoincident(bubble), Profile: ooo.CoincidentProfile(), Uops: uops, Warmup: warmup}
		jobs = append(jobs, job, job)
	}
	cfg := jobs[0].Build()
	cfg.WarmupUops = warmup
	if _, ok := runner.ConfigKey(cfg); !ok {
		t.Fatal("narrow coincident machine is not describable, so it would never be pooled")
	}

	p := runner.NewIsolated(1, nil) // no cache: every duplicate simulates
	got := p.Run(jobs)
	for i, j := range jobs {
		cfg := j.Build()
		cfg.WarmupUops = j.Warmup
		solo := ooo.NewEngine(cfg, trace.Replay(j.Profile)).Run(j.Uops)
		if got[i] != solo {
			t.Errorf("coincident job %d diverged under Pool.Run\npool: %+v\nsolo: %+v", i, got[i], solo)
		}
	}
	if c := p.Counters(); c.EngineReuses != 2 {
		t.Errorf("EngineReuses = %d, want 2 (each duplicate runs on its twin's Reset engine)", c.EngineReuses)
	}
}

// narrowCoincident builds a one-wide machine with an eight-entry window
// that mispredicts every miss, so the coincident workload piles events
// onto shared cycles.
func narrowCoincident(bubble int) func() ooo.Config {
	return func() ooo.Config {
		cfg := ooo.DefaultConfig()
		cfg.FetchWidth, cfg.RetireWidth = 1, 1
		cfg.Window, cfg.RenamePool = 8, 8
		cfg.IntUnits, cfg.MemUnits, cfg.STDPorts = 1, 1, 1
		cfg.MissRecoveryBubble = bubble
		cfg.MissReplayPenalty = 8
		return cfg
	}
}
