// Package runner executes independent trace-driven simulations on a bounded
// worker pool with deterministic, order-preserving result collection, plus a
// keyed memoization cache so identical (machine, trace, length) runs — most
// notably the Traditional baseline shared by every figure and sweep — are
// simulated exactly once per process.
//
// Determinism: each simulation is a pure function of its Job (the engine,
// trace generator and predictors share no mutable state across instances),
// so executing a job list on 1 worker or N workers yields identical result
// slices; only wall-clock time changes. The experiment drivers build their
// tables from those slices in job order, which keeps rendered output
// byte-identical across -j settings.
package runner

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"loadsched/internal/ooo"
	"loadsched/internal/store"
	"loadsched/internal/trace"
)

// Job is one simulation request: a machine configuration, a synthetic
// workload, and the measured/warmup lengths.
type Job struct {
	// Build constructs the machine configuration. It is called exactly once
	// per executed job and MUST return a freshly built Config: predictors
	// (CHT, HMP, bank predictor) are stateful and trained during the run,
	// and the engine itself patches oracle predictors in place, so a Config
	// may never be shared between executions.
	Build func() ooo.Config
	// Profile is the synthetic workload to simulate.
	Profile trace.Profile
	// Uops is the measured length; Warmup is the unmeasured prefix. The
	// runner owns Config.WarmupUops — any value set by Build is overwritten
	// with Warmup.
	Uops, Warmup int
}

// Pool is a bounded-concurrency simulation executor. The zero value is not
// usable; construct with New or NewIsolated.
type Pool struct {
	workers int
	cache   *Cache
	engines enginePool
	m       metrics
}

// enginePool recycles built engines across a pool's jobs, keyed by the
// canonical machine description (the same key memoization uses, so a free
// engine is guaranteed to match the requesting configuration exactly —
// including the warmup length, which the description's WarmupUops field
// pins). Only describable configurations are pooled: describability rules
// out observation callbacks whose closures an engine could go stale
// against, and covers custom policies only when a PolicyKey names them.
// Reuse additionally requires the policy to implement PolicyResetter (the
// built-in one does; described custom policies opt in); a parked engine
// whose policy refuses Reset is discarded and the job builds fresh, which
// the EngineBuilds counter surfaces. Free lists are bounded by worker
// concurrency — an engine is either running a job or parked here.
type enginePool struct {
	mu   sync.Mutex
	free map[string][]*ooo.Engine
}

// take pops a parked engine for the machine description, or returns nil.
func (ep *enginePool) take(desc string) *ooo.Engine {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	l := ep.free[desc]
	if len(l) == 0 {
		return nil
	}
	e := l[len(l)-1]
	ep.free[desc] = l[:len(l)-1]
	return e
}

// put parks a finished engine for reuse.
func (ep *enginePool) put(desc string, e *ooo.Engine) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.free == nil {
		ep.free = map[string][]*ooo.Engine{}
	}
	ep.free[desc] = append(ep.free[desc], e)
}

// Counters is a point-in-time snapshot of a pool's observability counters:
// what the pool actually did, as opposed to what it was asked for. Jobs
// splits into Simulated + MemoHits + DiskHits + Coalesced (Uncached jobs
// are the subset of Simulated that ran outside the cache);
// SimTime is wall time spent inside simulations summed over jobs, so it
// exceeds elapsed time when workers overlap. The counts other than Jobs and
// MapTasks can vary with timing (a concurrent duplicate lands as MemoHits
// or Coalesced depending on who wins the race), which is why they surface
// only through explicit observability paths (-v), never in deterministic
// output.
type Counters struct {
	// Jobs is the number of simulations requested through Do.
	Jobs int64
	// Simulated jobs actually ran an engine (memo misses plus Uncached).
	Simulated int64
	// MemoHits were served from a completed in-memory cache entry.
	MemoHits int64
	// DiskHits were served from the persistent result store (no simulation
	// ran in this or any process; see Cache.SetStore).
	DiskHits int64
	// Coalesced waited on an identical in-flight simulation (single-flight).
	Coalesced int64
	// Uncached ran outside the cache: non-describable configs.
	Uncached int64
	// MapTasks counts fan-out units dispatched through Map. Run submits one
	// task per job, so for Run job lists it equals the jobs submitted.
	MapTasks int64
	// EngineBuilds and EngineReuses split the executed describable
	// simulations by whether a fresh engine was constructed or a pooled one
	// was Reset and reused.
	EngineBuilds, EngineReuses int64
	// SimTime is wall time spent inside simulations, summed over Do calls;
	// it exceeds elapsed time when workers overlap.
	SimTime time.Duration
}

// metrics is the pool-internal atomic counter block behind Counters.
type metrics struct {
	jobs, simulated, memoHits, diskHits, coalesced, uncached, mapTasks, simNanos atomic.Int64
	engineBuilds, engineReuses                                                   atomic.Int64
}

// Counters snapshots the pool's observability counters.
func (p *Pool) Counters() Counters {
	return Counters{
		Jobs:         p.m.jobs.Load(),
		Simulated:    p.m.simulated.Load(),
		MemoHits:     p.m.memoHits.Load(),
		DiskHits:     p.m.diskHits.Load(),
		Coalesced:    p.m.coalesced.Load(),
		Uncached:     p.m.uncached.Load(),
		MapTasks:     p.m.mapTasks.Load(),
		EngineBuilds: p.m.engineBuilds.Load(),
		EngineReuses: p.m.engineReuses.Load(),
		SimTime:      time.Duration(p.m.simNanos.Load()),
	}
}

// CacheLen reports the pool's memo cache size (0 for cache-free pools).
func (p *Pool) CacheLen() int {
	if p.cache == nil {
		return 0
	}
	return p.cache.Len()
}

// DiskCounters snapshots the persistent store's counters when the pool's
// cache is store-backed. The numbers are store-wide (the store is typically
// shared process-wide), unlike the per-pool Counters.
func (p *Pool) DiskCounters() (store.Counters, bool) {
	if p.cache == nil {
		return store.Counters{}, false
	}
	s := p.cache.Store()
	if s == nil {
		return store.Counters{}, false
	}
	return s.Counters(), true
}

// New returns a pool with the given concurrency bound that memoizes on the
// process-wide shared cache. workers <= 0 selects GOMAXPROCS; workers == 1
// executes jobs serially on the calling goroutine.
func New(workers int) *Pool {
	return &Pool{workers: workers, cache: shared}
}

// NewIsolated returns a pool with its own cache (or none, when cache is
// nil — every job then simulates from scratch). Benchmarks and determinism
// tests use isolated pools so runs do not share results through the
// process-wide cache.
func NewIsolated(workers int, cache *Cache) *Pool {
	return &Pool{workers: workers, cache: cache}
}

// Workers resolves the pool's concurrency bound.
func (p *Pool) Workers() int {
	if p.workers > 0 {
		return p.workers
	}
	return runtime.GOMAXPROCS(0)
}

// Do executes one job, through the memoization cache when the job's
// configuration is describable (see ConfigKey). Describable jobs also run on
// pooled engines — the machine description doubles as the reuse key — so the
// steady-state cost of one more simulation is CPU, not allocation.
func (p *Pool) Do(j Job) ooo.Stats {
	p.m.jobs.Add(1)
	cfg := j.Build()
	cfg.WarmupUops = j.Warmup
	desc, describable := ConfigKey(cfg)
	run := func() ooo.Stats {
		start := time.Now()
		var st ooo.Stats
		if describable {
			st = p.runPooled(desc, cfg, j)
		} else {
			st = ooo.NewEngine(cfg, trace.Replay(j.Profile)).Run(j.Uops)
		}
		p.m.simNanos.Add(time.Since(start).Nanoseconds())
		p.m.simulated.Add(1)
		return st
	}
	if p.cache == nil || !describable {
		p.m.uncached.Add(1)
		return run()
	}
	st, how := p.cache.do(Key{Machine: desc, Profile: j.Profile, Uops: j.Uops, Warmup: j.Warmup}, run)
	switch how {
	case memoHit:
		p.m.memoHits.Add(1)
	case diskHit:
		p.m.diskHits.Add(1)
	case coalesced:
		p.m.coalesced.Add(1)
	}
	return st
}

// runPooled executes one describable simulation on a recycled engine when
// one is parked for the machine description, building (and afterwards
// parking) a fresh one otherwise. The Reset-refused fallback is real for
// described custom policies that do not implement PolicyResetter: every
// such job builds a fresh engine, visible as EngineBuilds with zero
// EngineReuses for that configuration.
func (p *Pool) runPooled(desc string, cfg ooo.Config, j Job) ooo.Stats {
	e := p.engines.take(desc)
	if e == nil || !e.Reset(trace.Replay(j.Profile)) {
		e = ooo.NewEngine(cfg, trace.Replay(j.Profile))
		p.m.engineBuilds.Add(1)
	} else {
		p.m.engineReuses.Add(1)
	}
	st := e.Run(j.Uops)
	p.engines.put(desc, e)
	return st
}

// Run executes every job through Do and returns their statistics in job
// order, regardless of completion order. Identical jobs (equal keys) are
// simulated once and share the result. Jobs are dispatched grouped by
// Profile — profiles in first-seen order, list order within a profile — so
// the workers replay one shared recording at a time while its decoded
// chunks and side-cars are still cache-warm; raw list order measured
// slower on full-size sweeps.
func (p *Pool) Run(jobs []Job) []ooo.Stats {
	var profiles []trace.Profile
	groups := map[trace.Profile][]int{}
	for i, j := range jobs {
		if _, seen := groups[j.Profile]; !seen {
			profiles = append(profiles, j.Profile)
		}
		groups[j.Profile] = append(groups[j.Profile], i)
	}
	order := make([]int, 0, len(jobs))
	for _, prof := range profiles {
		order = append(order, groups[prof]...)
	}
	out := make([]ooo.Stats, len(jobs))
	Map(p, len(order), func(i int) struct{} {
		out[order[i]] = p.Do(jobs[order[i]])
		return struct{}{}
	})
	return out
}

// Map evaluates fn(0..n-1) on the pool's workers and returns the results in
// index order. It is the generic fan-out primitive behind Pool.Run, used
// directly by experiments whose unit of work is not a plain engine run
// (event-stream capture, statistical predictor replays).
func Map[T any](p *Pool, n int, fn func(int) T) []T {
	out := make([]T, n)
	p.m.mapTasks.Add(int64(n))
	w := p.Workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			out[i] = fn(i)
		}
		return out
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
}
