package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"loadsched/internal/experiments"
	"loadsched/internal/results"
	"loadsched/internal/runner"
	"loadsched/internal/store"
	"loadsched/internal/trace"
)

// inproc is a workload that calls the experiment drivers in process, the
// way `loadsched all -format json` does: passes over a fixed list of
// figure records, each pass cold (fresh pool, memo cache and store).
type inproc struct {
	command  string
	ids      []string
	opts     experiments.Options
	profiles []trace.Profile
	// withStore attaches a fresh store under a fresh memo cache per pass;
	// without it the pool has no cache at all.
	withStore bool

	// counters of the last measured phase, per pass.
	runner runner.Counters
	store  store.Counters
	codec  codecStats
}

// newReproAll is `loadsched all -store DIR -format json` at the CLI's
// default size: every figure over every trace of every group.
func newReproAll() workload {
	var ps []trace.Profile
	for _, g := range trace.Groups() {
		ps = append(ps, g.Traces...)
	}
	return &inproc{command: "all", ids: experiments.FigureIDs, opts: experiments.DefaultOptions(),
		profiles: ps, withStore: true}
}

// newStatReplay is Figures 10 and 12 plus the bank-policy table: the
// statistical replays through the cache model and the hit-miss and bank
// predictors, with no engine and no memo cache.
func newStatReplay() workload {
	groups := map[string]bool{trace.GroupSpecInt95: true} // the bank-policy table
	for _, g := range experiments.Fig10Groups {
		if g == "Others" { // Figure 10 pools the remaining groups
			groups[trace.GroupGames], groups[trace.GroupJava], groups[trace.GroupTPC] = true, true, true
			continue
		}
		groups[g] = true
	}
	for _, g := range experiments.Fig12Groups {
		groups[g] = true
	}
	var ps []trace.Profile
	for _, g := range trace.Groups() {
		if groups[g.Name] {
			ps = append(ps, g.Traces...)
		}
	}
	return &inproc{command: "figure 10 12 bankpolicies", ids: []string{"fig10", "fig12", "bankpolicies"},
		opts: experiments.DefaultOptions(), profiles: ps}
}

// setup materializes every recording the workload replays: generation,
// packing, chunk decode and the dependence side-car, on the runner's
// worker count.
func (w *inproc) setup(e *env, tr *tracer) error {
	materialize(w.profiles, w.opts.EffectiveWarmup()+w.opts.Uops, tr)
	return nil
}

// materialize drains each profile's shared recording to n uops.
func materialize(ps []trace.Profile, n int, tr *tracer) {
	var wg sync.WaitGroup
	work := make(chan trace.Profile)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range work {
				sp := tr.begin("trace.Replay drain", nil)
				drain(p, n)
				sp.end()
			}
		}()
	}
	for _, p := range ps {
		work <- p
	}
	close(work)
	wg.Wait()
}

// drain walks n uops of p's shared recording and returns how many it read.
func drain(p trace.Profile, n int) int {
	c := trace.Replay(p)
	seen := 0
	for seen < n {
		us, _, _ := c.NextBatchRef()
		seen += len(us)
	}
	return seen
}

func (w *inproc) measure(e *env, tr *tracer) (*phase, error) {
	ph := &phase{}
	w.runner, w.store, w.codec = runner.Counters{}, store.Counters{}, codecStats{}
	mem := snapMem()
	start := time.Now()
	var digest string
	for len(ph.passes) == 0 || time.Since(start) < e.seconds {
		d, err := w.pass(e, tr, ph)
		if err != nil {
			return nil, err
		}
		if digest == "" {
			digest = d
		} else if d != digest {
			fmt.Printf("digest of pass %d differs from the first pass\n", len(ph.passes))
			ph.failed++
		}
	}
	// The phase's length is its timed passes, without the checks between.
	for _, p := range ph.passes {
		ph.wall += p
	}
	ph.closeMem(mem)
	ph.digest = digest
	ph.passWork = float64(len(ph.passes))
	return ph, nil
}

// pass runs the figure list once, cold, and checks its output.
func (w *inproc) pass(e *env, tr *tracer, ph *phase) (string, error) {
	var cache *runner.Cache
	var st *store.Store
	dir := filepath.Join(e.dir, fmt.Sprintf("store-%d", len(ph.passes)))
	if w.withStore {
		var err error
		if st, err = store.Open(dir); err != nil {
			return "", err
		}
		cache = runner.NewCache()
		cache.SetStore(st)
	}
	defer os.RemoveAll(dir)
	pool := runner.NewIsolated(workers, cache)
	o := w.opts
	o.Pool = pool

	// The loop AllRecords runs. A pass is one request, as one CLI
	// invocation is: `-format json` emits the report only once every record
	// exists, so the first record arrives when the pass ends.
	root := tr.begin("pass "+w.command, nil)
	start := time.Now()
	recs := make([]results.Record, 0, len(w.ids))
	for _, id := range w.ids {
		sp := tr.begin("experiments.FigureRecord/"+id, root)
		rec, err := experiments.FigureRecord(id, o)
		sp.end()
		if err != nil {
			return "", err
		}
		recs = append(recs, rec)
	}
	report := results.NewReport(w.command, results.Options{
		Uops: o.Uops, Warmup: o.Warmup, TracesPerGroup: o.TracesPerGroup}, recs)
	var buf bytes.Buffer
	sp := tr.begin("results.WriteJSON", root)
	t := time.Now()
	err := results.WriteJSON(&buf, report)
	enc := time.Since(t)
	sp.end()
	if err != nil {
		return "", err
	}
	d := time.Since(start)
	ph.passes = append(ph.passes, d)
	ph.requests = append(ph.requests, d)
	ph.firsts = append(ph.firsts, d)
	root.end()

	// Untimed: every record validates and round-trips byte-identically.
	ph.attempted += len(recs)
	ph.failed += checkRecords(recs, tr, &w.codec)
	w.codec.encode += enc
	w.codec.bytes += int64(buf.Len())

	c := pool.Counters()
	addRunner(&w.runner, c)
	if st != nil {
		sc := st.Counters()
		w.store.Hits += sc.Hits
		w.store.Misses += sc.Misses
		w.store.Corrupt += sc.Corrupt
		w.store.Writes += sc.Writes
		w.store.WriteErrors += sc.WriteErrors
	}
	return digestOf(buf.Bytes()), nil
}

// codecStats accumulates record encode/decode work.
type codecStats struct {
	encode, decode time.Duration
	records        int
	bytes          int64
}

// checkRecords validates each record and checks that its JSON decodes
// (timed as results.DecodeRecord) and re-encodes to the same bytes. It
// returns the number of records that fail.
func checkRecords(recs []results.Record, tr *tracer, cs *codecStats) int {
	failed := 0
	for _, rec := range recs {
		if err := rec.Validate(); err != nil {
			fmt.Println("invalid record:", err)
			failed++
			continue
		}
		raw, err := json.Marshal(rec)
		if err != nil {
			fmt.Println("encoding record:", err)
			failed++
			continue
		}
		sp := tr.begin("results.DecodeRecord", nil)
		t := time.Now()
		dec, err := results.DecodeRecord(raw)
		cs.decode += time.Since(t)
		sp.end()
		cs.records++
		if err == nil {
			err = dec.Validate()
		}
		if err != nil {
			fmt.Println("decoding record:", err)
			failed++
			continue
		}
		again, err := json.Marshal(dec)
		if err != nil || !bytes.Equal(again, raw) {
			fmt.Printf("record %s does not round-trip\n", rec.ID)
			failed++
		}
	}
	return failed
}

// addRunner accumulates pool counters.
func addRunner(dst *runner.Counters, c runner.Counters) {
	dst.Jobs += c.Jobs
	dst.Simulated += c.Simulated
	dst.MemoHits += c.MemoHits
	dst.DiskHits += c.DiskHits
	dst.Coalesced += c.Coalesced
	dst.Uncached += c.Uncached
	dst.MapTasks += c.MapTasks
	dst.EngineBuilds += c.EngineBuilds
	dst.EngineReuses += c.EngineReuses
	dst.SimTime += c.SimTime
}

func (w *inproc) layers(e *env, ph *phase, tr *tracer, m map[string]float64) error {
	traceLayer(w.profiles, w.opts.EffectiveWarmup()+w.opts.Uops, tr, m)
	runnerLayer(w.runner, ph, m)
	storeLayer(w.store, ph.passWork, m)
	codecLayer(w.codec, m)
	return nil
}
