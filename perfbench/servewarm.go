package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"loadsched/internal/experiments"
	"loadsched/internal/results"
	"loadsched/internal/runner"
	"loadsched/internal/serve"
	"loadsched/internal/store"
	"loadsched/internal/trace"
)

// serveWarm is a closed loop of `workers` serve.Clients against an
// in-process serve.Server on loopback. Each client sends its next job only
// after the previous job's done line. Every job is memoizable and the
// server's memo cache sits over a store warmed during set-up, so a timed
// job reads the disk on its first touch of a key and memory after that,
// and simulates nothing.
type serveWarm struct {
	opts     results.Options
	jobs     []serve.Job
	expected [][][]byte // per job: the warm-up's records, JSON-encoded
	storeDir string
	// base is the server's URL; digest hashes the expected records.
	base, digest string

	front  *front
	srv    *http.Server
	served chan error

	seqMu sync.Mutex
	seq   []int // job sequence: seeded permutations of the job list
	rng   *rand.Rand

	// counters of the last measured phase.
	runner runner.Counters
	store  store.Counters
}

func newServeWarm() workload {
	q := experiments.Quick()
	w := &serveWarm{opts: results.Options{Uops: q.Uops, Warmup: q.Warmup, TracesPerGroup: q.TracesPerGroup}}
	for _, f := range []string{"5", "6", "7", "8", "11"} {
		w.jobs = append(w.jobs, serve.Job{Command: "figure", Figures: []string{f}, Options: w.opts})
	}
	w.jobs = append(w.jobs,
		serve.Job{Command: "cpistack", Options: w.opts},
		serve.Job{Command: "tournament", Options: w.opts},
		serve.Job{Command: "sweep", Sweep: "window", Options: w.opts},
		serve.Job{Command: "sweep", Sweep: "penalty", Options: w.opts})
	return w
}

func jobName(j serve.Job) string {
	switch j.Command {
	case "figure":
		return "figure " + strings.Join(j.Figures, " ")
	case "sweep":
		return "sweep " + j.Sweep
	}
	return j.Command
}

// setup warms a fresh store by running every job once through a server
// whose memo cache writes through to it, keeps each job's records as the
// expected answer, and leaves the loopback listener serving.
func (w *serveWarm) setup(e *env, tr *tracer) error {
	w.rng = rand.New(rand.NewSource(e.seed))
	w.storeDir = filepath.Join(e.dir, "store")
	st, err := store.Open(w.storeDir)
	if err != nil {
		return err
	}
	warm := runner.NewCache()
	warm.SetStore(st)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.front = &front{}
	w.front.set(serve.New(serve.Config{Workers: workers, Cache: warm}).Handler())
	w.srv = &http.Server{Handler: w.front}
	w.served = make(chan error, 1)
	go func() { w.served <- w.srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	w.base = base

	c := serve.NewClient(base + "/c0")
	var all bytes.Buffer
	for _, j := range w.jobs {
		var recs [][]byte
		_, err := c.Do(j, func(rec results.Record) error {
			if err := rec.Validate(); err != nil {
				return err
			}
			b, err := json.Marshal(rec)
			recs = append(recs, b)
			all.Write(b)
			all.WriteByte('\n')
			return err
		})
		if err != nil {
			return fmt.Errorf("warming %s: %w", jobName(j), err)
		}
		if len(recs) == 0 {
			return fmt.Errorf("warming %s: no records", jobName(j))
		}
		w.expected = append(w.expected, recs)
	}
	w.digest = digestOf(all.Bytes())
	return nil
}

// job returns the i-th job of the seeded sequence: consecutive blocks of
// len(jobs) are permutations of the job list, so each block is one pass.
func (w *serveWarm) job(i int) int {
	w.seqMu.Lock()
	defer w.seqMu.Unlock()
	for len(w.seq) <= i {
		w.seq = append(w.seq, w.rng.Perm(len(w.jobs))...)
	}
	return w.seq[i]
}

// jobSample is one timed job, times relative to the phase start.
type jobSample struct {
	seq                 int
	submit, first, done time.Duration
	ok                  bool
}

func (w *serveWarm) measure(e *env, tr *tracer) (*phase, error) {
	// Each phase gets a fresh server and memo cache over the warmed store,
	// so both phases of a traced run start with memory cold and disk warm.
	st, err := store.Open(w.storeDir)
	if err != nil {
		return nil, err
	}
	c := runner.NewCache()
	c.SetStore(st)
	w.front.set(serve.New(serve.Config{Workers: workers, Cache: c}).Handler())
	w.front.reset(tr)
	w.runner = runner.Counters{}

	ph := &phase{}
	mem := snapMem()
	start := time.Now()
	deadline := start.Add(e.seconds)
	var next atomic.Int64
	var mu sync.Mutex
	var samples []jobSample
	var wg sync.WaitGroup
	for ci := 0; ci < workers; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			client := serve.NewClient(w.base + "/c" + strconv.Itoa(ci))
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				ji := w.job(i)
				s, counters := w.one(client, ci, ji, start, tr)
				s.seq = i
				mu.Lock()
				samples = append(samples, s)
				if counters != nil {
					addRunner(&w.runner, poolCounters(counters))
				}
				mu.Unlock()
			}
		}(ci)
	}
	wg.Wait()
	ph.closeMem(mem)
	w.store = st.Counters()

	var end time.Duration
	n := len(w.jobs)
	type passSpan struct {
		lo, hi time.Duration
		count  int
	}
	passes := map[int]*passSpan{}
	for _, s := range samples {
		ph.attempted++
		if !s.ok {
			ph.failed++
		}
		ph.requests = append(ph.requests, s.done-s.submit)
		ph.firsts = append(ph.firsts, s.first-s.submit)
		end = max(end, s.done)
		p := passes[s.seq/n]
		if p == nil {
			p = &passSpan{lo: s.submit, hi: s.done}
			passes[s.seq/n] = p
		}
		p.lo, p.hi, p.count = min(p.lo, s.submit), max(p.hi, s.done), p.count+1
	}
	keys := make([]int, 0, len(passes))
	for k := range passes {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		if p := passes[k]; p.count == n {
			ph.passes = append(ph.passes, p.hi-p.lo)
		}
	}
	if len(ph.passes) == 0 {
		return nil, errors.New("serve-warm: no complete pass of the job list in the timed phase; raise -seconds")
	}
	ph.wall = end
	ph.passWork = float64(len(samples)) / float64(n)
	ph.digest = w.digest
	return ph, nil
}

// one submits job ji and checks its answer: no error, records
// byte-identical to the warm-up's, and nothing simulated.
func (w *serveWarm) one(client *serve.Client, ci, ji int, start time.Time, tr *tracer) (jobSample, *results.RunnerCounters) {
	j := w.jobs[ji]
	sp := tr.begin("serve.Client.Do", nil)
	w.front.current[ci].Store(sp)
	s := jobSample{submit: time.Since(start), first: -1}
	var got [][]byte
	counters, err := client.Do(j, func(rec results.Record) error {
		if s.first < 0 {
			s.first = time.Since(start)
		}
		b, err := json.Marshal(rec)
		got = append(got, b)
		return err
	})
	s.done = time.Since(start)
	sp.end()
	if s.first < 0 {
		s.first = s.done
	}
	switch {
	case err != nil:
		fmt.Printf("job %s failed: %v\n", jobName(j), err)
	case counters.Simulated != 0:
		fmt.Printf("job %s simulated %d jobs on a warm store\n", jobName(j), counters.Simulated)
	case !sameRecords(got, w.expected[ji]):
		fmt.Printf("job %s streamed records that differ from the warm-up's\n", jobName(j))
	default:
		s.ok = true
	}
	return s, counters
}

func sameRecords(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// poolCounters converts a done line's counters back to the pool's form.
func poolCounters(c *results.RunnerCounters) runner.Counters {
	return runner.Counters{Jobs: c.Jobs, Simulated: c.Simulated, MemoHits: c.MemoHits,
		DiskHits: c.DiskHits, Coalesced: c.Coalesced, Uncached: c.Uncached, MapTasks: c.MapTasks,
		EngineBuilds: c.EngineBuilds, EngineReuses: c.EngineReuses,
		SimTime: time.Duration(c.SimMillis * float64(time.Millisecond))}
}

func (w *serveWarm) layers(e *env, ph *phase, tr *tracer, m map[string]float64) error {
	q := experiments.Quick()
	var ps []trace.Profile
	for _, g := range trace.Groups() {
		ps = append(ps, g.Traces[:min(len(g.Traces), q.TracesPerGroup)]...)
	}
	traceLayer(ps, q.EffectiveWarmup()+q.Uops, tr, m)
	runnerLayer(w.runner, ph, m)
	storeLayer(w.store, ph.passWork, m)

	// The server encodes and the client decodes inside the serve package;
	// the codec metrics time the same calls on the same records here.
	var cs codecStats
	var recs []results.Record
	for _, rs := range w.expected {
		for _, raw := range rs {
			rec, err := results.DecodeRecord(raw)
			if err != nil {
				return err
			}
			recs = append(recs, rec)
		}
	}
	var buf bytes.Buffer
	t := time.Now()
	if err := results.WriteJSON(&buf, results.NewReport("serve-warm", w.opts, recs)); err != nil {
		return err
	}
	cs.encode, cs.bytes = time.Since(t), int64(buf.Len())
	ph.attempted += len(recs)
	ph.failed += checkRecords(recs, tr, &cs)
	codecLayer(cs, m)

	// Handler spans are children of the client span that caused them;
	// the client's self time is its latency minus the server's.
	spans := tr.recorded()
	self := selfTimes(spans)
	var handler, client []float64
	for _, s := range spans {
		switch s.Name {
		case "serve.handler":
			handler = append(handler, float64(s.dur())/float64(time.Millisecond))
		case "serve.Client.Do":
			client = append(client, float64(self[s.ID])/float64(time.Millisecond))
		}
	}
	m["serve.handler_p50_ms"] = median(handler)
	m["serve.client_p50_ms"] = median(client)
	reqs, rejected, written := w.front.counts()
	m["serve.rejected_ratio"] = ratio(float64(rejected), float64(reqs))
	m["serve.bytes_per_job"] = ratio(float64(written), float64(len(ph.requests)))
	return nil
}

// Close stops the HTTP server and waits for its serve loop to return. Call
// it once.
func (w *serveWarm) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := w.srv.Shutdown(ctx)
	if serr := <-w.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// front is the loopback server's handler. Client i sends to /c<i>/...;
// front strips the prefix, passes the request to the current serve.Server
// handler, and counts requests, 429s and response bytes. In a traced phase
// it records a serve.handler span under the client's serve.Client.Do span.
type front struct {
	h       atomic.Pointer[http.Handler]
	tr      atomic.Pointer[tracer]
	current [workers]atomic.Pointer[open]

	requests, rejected, written atomic.Int64
}

func (f *front) set(h http.Handler) { f.h.Store(&h) }

// reset clears the counters and sets the phase's tracer (nil: untraced).
func (f *front) reset(tr *tracer) {
	f.tr.Store(tr)
	f.requests.Store(0)
	f.rejected.Store(0)
	f.written.Store(0)
}

func (f *front) counts() (requests, rejected, written int64) {
	return f.requests.Load(), f.rejected.Load(), f.written.Load()
}

func (f *front) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ci := -1
	if rest, ok := strings.CutPrefix(r.URL.Path, "/c"); ok {
		if slash := strings.IndexByte(rest, '/'); slash > 0 {
			if n, err := strconv.Atoi(rest[:slash]); err == nil && n >= 0 && n < workers {
				ci = n
				r.URL.Path = rest[slash:]
			}
		}
	}
	var sp *open
	if tr := f.tr.Load(); tr != nil && ci >= 0 {
		sp = tr.begin("serve.handler", f.current[ci].Load())
	}
	cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
	(*f.h.Load()).ServeHTTP(cw, r)
	sp.end()
	f.requests.Add(1)
	f.written.Add(cw.n)
	if cw.status == http.StatusTooManyRequests {
		f.rejected.Add(1)
	}
}

// countingWriter counts response bytes and keeps the status, passing
// Flush through so the server still streams record by record.
type countingWriter struct {
	http.ResponseWriter
	status int
	n      int64
}

func (c *countingWriter) WriteHeader(code int) {
	c.status = code
	c.ResponseWriter.WriteHeader(code)
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += int64(n)
	return n, err
}

func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
