// Command perfbench is loadsched's end-to-end benchmark. One run measures
// one workload for a fixed time and prints every metric by name and unit,
// then a final JSON line:
//
//	{"correct": true, "attempted": 8, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (host time, never
// simulated time); with -trace 1 the run repeats the timed phase with spans,
// counter snapshots, layer probes and a CPU profile, and prints the
// per-layer metrics instead. README.md in this directory lists every metric
// and why each workload exists. Build and run it through run.sh.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// processStart approximates process start for setup_s: package variables
// initialize before main runs.
var processStart = time.Now()

// workers is the runner concurrency of every workload and the serve-warm
// client count: the benchmark host has two vCPUs.
const workers = 2

// runLimit bounds one run: a run still going after it exits non-zero
// without a result, so a hang fails within three minutes instead of
// blocking whoever runs the benchmark.
const runLimit = 175 * time.Second

// metricSpec names one reported metric.
type metricSpec struct {
	Name, Unit, Better string
}

// endToEnd are the metrics a -trace 0 run reports on every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"jobs_per_s", "1/s", "higher"},
	{"job_p50_ms", "ms", "lower"},
	{"job_p90_ms", "ms", "lower"},
	{"first_record_p50_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"alloc_mb", "MB", "lower"},
}

// perLayer are the metrics a -trace 1 run reports on every workload; a
// layer the workload does not exercise reports 0.
var perLayer = func() []metricSpec {
	var out []metricSpec
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricSpec{n, unit, better})
		}
	}
	add("ns", "lower", "trace.gen_ns_per_uop", "trace.walk_ns_per_uop")
	add("B", "lower", "trace.packed_bytes_per_uop", "trace.sidecar_bytes_per_uop")
	add("ns", "lower", "ooo.step_ns_per_uop", "ooo.ns_per_cycle")
	add("us", "lower", "ooo.build_us", "ooo.reset_us")
	add("cycles", "lower", "ooo.cycles_per_uop")
	add("count", "lower", "ooo.replays_per_kuop")
	add("ns", "lower", "cache.access_ns")
	add("ratio", "higher", "cache.l1_hit_ratio")
	add("count", "lower", "runner.jobs", "runner.simulated")
	add("ratio", "higher", "runner.memo_hit_ratio", "runner.disk_hit_ratio", "runner.engine_reuse_ratio")
	add("s", "lower", "runner.sim_busy_s")
	add("ratio", "higher", "runner.utilization")
	add("count", "lower", "store.writes", "store.write_errors")
	add("count", "higher", "store.hits")
	add("count", "lower", "store.misses", "store.corrupt")
	add("us", "lower", "store.put_us", "store.get_us")
	add("us", "lower", "results.encode_us_per_record", "results.decode_us_per_record")
	add("B", "lower", "results.bytes_per_record")
	for _, f := range figureSpans {
		add("s", "lower", "experiments."+f+"_s")
	}
	add("ms", "lower", "serve.handler_p50_ms", "serve.client_p50_ms")
	add("ratio", "lower", "serve.rejected_ratio")
	add("B", "lower", "serve.bytes_per_job")
	add("count", "lower", "runtime.gc_cycles")
	for _, l := range shareLayers {
		add("ratio", "lower", l+".cpu_share")
	}
	add("ratio", "lower", "traced_overhead_ratio")
	return out
}()

// figureSpans are the figure records whose FigureRecord spans become
// experiments.<id>_s.
var figureSpans = []string{"fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "bankpolicies"}

// shareLayers are the profile-share metrics: repository packages by short
// name, internal/ooo by source file, and two runtime slices.
var shareLayers = []string{
	"trace", "ooo.engine", "ooo.frontend", "ooo.schedule", "ooo.ready",
	"ooo.memory", "ooo.execute", "ooo.retire", "ooo.bank", "ooo.cpi",
	"ooo.policy", "cache", "memdep", "hitmiss", "bankpred", "predict",
	"addrpred", "runner", "experiments", "runtime.gc", "runtime.memmove",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is one run's configuration and scratch space.
type env struct {
	workload string
	seed     int64
	seconds  time.Duration
	// dir is this run's scratch directory (store directories, probes),
	// removed when the run ends; state is the directory that persists
	// across runs in one checkout (digests, spans).
	dir, state string
}

// workload is one benchmark scenario. setup runs once per process and is
// timed as setup_s. measure runs one timed phase of env.seconds; it is
// called once untraced and, in a traced run, a second time with a tracer.
// A workload that starts goroutines implements io.Closer to stop them.
type workload interface {
	setup(e *env, tr *tracer) error
	measure(e *env, tr *tracer) (*phase, error)
	// layers adds the layer metrics the workload's own counters and inputs
	// give for its traced phase.
	layers(e *env, ph *phase, tr *tracer, m map[string]float64) error
}

var workloads = map[string]func() workload{
	"repro-all":   newReproAll,
	"stat-replay": newStatReplay,
	"serve-warm":  newServeWarm,
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name    = flag.String("workload", "", "workload: repro-all | stat-replay | serve-warm")
		seed    = flag.Int64("seed", 1, "seed for the serve-warm job sequence and the probe traces")
		secs    = flag.Int("seconds", 10, "length of the timed phase in seconds")
		traceOn = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	)
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want repro-all | stat-replay | serve-warm)", *name)
	}
	if *secs < 1 || (*traceOn != 0 && *traceOn != 1) {
		return errors.New("want -seconds >= 1 and -trace 0 or 1")
	}
	time.AfterFunc(runLimit-time.Since(processStart), func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %s; giving up\n", runLimit)
		os.Exit(3)
	})
	runtime.GOMAXPROCS(runtime.NumCPU())

	wd, err := os.Getwd()
	if err != nil {
		return err
	}
	state := filepath.Join(wd, ".bench_build", "perfbench")
	if err := os.MkdirAll(state, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(state, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	e := &env{workload: *name, seed: *seed, seconds: time.Duration(*secs) * time.Second, dir: dir, state: state}
	fmt.Printf("perfbench: workload %s, seed %d (drives the serve-warm job sequence and the probe traces; "+
		"repro-all and stat-replay replay the paper's trace groups, seeded by trace.GroupByName), "+
		"%d s timed, GOMAXPROCS %d, %d workers\n", e.workload, e.seed, *secs, runtime.GOMAXPROCS(0), workers)

	w := mk()
	var tr *tracer
	if *traceOn == 1 {
		tr = newTracer()
	}
	if err := w.setup(e, tr); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	setup := time.Since(processStart)
	ph, err := w.measure(e, nil)
	if err != nil {
		return err
	}
	ph.failed += checkDigest(e, ph.digest)

	res := result{Metrics: map[string]metric{}}
	specs := endToEnd
	vals := map[string]float64{}
	if tr == nil {
		endToEndMetrics(ph, setup, vals)
	} else {
		specs = perLayer
		traced, err := tracedPhase(e, w, tr, vals)
		if err != nil {
			return err
		}
		vals["traced_overhead_ratio"] = ratio(traced.passMedian(), ph.passMedian())
		ph.attempted += traced.attempted
		ph.failed += traced.failed + checkDigest(e, traced.digest)
		if err := tr.write(filepath.Join(state, fmt.Sprintf("spans-%s-seed%d.jsonl", e.workload, e.seed))); err != nil {
			return err
		}
	}
	for _, s := range specs {
		v, ok := vals[s.Name]
		if !ok {
			return fmt.Errorf("internal: metric %s was not measured", s.Name)
		}
		res.Metrics[s.Name] = metric{Value: v, Unit: s.Unit}
		fmt.Printf("metric %-32s %14.6g %s\n", s.Name, v, s.Unit)
	}
	if c, ok := w.(io.Closer); ok {
		if err := c.Close(); err != nil {
			return err
		}
	}
	res.Attempted, res.Failed = ph.attempted, ph.failed
	res.Correct = ph.failed == 0
	fmt.Printf("fail_ratio %g (%d failed of %d attempted)\n", ratio(float64(ph.failed), float64(ph.attempted)), ph.failed, ph.attempted)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// phase is what one timed phase measured.
type phase struct {
	// wall is the phase's length; passes are the times of its complete
	// passes over the workload's request list.
	wall   time.Duration
	passes []time.Duration
	// requests are per-request latencies (one figure record in process,
	// one job over HTTP); firsts are per-stream times to the first record.
	requests, firsts  []time.Duration
	attempted, failed int
	// allocBytes is heap allocated during the phase (TotalAlloc delta).
	allocBytes uint64
	// digest is the sha256 of the workload's records, which must not vary
	// between runs of one commit.
	digest string
	// gcCycles is the number of GC cycles the phase ran.
	gcCycles uint32
	// cpu is the process CPU time the phase used (printed, to tell host
	// contention from a change in the work done).
	cpu time.Duration
	// passWork is the number of passes the phase's work amounts to; a
	// serve-warm phase counts a partial pass by its share of jobs.
	passWork float64
}

func (p *phase) passMedian() float64 { return median(seconds(p.passes)) }

// memSnap brackets a phase's heap allocation, GC cycles and process CPU
// time.
type memSnap struct {
	alloc uint64
	gc    uint32
	cpu   time.Duration
}

func snapMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{ms.TotalAlloc, ms.NumGC, cpuTime()}
}

func (p *phase) closeMem(before memSnap) {
	after := snapMem()
	p.allocBytes, p.gcCycles = after.alloc-before.alloc, after.gc-before.gc
	p.cpu = after.cpu - before.cpu
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// endToEndMetrics fills the untraced run's metrics. Request and pass
// counts behind each percentile are printed alongside.
func endToEndMetrics(ph *phase, setup time.Duration, m map[string]float64) {
	p50 := percentile(millis(ph.requests), 50)
	p90 := percentile(millis(ph.requests), 90)
	first := percentile(millis(ph.firsts), 50)
	fmt.Printf("samples: %d passes, %d requests (%d beyond p90), %d first-record streams; "+
		"timed phase %.3f s wall, %.3f s CPU\n",
		len(ph.passes), p50.N, p90.Beyond, first.N, ph.wall.Seconds(), ph.cpu.Seconds())
	m["setup_s"] = setup.Seconds()
	m["wall_s"] = ph.passMedian()
	m["jobs_per_s"] = ratio(float64(len(ph.requests)), ph.wall.Seconds())
	m["job_p50_ms"] = p50.Value
	m["job_p90_ms"] = p90.Value
	m["first_record_p50_ms"] = first.Value
	m["peak_rss_mb"] = peakRSSMB()
	m["alloc_mb"] = float64(ph.allocBytes) / (1 << 20) / ph.passWork
}

// peakRSSMB is the process's maximum resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// digestOf hashes a workload's encoded records.
func digestOf(b []byte) string {
	sum := sha256.Sum256(b)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// checkDigest prints the run's digest and compares it with the one the
// first run of this checkout stored; a mismatch counts as one failure.
func checkDigest(e *env, digest string) int {
	fmt.Printf("digest %s %s\n", e.workload, digest)
	dir := filepath.Join(e.state, "digests")
	path := filepath.Join(dir, e.workload)
	prev, err := os.ReadFile(path)
	if err == nil {
		if want := strings.TrimSpace(string(prev)); want != digest {
			fmt.Printf("digest mismatch: earlier runs of this checkout produced %s\n", want)
			return 1
		}
		return 0
	}
	if err := os.MkdirAll(dir, 0o755); err == nil {
		tmp := path + ".tmp"
		if os.WriteFile(tmp, []byte(digest+"\n"), 0o644) == nil {
			os.Rename(tmp, path)
		}
	}
	return 0
}
