package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"testing"
	"time"

	"loadsched/internal/experiments"
)

func TestPercentileReportsSampleCount(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted input
	}
	cases := []struct {
		p            float64
		want         float64
		wantN, after int
	}{
		{50, 50, 100, 50},
		{90, 90, 100, 10},
		{99, 99, 100, 1},
		{100, 100, 100, 0},
		{0.1, 1, 100, 99},
	}
	for _, c := range cases {
		q := percentile(xs, c.p)
		if q.Value != c.want || q.N != c.wantN || q.Beyond != c.after {
			t.Errorf("p%v = %+v, want value %v, n %d, beyond %d", c.p, q, c.want, c.wantN, c.after)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
	// Ties at the percentile are not "beyond" it.
	if q := percentile([]float64{1, 1, 1, 2}, 50); q.Value != 1 || q.Beyond != 1 {
		t.Errorf("ties: got %+v, want value 1 beyond 1", q)
	}
	if q := percentile(nil, 90); q != (quantile{}) {
		t.Errorf("empty sample: got %+v", q)
	}
}

func TestSelfTimeSubtractsChildCoverageOnce(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Start: ms(0), End: ms(100)},
		// Two overlapping children cover [10, 50); a third covers [60, 70);
		// a fourth starts inside the parent and ends after it.
		{ID: 2, Parent: 1, Start: ms(10), End: ms(30)},
		{ID: 3, Parent: 1, Start: ms(20), End: ms(50)},
		{ID: 4, Parent: 1, Start: ms(60), End: ms(70)},
		{ID: 5, Parent: 1, Start: ms(95), End: ms(120)},
		// A grandchild reduces its parent's self time, not the root's.
		{ID: 6, Parent: 3, Start: ms(25), End: ms(45)},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: ms(100 - 40 - 10 - 5), 2: ms(20), 3: ms(10), 4: ms(10), 5: ms(25), 6: ms(20)}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self time %v, want %v", id, self[id], w)
		}
	}
}

func TestTracerRecordsParentsAndRequests(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root", nil)
	child := tr.begin("child", root)
	child.end()
	root.end()
	got := tr.recorded()
	if len(got) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(got))
	}
	c, r := got[0], got[1]
	if c.Parent != r.ID || c.Request != r.ID || r.Parent != 0 || c.Start < r.Start || c.End > r.End {
		t.Errorf("child %+v not nested under root %+v", c, r)
	}
	var none *tracer
	none.begin("x", nil).end() // a nil tracer records nothing and must not panic
	if none.recorded() != nil {
		t.Error("nil tracer recorded spans")
	}
}

func TestFuncPackage(t *testing.T) {
	cases := map[string]string{
		"loadsched/internal/ooo.(*Engine).dispatchEntry":                   "loadsched/internal/ooo",
		"loadsched/internal/runner.Map[go.shape.struct { loadsched/x.T }]": "loadsched/internal/runner",
		"loadsched/internal/runner.(*Pool).Run.func1":                      "loadsched/internal/runner",
		"runtime.memmove":                      "runtime",
		"encoding/json.(*encodeState).marshal": "encoding/json",
		"main.run":                             "main",
	}
	for name, want := range cases {
		if got := funcPackage(name); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", name, got, want)
		}
	}
}

// pb is a minimal protobuf writer for building test profiles.
type pb struct{ bytes.Buffer }

func (b *pb) varint(x uint64) {
	for x >= 0x80 {
		b.WriteByte(byte(x) | 0x80)
		x >>= 7
	}
	b.WriteByte(byte(x))
}

func (b *pb) uint(num int, x uint64) { b.varint(uint64(num)<<3 | 0); b.varint(x) }

func (b *pb) bytes(num int, x []byte) {
	b.varint(uint64(num)<<3 | 2)
	b.varint(uint64(len(x)))
	b.Write(x)
}

// testProfile encodes a profile whose samples have the given stacks (leaf
// first, function names) and CPU nanoseconds. Function i lives in file
// files[i]. Packed and unpacked repeated fields are both exercised.
func testProfile(t *testing.T, names, files []string, stacks [][]int, values []int64) []byte {
	t.Helper()
	var p pb
	strs := []string{""}
	intern := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	for si, st := range stacks {
		var s pb
		if si%2 == 0 { // packed location ids
			var ids pb
			for _, f := range st {
				ids.varint(uint64(f + 1))
			}
			s.bytes(sampleLocationID, ids.Bytes())
		} else {
			for _, f := range st {
				s.uint(sampleLocationID, uint64(f+1))
			}
		}
		s.uint(sampleValue, 1)
		s.uint(sampleValue, uint64(values[si]))
		p.bytes(profSample, s.Bytes())
	}
	for i := range names {
		var line, loc, fn pb
		line.uint(lineFunctionID, uint64(i+1))
		loc.uint(locationID, uint64(i+1))
		loc.bytes(locationLine, line.Bytes())
		p.bytes(profLocation, loc.Bytes())
		fn.uint(functionID, uint64(i+1))
		fn.uint(functionName, intern(names[i]))
		fn.uint(functionFilename, intern(files[i]))
		p.bytes(profFunction, fn.Bytes())
	}
	for _, s := range strs {
		p.bytes(profStringTable, []byte(s))
	}
	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	zw.Write(p.Bytes())
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return z.Bytes()
}

func TestReduceProfileShares(t *testing.T) {
	names := []string{
		"loadsched/internal/ooo.(*Engine).dispatchEntry", // 0
		"loadsched/internal/ooo.(*Engine).retireEntry",   // 1
		"loadsched/internal/cache.(*Cache).Access",       // 2
		"runtime.memmove",                         // 3
		"runtime.scanobject",                      // 4
		"runtime.gcBgMarkWorker",                  // 5
		"main.run",                                // 6
		"loadsched/internal/ooo.Config.latencyOf", // 7
	}
	files := []string{
		"/src/internal/ooo/schedule.go", "/src/internal/ooo/retire.go", "/src/internal/cache/cache.go",
		"/go/src/runtime/memmove.s", "/go/src/runtime/mgcmark.go", "/go/src/runtime/mgc.go",
		"/src/perfbench/main.go", "/src/internal/ooo/config.go",
	}
	stacks := [][]int{{0, 6}, {1, 6}, {2, 0, 6}, {3, 0, 6}, {4, 5}, {6}, {7, 0}}
	values := []int64{400, 100, 200, 50, 150, 60, 40}
	samples, err := parseProfile(testProfile(t, names, files, stacks, values))
	if err != nil {
		t.Fatal(err)
	}
	sh := reduce(samples)
	if sh.Total != 1000 {
		t.Fatalf("total %d, want 1000", sh.Total)
	}
	near := func(what string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("%s = %v, want %v", what, got, want)
		}
	}
	near("ooo", sh.Package["ooo"], 0.54)
	near("cache", sh.Package["cache"], 0.2)
	near("schedule.go", sh.OooFile["schedule"], 0.4)
	near("retire.go", sh.OooFile["retire"], 0.1)
	near("config.go", sh.OooFile["config"], 0.04)
	near("memmove", sh.Memmove, 0.05)
	near("gc", sh.GC, 0.15)
	var pkgSum, fileSum float64
	for _, v := range sh.Package {
		pkgSum += v
	}
	for _, v := range sh.OooFile {
		fileSum += v
	}
	if math.Abs(pkgSum-0.74) > 1e-12 || fileSum > sh.Package["ooo"]+1e-12 {
		t.Errorf("shares exceed their whole: packages %v, ooo files %v of %v", pkgSum, fileSum, sh.Package["ooo"])
	}

	m := map[string]float64{}
	shareMetrics(sh, m)
	// config.go has no metric of its own and counts under ooo.engine.
	near("ooo.engine.cpu_share", m["ooo.engine.cpu_share"], 0.04)
	var oooSum float64
	for _, l := range shareLayers {
		if len(l) > 4 && l[:4] == "ooo." {
			oooSum += m[l+".cpu_share"]
		}
	}
	near("sum of ooo.* shares", oooSum, sh.Package["ooo"])
}

func TestParseRealCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			x += i * i
		}
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sh := reduce(samples)
	var sum float64
	for _, v := range sh.Package {
		sum += v
	}
	if sum > 1+1e-9 || x == 1 {
		t.Errorf("package shares sum to %v", sum)
	}
	if _, err := parseProfile([]byte{0x0a, 0x05, 0x01}); err == nil {
		t.Error("truncated profile parsed without error")
	}
}

// TestDigestStableAcrossRuns runs a small in-process workload twice, and
// once more traced, in one process: all three must produce the same
// records and so the same digest.
func TestDigestStableAcrossRuns(t *testing.T) {
	small := experiments.Options{Uops: 4000, Warmup: 1000, TracesPerGroup: 1}
	mk := func() *inproc {
		return &inproc{command: "test", ids: []string{"fig7", "fig10"}, opts: small, withStore: true}
	}
	e := &env{dir: t.TempDir()}
	var digests []string
	for i, tr := range []*tracer{nil, nil, newTracer()} {
		ph, err := mk().measure(e, tr)
		if err != nil {
			t.Fatal(err)
		}
		if ph.failed != 0 || ph.attempted != 2 || len(ph.passes) != 1 {
			t.Fatalf("run %d: %d of %d failed over %d passes", i, ph.failed, ph.attempted, len(ph.passes))
		}
		digests = append(digests, ph.digest)
	}
	if digests[0] == "" || digests[0] != digests[1] || digests[0] != digests[2] {
		t.Errorf("digests differ across runs: %v", digests)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json's metric lists
// identical to what the program reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program reports %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
