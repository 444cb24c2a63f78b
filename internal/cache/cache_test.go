package cache

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func smallCache() *Cache {
	return New(Config{SizeBytes: 1024, LineBytes: 64, Ways: 2}) // 8 sets
}

func TestConfigValidate(t *testing.T) {
	good := Config{SizeBytes: 16 << 10, LineBytes: 64, Ways: 4}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{SizeBytes: 0, LineBytes: 64, Ways: 4},
		{SizeBytes: 16 << 10, LineBytes: 48, Ways: 4},
		{SizeBytes: 1000, LineBytes: 64, Ways: 4},
		{SizeBytes: 64 * 4 * 3, LineBytes: 64, Ways: 4}, // 3 sets: not power of two
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
}

// TestCacheIndexMatchesGeometry pins the set/tag split that New precomputes:
// for every valid geometry, the set is the line address modulo the set count
// and the tag is the line address shifted past the set bits, so set and tag
// together recover the line address.
func TestCacheIndexMatchesGeometry(t *testing.T) {
	d := DefaultHierarchyConfig()
	cfgs := []Config{d.L1I, d.L1D, d.L2,
		{SizeBytes: 1024, LineBytes: 64, Ways: 2},
		{SizeBytes: 64, LineBytes: 64, Ways: 1},  // one set: no set bits
		{SizeBytes: 512, LineBytes: 64, Ways: 8}, // fully associative
		{SizeBytes: 32 << 10, LineBytes: 32, Ways: 2},
		{SizeBytes: 8 << 20, LineBytes: 128, Ways: 16},
	}
	rng := rand.New(rand.NewSource(7))
	for _, cfg := range cfgs {
		c := New(cfg)
		sets := uint64(cfg.Sets())
		setBits := bits.TrailingZeros64(sets)
		lineShift := bits.TrailingZeros64(uint64(cfg.LineBytes))
		for i := 0; i < 2000; i++ {
			addr := rng.Uint64()
			if i%2 == 0 {
				addr >>= rng.Intn(64)
			}
			lineAddr := addr >> lineShift
			set, tag := c.index(addr)
			if set != lineAddr%sets || tag != lineAddr>>setBits {
				t.Fatalf("%+v addr %#x: index = (set %d, tag %#x), want (%d, %#x)",
					cfg, addr, set, tag, lineAddr%sets, lineAddr>>setBits)
			}
			if tag<<setBits|set != lineAddr {
				t.Fatalf("%+v addr %#x: set and tag do not recover line address %#x", cfg, addr, lineAddr)
			}
		}
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New should panic on invalid geometry")
		}
	}()
	New(Config{SizeBytes: 100, LineBytes: 64, Ways: 4})
}

func TestAccessMissThenHit(t *testing.T) {
	c := smallCache()
	if c.Access(0x1000) {
		t.Fatal("first access should miss")
	}
	if !c.Access(0x1000) {
		t.Fatal("second access should hit")
	}
	if !c.Access(0x1038) {
		t.Fatal("same-line access should hit")
	}
	if c.Hits != 2 || c.Misses != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 2/1", c.Hits, c.Misses)
	}
}

func TestLRUEviction(t *testing.T) {
	c := smallCache() // 2-way
	// Three distinct tags mapping to set 0 (set stride = 8 sets * 64B = 512B).
	a, b, d := uint64(0), uint64(512), uint64(1024)
	c.Access(a)
	c.Access(b)
	c.Access(a) // a is now MRU, b is LRU
	c.Access(d) // evicts b
	if !c.Contains(a) {
		t.Fatal("a (MRU) should survive")
	}
	if c.Contains(b) {
		t.Fatal("b (LRU) should have been evicted")
	}
	if !c.Contains(d) {
		t.Fatal("d should be present")
	}
}

func TestContainsIsPure(t *testing.T) {
	c := smallCache()
	c.Access(0)
	c.Access(512)
	// Probing a must not refresh its LRU position.
	c.Contains(0)
	c.Contains(0)
	c.Access(0)    // now a really is MRU
	c.Access(1024) // evict LRU=b
	if c.Contains(512) {
		t.Fatal("contains should not have refreshed b")
	}
	h, m := c.Hits, c.Misses
	c.Contains(0)
	if c.Hits != h || c.Misses != m {
		t.Fatal("Contains must not count statistics")
	}
}

func TestTouchDoesNotCount(t *testing.T) {
	c := smallCache()
	c.Touch(0x40)
	if c.Hits != 0 || c.Misses != 0 {
		t.Fatal("Touch must not count statistics")
	}
	if !c.Contains(0x40) {
		t.Fatal("Touch must fill the line")
	}
}

func TestInvalidateAndFlush(t *testing.T) {
	c := smallCache()
	c.Access(0x40)
	c.Access(0x80)
	c.Invalidate(0x40)
	if c.Contains(0x40) {
		t.Fatal("invalidated line still present")
	}
	if !c.Contains(0x80) {
		t.Fatal("other line lost on Invalidate")
	}
	c.Flush()
	if c.Contains(0x80) {
		t.Fatal("line present after Flush")
	}
}

func TestMissRate(t *testing.T) {
	c := smallCache()
	if c.MissRate() != 0 {
		t.Fatal("empty cache miss rate should be 0")
	}
	c.Access(0x40) // miss
	c.Access(0x40) // hit
	c.Access(0x40) // hit
	c.Access(0xF000)
	if got := c.MissRate(); got != 0.5 {
		t.Fatalf("miss rate = %v, want 0.5", got)
	}
	c.ResetStats()
	if c.Hits != 0 || c.Misses != 0 {
		t.Fatal("ResetStats did not clear counters")
	}
}

func TestPropertyContainsAfterAccess(t *testing.T) {
	f := func(addrs []uint64) bool {
		c := smallCache()
		for _, a := range addrs {
			c.Access(a)
			if !c.Contains(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyOccupancyBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := smallCache()
		live := map[uint64]bool{}
		for i := 0; i < 500; i++ {
			a := uint64(rng.Intn(1 << 16))
			c.Access(a)
			live[a&^63] = true
		}
		// Count present lines among all touched; must not exceed capacity.
		present := 0
		for l := range live {
			if c.Contains(l) {
				present++
			}
		}
		return present <= c.Config().Sets()*c.Config().Ways
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyWorkingSetFitsNoCapacityMisses(t *testing.T) {
	// A working set smaller than one way per set, accessed repeatedly, must
	// produce only cold misses.
	c := smallCache()
	lines := make([]uint64, 8) // one line per set
	for i := range lines {
		lines[i] = uint64(i * 64)
	}
	for pass := 0; pass < 10; pass++ {
		for _, l := range lines {
			c.Access(l)
		}
	}
	if c.Misses != uint64(len(lines)) {
		t.Fatalf("misses = %d, want %d cold misses only", c.Misses, len(lines))
	}
}

func TestHierarchyLevels(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	if lvl := h.Access(0x1000); lvl != Memory {
		t.Fatalf("cold access level = %v, want mem", lvl)
	}
	if lvl := h.Access(0x1000); lvl != L1 {
		t.Fatalf("second access level = %v, want L1", lvl)
	}
	// Evict from L1 but not L2: walk addresses mapping to the same L1 set.
	// L1: 16K 4-way 64B → 64 sets; set stride = 64*64 = 4096.
	for i := 1; i <= 8; i++ {
		h.Access(uint64(0x1000 + i*4096))
	}
	if h.L1D().Contains(0x1000) {
		t.Fatal("0x1000 should have been evicted from L1")
	}
	if lvl := h.Access(0x1000); lvl != L2 {
		t.Fatalf("level after L1 eviction = %v, want L2", lvl)
	}
}

func TestHierarchyProbePure(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	if lvl := h.Probe(0x2000); lvl != Memory {
		t.Fatalf("probe of absent line = %v", lvl)
	}
	if h.L1D().Contains(0x2000) || h.L2().Contains(0x2000) {
		t.Fatal("Probe must not fill")
	}
	h.Access(0x2000)
	if lvl := h.Probe(0x2000); lvl != L1 {
		t.Fatalf("probe after access = %v, want L1", lvl)
	}
}

func TestLatencies(t *testing.T) {
	l := DefaultLatencies()
	if l.Of(L1) != 8 || l.Of(L2) != 15 || l.Of(Memory) != 60 {
		t.Fatalf("default latencies wrong: %+v", l)
	}
	if L1.String() != "L1" || L2.String() != "L2" || Memory.String() != "mem" {
		t.Fatal("level names wrong")
	}
}

func TestBanking(t *testing.T) {
	b := DefaultBanking()
	if b.BankOf(0) != 0 || b.BankOf(63) != 0 {
		t.Fatal("first line must be bank 0")
	}
	if b.BankOf(64) != 1 || b.BankOf(127) != 1 {
		t.Fatal("second line must be bank 1")
	}
	if b.BankOf(128) != 0 {
		t.Fatal("third line must wrap to bank 0")
	}
	if b.BankBits() != 1 {
		t.Fatalf("2 banks need 1 bit, got %d", b.BankBits())
	}
	four := Banking{Banks: 4, LineBytes: 64}
	if four.BankBits() != 2 {
		t.Fatal("4 banks need 2 bits")
	}
}

func TestConflictTracker(t *testing.T) {
	tr := NewConflictTracker(DefaultBanking())
	tr.Begin()
	if tr.Dispatch(0) {
		t.Fatal("first access to bank 0 should not conflict")
	}
	if tr.Dispatch(64) {
		t.Fatal("access to bank 1 should not conflict")
	}
	if !tr.Dispatch(128) {
		t.Fatal("second access to bank 0 must conflict")
	}
	if tr.Conflicts != 1 || tr.Accesses != 3 {
		t.Fatalf("stats %d/%d want 1/3", tr.Conflicts, tr.Accesses)
	}
	tr.Begin()
	if tr.Dispatch(0) {
		t.Fatal("new cycle must clear bank usage")
	}
	if tr.BankFree(0) {
		t.Fatal("bank 0 was just used")
	}
	if !tr.BankFree(1) {
		t.Fatal("bank 1 is free")
	}
}

func TestMissQueueOutstanding(t *testing.T) {
	q := NewMissQueue(4)
	q.RecordMiss(0x1000, 50)
	if !q.Outstanding(0x1010, 10) {
		t.Fatal("same-line access during fill must be outstanding")
	}
	if q.Outstanding(0x1000, 50) {
		t.Fatal("at readyAt the fill has completed")
	}
	if q.Outstanding(0x2000, 10) {
		t.Fatal("different line must not be outstanding")
	}
}

func TestMissQueueSecondaryMissMerges(t *testing.T) {
	q := NewMissQueue(4)
	q.RecordMiss(0x1000, 50)
	q.RecordMiss(0x1008, 90) // same line: must merge, keeping readyAt=50
	if q.Len() != 1 {
		t.Fatalf("len=%d want 1", q.Len())
	}
	if q.Outstanding(0x1000, 60) {
		t.Fatal("merged entry must keep the original fill time")
	}
}

func TestMissQueueRecentlyServiced(t *testing.T) {
	q := NewMissQueue(4)
	q.RecordMiss(0x1000, 50)
	q.Advance(60)
	if q.Len() != 0 {
		t.Fatal("completed fill must leave the queue")
	}
	if !q.RecentlyServiced(0x1000, 100) {
		t.Fatal("line serviced 50 cycles ago should be recent")
	}
	if q.RecentlyServiced(0x1000, 50+q.ServicedWindow+1) {
		t.Fatal("line outside the window should not be recent")
	}
}

func TestMissQueueCapacityEviction(t *testing.T) {
	q := NewMissQueue(2)
	q.RecordMiss(0x1000, 100)
	q.RecordMiss(0x2000, 100)
	q.RecordMiss(0x3000, 100) // evicts 0x1000
	if q.Len() != 2 {
		t.Fatalf("len=%d want 2", q.Len())
	}
	if q.Outstanding(0x1000, 10) {
		t.Fatal("evicted entry must not be outstanding")
	}
	if !q.Outstanding(0x3000, 10) {
		t.Fatal("newest entry must be outstanding")
	}
}

func TestMissQueueReset(t *testing.T) {
	q := NewMissQueue(2)
	q.RecordMiss(0x1000, 100)
	q.Advance(200)
	q.RecordMiss(0x2000, 300)
	q.Reset()
	if q.Len() != 0 || q.Outstanding(0x2000, 10) || q.RecentlyServiced(0x1000, 210) {
		t.Fatal("Reset must clear all state")
	}
}

func TestFourBankTracker(t *testing.T) {
	b := Banking{Banks: 4, LineBytes: 64}
	tr := NewConflictTracker(b)
	tr.Begin()
	for i := 0; i < 4; i++ {
		if tr.Dispatch(uint64(i * 64)) {
			t.Fatalf("bank %d first access conflicted", i)
		}
	}
	if !tr.Dispatch(0) {
		t.Fatal("fifth access must conflict somewhere")
	}
}

func TestHierarchyFlush(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	h.Access(0x1000)
	h.Access(0x1000)
	h.Flush()
	if h.Probe(0x1000) != Memory {
		t.Fatal("Flush must empty both levels")
	}
}

func TestLatenciesHitIndication(t *testing.T) {
	l := DefaultLatencies()
	if l.HitIndication <= 0 || l.HitIndication >= l.L1 {
		t.Fatalf("hit indication %d should be positive and below the L1 latency", l.HitIndication)
	}
}

func TestMissQueueAdvanceKeepsPending(t *testing.T) {
	q := NewMissQueue(4)
	q.RecordMiss(0x1000, 100)
	q.RecordMiss(0x2000, 50)
	q.Advance(60)
	if !q.Outstanding(0x1000, 60) {
		t.Fatal("pending fill dropped by Advance")
	}
	if q.Outstanding(0x2000, 60) {
		t.Fatal("completed fill still outstanding")
	}
	if !q.RecentlyServiced(0x2000, 70) {
		t.Fatal("completed fill not in serviced ring")
	}
}
