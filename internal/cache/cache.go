// Package cache models the memory hierarchy of the simulated machine: set
// associative caches, a two-level hierarchy (16K L1I, 16K L1D, 256K unified
// L2, 4-way, 64-byte lines — paper §3.1), a multi-banked L1 data cache, an
// outstanding-miss queue (MSHR) and a recently-serviced buffer. The last two
// support the hit-miss predictor's timing enhancement (paper §2.2).
package cache

import "fmt"

// Config describes one cache level.
type Config struct {
	// SizeBytes is the total capacity.
	SizeBytes int
	// LineBytes is the line size (power of two).
	LineBytes int
	// Ways is the set associativity.
	Ways int
}

// Validate checks the geometry for consistency.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Ways <= 0:
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	case c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("cache: line size %d not a power of two", c.LineBytes)
	case c.SizeBytes%(c.LineBytes*c.Ways) != 0:
		return fmt.Errorf("cache: size %d not divisible by way size %d", c.SizeBytes, c.LineBytes*c.Ways)
	}
	sets := c.SizeBytes / (c.LineBytes * c.Ways)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	return nil
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int { return c.SizeBytes / (c.LineBytes * c.Ways) }

type line struct {
	tag   uint64
	valid bool
	// lru is a per-set timestamp; larger is more recent.
	lru uint64
}

// Cache is a set-associative cache with true-LRU replacement. It tracks
// presence only (no data), which is all a timing simulator needs. The ways
// of all sets live in one flat backing slice (set s occupies
// lines[s*Ways : (s+1)*Ways]) so building a cache is a single allocation and
// resetting it never regrows the heap.
type Cache struct {
	cfg      Config
	lines    []line
	lineBits uint
	setMask  uint64
	// tagShift is lineBits + log2(Sets()): an address shifted right by it
	// is the line's tag. It is fixed at New, like lineBits and setMask.
	tagShift uint
	tick     uint64

	// Hits and Misses count Access results since the last ResetStats.
	Hits, Misses uint64
}

// New builds a cache; it panics on invalid geometry (configurations are
// static in this codebase, so an error return would only be rethrown).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Cache{cfg: cfg}
	c.lineBits = uint(log2(cfg.LineBytes))
	c.setMask = uint64(cfg.Sets() - 1)
	c.tagShift = c.lineBits + uint(log2(cfg.Sets()))
	c.lines = make([]line, cfg.Sets()*cfg.Ways)
	return c
}

func log2(v int) int {
	n := 0
	for 1<<n < v {
		n++
	}
	return n
}

// Config returns the geometry.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) index(addr uint64) (set uint64, tag uint64) {
	return (addr >> c.lineBits) & c.setMask, addr >> c.tagShift
}

// set returns the ways of one set as a sub-slice of the flat backing array.
func (c *Cache) set(s uint64) []line {
	w := c.cfg.Ways
	return c.lines[int(s)*w : int(s+1)*w]
}

// Contains reports whether addr's line is present, without touching LRU or
// statistics.
func (c *Cache) Contains(addr uint64) bool {
	set, tag := c.index(addr)
	ways := c.set(set)
	for i := range ways {
		if l := &ways[i]; l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// Access looks up addr; on a miss the line is filled (possibly evicting the
// LRU way). It returns true on a hit.
func (c *Cache) Access(addr uint64) bool {
	c.tick++
	set, tag := c.index(addr)
	ways := c.set(set)
	victim := 0
	for i := range ways {
		l := &ways[i]
		if l.valid && l.tag == tag {
			l.lru = c.tick
			c.Hits++
			return true
		}
		if !ways[victim].valid {
			continue // keep first invalid way as victim
		}
		if !l.valid || l.lru < ways[victim].lru {
			victim = i
		}
	}
	ways[victim] = line{tag: tag, valid: true, lru: c.tick}
	c.Misses++
	return false
}

// Touch fills addr's line without counting statistics (used for warmup and
// for prefetch-like fills).
func (c *Cache) Touch(addr uint64) {
	h, m := c.Hits, c.Misses
	c.Access(addr)
	c.Hits, c.Misses = h, m
}

// Invalidate removes addr's line if present.
func (c *Cache) Invalidate(addr uint64) {
	set, tag := c.index(addr)
	ways := c.set(set)
	for i := range ways {
		if l := &ways[i]; l.valid && l.tag == tag {
			l.valid = false
		}
	}
}

// Flush invalidates every line.
func (c *Cache) Flush() {
	clear(c.lines)
}

// ResetStats zeroes the hit/miss counters.
func (c *Cache) ResetStats() { c.Hits, c.Misses = 0, 0 }

// Reset restores construction state in place — contents, LRU clock and
// statistics — without reallocating the line array, so one cache can back
// many simulation runs.
func (c *Cache) Reset() {
	c.Flush()
	c.tick = 0
	c.ResetStats()
}

// MissRate returns Misses/(Hits+Misses), or 0 with no accesses.
func (c *Cache) MissRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Misses) / float64(total)
}
