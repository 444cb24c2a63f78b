package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// its own call. Times are offsets from the tracer's start. Parent is 0 for
// a root span; spans of one request share the root's ID as Request.
type span struct {
	ID      int64         `json:"id"`
	Parent  int64         `json:"parent,omitempty"`
	Request int64         `json:"request"`
	Name    string        `json:"name"`
	Start   time.Duration `json:"start_ns"`
	End     time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory for the traced run. A nil *tracer records
// nothing, so untraced code paths call the same methods at no cost beyond a
// nil check.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open is an in-progress span; close it exactly once.
type open struct {
	tr *tracer
	s  span
}

// begin opens a span under parent (nil for a root span).
func (t *tracer) begin(name string, parent *open) *open {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	s := span{ID: id, Request: id, Name: name, Start: time.Since(t.t0)}
	if parent != nil {
		s.Parent, s.Request = parent.s.ID, parent.s.Request
	}
	return &open{tr: t, s: s}
}

// end closes the span and records it.
func (o *open) end() {
	if o == nil {
		return
	}
	o.s.End = time.Since(o.tr.t0)
	o.tr.mu.Lock()
	o.tr.spans = append(o.tr.spans, o.s)
	o.tr.mu.Unlock()
}

// recorded returns a copy of the closed spans.
func (t *tracer) recorded() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// named returns the closed spans called name, in start order.
func (t *tracer) named(name string) []span {
	var out []span
	for _, s := range t.recorded() {
		if s.Name == name {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// selfTimes maps every span ID to its self time: the span's duration minus
// the part of its interval that its child spans cover. Overlapping children
// (concurrent calls under one parent) are counted once.
func selfTimes(spans []span) map[int64]time.Duration {
	children := map[int64][][2]time.Duration{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered is the length of [lo, hi) covered by the union of ivs.
func covered(lo, hi time.Duration, ivs [][2]time.Duration) time.Duration {
	if len(ivs) == 0 {
		return 0
	}
	iv := append([][2]time.Duration(nil), ivs...)
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	cur := lo
	for _, c := range iv {
		a, b := c[0], c[1]
		if a < cur {
			a = cur
		}
		if b > hi {
			b = hi
		}
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.recorded() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
