package main

import (
	"math"
	"sort"
	"time"
)

// quantile is one order statistic of a sample: the value, the sample count
// it was taken from, and how many samples lie strictly beyond it. A tail
// percentile is only meaningful when beyond is at least ten.
type quantile struct {
	Value  float64
	N      int
	Beyond int
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs:
// the smallest sample with at least p% of the samples at or below it. xs is
// not modified. An empty sample gives the zero quantile.
func percentile(xs []float64, p float64) quantile {
	n := len(xs)
	if n == 0 {
		return quantile{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	v := s[rank-1]
	beyond := 0
	for _, x := range s[rank:] {
		if x > v {
			beyond++
		}
	}
	return quantile{Value: v, N: n, Beyond: beyond}
}

// median is the 50th percentile's value.
func median(xs []float64) float64 { return percentile(xs, 50).Value }

// millis and seconds convert durations for percentile input.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
