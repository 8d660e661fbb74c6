package main

import (
	"math"
	"math/bits"
	"slices"
	"sort"
	"time"
)

// Histogram shape: exact below histSub ns, then histSub buckets per
// power of two, so no bucket is wider than 1/histSub of the values in
// it. Values past the last bucket (over a day) land in it.
const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	histBuckets = 40 * histSub
	// histExact is how many samples a histogram also keeps exactly. Up
	// to that many, its quantiles are exact. A javanote-offload window
	// holds a few ops and a session-churn window about 2,000, so the
	// bucket that holds their p99 holds one or two samples, and its
	// interpolated value would read the same in different runs.
	histExact = 4096
)

// histogram counts op latencies in log-linear buckets. Its memory is
// fixed however many ops a run completes, so the benchmark's own
// footprint, which peak_rss_mb counts, stays flat; and it counts every
// op, so its quantiles carry no sampling noise beyond the bucket width,
// which interpolation inside the bucket narrows further.
type histogram struct {
	n      int64
	counts [histBuckets]int64
	exact  []int64 // every sample in ns while n <= histExact, then nil
}

func histIndex(ns int64) int {
	if ns < histSub {
		return int(max(ns, 0))
	}
	shift := bits.Len64(uint64(ns)) - histSubBits - 1 // ns>>shift is in [histSub, 2*histSub)
	return min((shift+1)*histSub+int(ns>>shift)-histSub, histBuckets-1)
}

// histBounds returns bucket i's lowest value and width in ns.
func histBounds(i int) (lo, width int64) {
	if i < histSub {
		return int64(i), 1
	}
	shift := i/histSub - 1
	return int64(i%histSub+histSub) << shift, 1 << shift
}

func (h *histogram) add(d time.Duration) {
	h.n++
	h.counts[histIndex(int64(d))]++
	h.keepExact(int64(d))
}

func (h *histogram) merge(o *histogram) {
	h.n += o.n
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.keepExact(o.exact...)
	if int64(len(h.exact)) != h.n {
		h.exact = nil // o had already dropped its samples
	}
}

func (h *histogram) keepExact(ns ...int64) {
	if h.n > histExact {
		h.exact = nil
		return
	}
	h.exact = append(h.exact, ns...)
}

// quantile returns the nearest-rank q-quantile in seconds (0 when
// empty), placed inside its bucket by the rank's position among the
// bucket's samples.
func (h *histogram) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := max(int64(math.Ceil(q*float64(h.n))), 1)
	if h.exact != nil {
		s := slices.Clone(h.exact)
		slices.Sort(s)
		return float64(s[rank-1]) / 1e9
	}
	var below int64
	for i, c := range h.counts {
		if below+c >= rank {
			lo, width := histBounds(i)
			pos := (float64(rank-below) - 0.5) / float64(c)
			return (float64(lo) + pos*float64(width)) / 1e9
		}
		below += c
	}
	lo, width := histBounds(histBuckets - 1)
	return float64(lo+width) / 1e9
}

// quantile returns the nearest-rank q-quantile of v (0 for an empty v).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(v []float64) float64 { return quantile(v, 0.5) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
