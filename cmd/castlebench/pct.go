package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail percentile
// for it to mean anything: with fewer, the "p99" of a short run is just its
// largest sample or two.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of sorted, or
// 0 for an empty slice.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailPercentile returns the highest percentile (in percent, capped at 99)
// that leaves at least minBeyond samples above it, with its value. ok is
// false when there are too few samples for any such percentile.
func tailPercentile(sorted []float64) (pct, v float64, ok bool) {
	n := len(sorted)
	if n <= minBeyond {
		return 0, 0, false
	}
	pct = math.Min(99, 100*float64(n-minBeyond)/float64(n))
	return pct, percentile(sorted, pct/100), true
}

// dist summarises one latency sample: median, p99 and the tail percentile the
// sample actually supports, with the count.
type dist struct {
	N       int
	P50     float64
	P99     float64
	TailPct float64 // highest percentile with >= minBeyond samples beyond it
	Tail    float64
}

func summarize(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d := dist{N: len(s), P50: percentile(s, 0.50), P99: percentile(s, 0.99)}
	d.TailPct, d.Tail, _ = tailPercentile(s)
	return d
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	logs := 0.0
	for _, x := range xs {
		logs += math.Log(x)
	}
	return math.Exp(logs / float64(len(xs)))
}
