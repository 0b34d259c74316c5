package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(100)
	for _, c := range []struct{ q, want float64 }{
		{0.01, 1}, {0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
}

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n       int
		wantPct float64
	}{
		{1000, 99}, {5000, 99}, {500, 98}, {200, 95}, {11, 100.0 / 11},
	} {
		xs := seq(c.n)
		pct, v, ok := tailPercentile(xs)
		if !ok || math.Abs(pct-c.wantPct) > 1e-9 {
			t.Fatalf("n=%d: tail percentile p%v (ok=%v), want p%v", c.n, pct, ok, c.wantPct)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond p%v = %v", c.n, beyond, pct, v)
		}
	}
	if _, _, ok := tailPercentile(seq(minBeyond)); ok {
		t.Errorf("%d samples support no tail percentile", minBeyond)
	}
}

func TestSummarizeDoesNotReorderInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	d := summarize(xs)
	if d.N != 3 || d.P50 != 2 || d.P99 != 3 {
		t.Errorf("summarize = %+v", d)
	}
	if xs[0] != 3 || xs[1] != 1 {
		t.Errorf("summarize sorted its input: %v", xs)
	}
}
