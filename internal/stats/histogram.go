package stats

import (
	"fmt"
	"strings"
)

// Histogram is an equi-depth histogram: bucket boundaries chosen so each
// bucket covers (approximately) the same number of rows. Range selectivity
// estimates interpolate within the partially covered edge buckets, which
// handles skewed value distributions far better than the min/max uniform
// assumption.
type Histogram struct {
	// Bounds[i] is the inclusive upper bound of bucket i; bucket i covers
	// (Bounds[i-1], Bounds[i]] with bucket 0 starting at Min.
	Bounds []uint32
	// Fractions[i] is the fraction of rows in bucket i (sums to ~1).
	Fractions []float64
	// Min is the lowest value.
	Min uint32
}

// histogramSampleCap sets the sampling stride for histograms (statistics
// collection must stay cheap at ingestion time). A column of up to the cap
// rows is sorted whole. A longer column of n rows is sampled every n/cap
// rows, rounded down, so its sample holds from cap to 2·cap−1 values: a
// column of cap+1 to 2·cap−1 rows still has stride 1 and is sorted whole.
const histogramSampleCap = 1 << 16

// defaultBuckets is the histogram resolution.
const defaultBuckets = 32

// BuildHistogram constructs an equi-depth histogram over data with at most
// the given number of buckets. Large columns are sampled with a fixed
// stride. Returns nil for empty input.
func BuildHistogram(data []uint32, buckets int) *Histogram {
	var buf sampleBuf
	return buf.histogram(data, buckets)
}

// sampleBuf holds the two buffers a histogram's sample is radix-sorted
// between. A collect reuses one for every column it scans.
type sampleBuf struct{ a, b []uint32 }

// histogram is BuildHistogram with the sample in buf's buffers.
func (buf *sampleBuf) histogram(data []uint32, buckets int) *Histogram {
	if len(data) == 0 || buckets <= 0 {
		return nil
	}
	stride := 1
	if len(data) > histogramSampleCap {
		stride = len(data) / histogramSampleCap
	}
	n := (len(data) + stride - 1) / stride
	buf.a, buf.b = grow(buf.a, n), grow(buf.b, n)
	for i := range buf.a {
		buf.a[i] = data[i*stride]
	}
	sample := radixSort(buf.a, buf.b)

	h := &Histogram{Min: sample[0]}
	per := n / buckets
	if per < 1 {
		per = 1
	}
	start := 0
	for start < n {
		end := start + per
		if end > n {
			end = n
		}
		bound := sample[end-1]
		// Extend the bucket through duplicates of its upper bound so a
		// value never straddles buckets.
		for end < n && sample[end] == bound {
			end++
		}
		h.Bounds = append(h.Bounds, bound)
		h.Fractions = append(h.Fractions, float64(end-start)/float64(n))
		start = end
	}
	return h
}

// radixSort sorts a with an LSD radix sort, one pass per byte, skipping
// bytes every element shares. tmp is scratch of a's length; the sorted
// values end up in whichever of the two the last pass wrote, which is
// returned.
func radixSort(a, tmp []uint32) []uint32 {
	var counts [4][256]int
	for _, x := range a {
		counts[0][x&0xff]++
		counts[1][x>>8&0xff]++
		counts[2][x>>16&0xff]++
		counts[3][x>>24]++
	}
	for b := range counts {
		shift := 8 * b
		c := &counts[b]
		if len(a) == 0 || c[a[0]>>shift&0xff] == len(a) {
			continue
		}
		sum := 0
		for d, n := range c {
			c[d] = sum
			sum += n
		}
		for _, x := range a {
			d := x >> shift & 0xff
			tmp[c[d]] = x
			c[d]++
		}
		a, tmp = tmp, a
	}
	return a
}

// grow returns s resized to n elements, reallocating only when it must.
func grow(s []uint32, n int) []uint32 {
	if cap(s) < n {
		return make([]uint32, n)
	}
	return s[:n]
}

// RangeFraction estimates the fraction of rows with lo <= value <= hi.
func (h *Histogram) RangeFraction(lo, hi uint32) float64 {
	if h == nil || len(h.Bounds) == 0 || hi < lo {
		return 0
	}
	total := 0.0
	prevBound := h.Min
	for i, bound := range h.Bounds {
		bLo, bHi := prevBound, bound
		if i > 0 {
			// Bucket i covers (prevBound, bound]; approximate with
			// [prevBound+1, bound] in the integer domain.
			if prevBound < ^uint32(0) {
				bLo = prevBound + 1
			}
		}
		prevBound = bound
		if bHi < lo || bLo > hi {
			continue
		}
		// Overlap fraction within the bucket, assuming uniformity inside.
		oLo, oHi := bLo, bHi
		if lo > oLo {
			oLo = lo
		}
		if hi < oHi {
			oHi = hi
		}
		span := float64(bHi-bLo) + 1
		total += h.Fractions[i] * (float64(oHi-oLo) + 1) / span
	}
	if total > 1 {
		total = 1
	}
	return total
}

// Buckets returns the bucket count.
func (h *Histogram) Buckets() int { return len(h.Bounds) }

// String renders a compact summary.
func (h *Histogram) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "equi-depth histogram, %d buckets, min=%d:", len(h.Bounds), h.Min)
	show := len(h.Bounds)
	if show > 8 {
		show = 8
	}
	for i := 0; i < show; i++ {
		fmt.Fprintf(&b, " ≤%d:%.1f%%", h.Bounds[i], 100*h.Fractions[i])
	}
	if show < len(h.Bounds) {
		b.WriteString(" ...")
	}
	return b.String()
}
