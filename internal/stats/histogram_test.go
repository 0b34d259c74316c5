package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"castle/internal/storage"
)

func TestBuildHistogramBasics(t *testing.T) {
	data := make([]uint32, 1000)
	for i := range data {
		data[i] = uint32(i)
	}
	h := BuildHistogram(data, 10)
	if h == nil || h.Buckets() == 0 {
		t.Fatal("no histogram built")
	}
	var total float64
	for _, f := range h.Fractions {
		total += f
	}
	if math.Abs(total-1) > 0.01 {
		t.Fatalf("fractions sum to %f", total)
	}
	if h.Min != 0 {
		t.Fatalf("min = %d", h.Min)
	}
	if h.String() == "" {
		t.Fatal("empty histogram string")
	}
}

func TestBuildHistogramEdgeCases(t *testing.T) {
	if BuildHistogram(nil, 8) != nil {
		t.Fatal("empty input should yield nil")
	}
	if BuildHistogram([]uint32{1}, 0) != nil {
		t.Fatal("zero buckets should yield nil")
	}
	// All-equal column: single bucket, full fraction.
	h := BuildHistogram([]uint32{7, 7, 7, 7}, 4)
	if h.Buckets() != 1 || math.Abs(h.Fractions[0]-1) > 1e-9 {
		t.Fatalf("constant column histogram: %+v", h)
	}
	if got := h.RangeFraction(7, 7); math.Abs(got-1) > 1e-9 {
		t.Fatalf("constant range fraction = %f", got)
	}
	if got := h.RangeFraction(8, 9); got != 0 {
		t.Fatalf("out-of-range fraction = %f", got)
	}
	if got := h.RangeFraction(9, 8); got != 0 {
		t.Fatalf("inverted range fraction = %f", got)
	}
	var nilH *Histogram
	if nilH.RangeFraction(1, 2) != 0 {
		t.Fatal("nil histogram should estimate 0")
	}
}

// TestHistogramBeatsUniformOnSkew is the reason histograms exist: on a
// heavily skewed column, the equi-depth estimate for a hot range is far
// closer to the truth than the min/max uniform assumption.
func TestHistogramBeatsUniformOnSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := make([]uint32, 100000)
	for i := range data {
		if rng.Intn(100) < 90 {
			data[i] = uint32(rng.Intn(10)) // 90% of rows in [0,10)
		} else {
			data[i] = uint32(10 + rng.Intn(1_000_000))
		}
	}
	truth := 0.0
	for _, v := range data {
		if v < 10 {
			truth++
		}
	}
	truth /= float64(len(data))

	db := storage.NewDatabase()
	tb := storage.NewTable("t")
	tb.AddIntColumn("x", data)
	db.Add(tb)
	cs, _ := Collect(db).Column("t", "x")

	histEst := cs.RangeSelectivity(0, 9)
	uniform := (float64(9) + 1) / (float64(cs.Max-cs.Min) + 1)

	if math.Abs(histEst-truth) > 0.1 {
		t.Fatalf("histogram estimate %f too far from truth %f", histEst, truth)
	}
	if math.Abs(uniform-truth) < math.Abs(histEst-truth) {
		t.Fatalf("uniform (%f) should be worse than histogram (%f) for truth %f",
			uniform, histEst, truth)
	}
}

// Property: range fractions are within [0,1] and monotone in range width.
func TestQuickHistogramBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	data := make([]uint32, 5000)
	for i := range data {
		data[i] = uint32(rng.Intn(1 << 16))
	}
	h := BuildHistogram(data, 16)
	f := func(aRaw, bRaw, cRaw uint16) bool {
		lo, hi := uint32(aRaw), uint32(bRaw)
		if lo > hi {
			lo, hi = hi, lo
		}
		wider := uint32(cRaw)
		fNarrow := h.RangeFraction(lo, hi)
		fWide := h.RangeFraction(lo, hi+wider)
		return fNarrow >= 0 && fNarrow <= 1 && fWide >= fNarrow-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a full-domain range estimates ~1.
func TestQuickHistogramFullRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(2000) + 10
		data := make([]uint32, n)
		for i := range data {
			data[i] = uint32(rng.Intn(1000))
		}
		h := BuildHistogram(data, 8)
		got := h.RangeFraction(0, 1000)
		return got > 0.95 && got <= 1.0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// referenceHistogram is BuildHistogram with the sample sorted by
// slices.Sort: the definition the radix-sorted sample must reproduce.
func referenceHistogram(data []uint32, buckets int) *Histogram {
	if len(data) == 0 || buckets <= 0 {
		return nil
	}
	stride := 1
	if len(data) > histogramSampleCap {
		stride = len(data) / histogramSampleCap
	}
	var sample []uint32
	for i := 0; i < len(data); i += stride {
		sample = append(sample, data[i])
	}
	slices.Sort(sample)
	h := &Histogram{Min: sample[0]}
	n := len(sample)
	per := max(n/buckets, 1)
	for start := 0; start < n; {
		end := min(start+per, n)
		for end < n && sample[end] == sample[end-1] {
			end++
		}
		h.Bounds = append(h.Bounds, sample[end-1])
		h.Fractions = append(h.Fractions, float64(end-start)/float64(n))
		start = end
	}
	return h
}

// FuzzHistogramMatchesSort holds BuildHistogram, and a sample buffer left
// over from a longer column, to referenceHistogram. raw holds little-endian
// uint32 values. With n > 0 the column is n mod 3·cap rows long instead,
// so short inputs reach the strided lengths past histogramSampleCap: it
// cycles through at most four of the values and adds the lap number to
// each. Using only four keeps the minimizer quick, since every value it
// tries to drop costs a sort of the long column.
func FuzzHistogramMatchesSort(f *testing.F) {
	le := func(vals ...uint32) []byte {
		var b []byte
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint32(b, v)
		}
		return b
	}
	spread := le(0xDEADBEEF, 7, 0x80000000, 0x00FF0000)
	f.Add(uint32(0), le(), uint8(defaultBuckets))
	f.Add(uint32(0), le(42), uint8(defaultBuckets))
	f.Add(uint32(0), le(7, 7, 7, 7, 7), uint8(4))
	f.Add(uint32(0), le(0, 0xFFFFFFFF, 0, 0xFFFFFFFF, 1), uint8(2))
	f.Add(uint32(0), le(0x05000000, 0x01000000, 0xFF000000, 0x01000000, 0x80000000), uint8(3))
	f.Add(uint32(histogramSampleCap+1), spread, uint8(defaultBuckets))
	f.Add(uint32(2*histogramSampleCap), spread, uint8(defaultBuckets))
	f.Fuzz(func(t *testing.T, n uint32, raw []byte, buckets uint8) {
		vals := make([]uint32, len(raw)/4)
		for i := range vals {
			vals[i] = binary.LittleEndian.Uint32(raw[4*i:])
		}
		data := vals
		if n > 0 && len(vals) > 0 {
			lap := vals[:min(len(vals), 4)]
			data = make([]uint32, n%(3*histogramSampleCap))
			for i := range data {
				data[i] = lap[i%len(lap)] + uint32(i/len(lap))
			}
		}
		want := referenceHistogram(data, int(buckets))
		if got := BuildHistogram(data, int(buckets)); !reflect.DeepEqual(got, want) {
			t.Fatalf("BuildHistogram(%d values, %d) = %+v, want %+v", len(data), buckets, got, want)
		}
		var buf sampleBuf
		buf.histogram(append([]uint32{0xFFFFFFFF, 0}, data...), int(buckets))
		if got := buf.histogram(data, int(buckets)); !reflect.DeepEqual(got, want) {
			t.Fatalf("reused buffer: histogram(%d values, %d) = %+v, want %+v", len(data), buckets, got, want)
		}
	})
}
