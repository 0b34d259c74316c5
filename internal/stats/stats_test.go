package stats

import (
	"math"
	"testing"
	"testing/quick"

	"castle/internal/ssb"
	"castle/internal/storage"
)

func testCatalog() *Catalog {
	db := storage.NewDatabase()
	t := storage.NewTable("t")
	t.AddIntColumn("year", []uint32{1992, 1993, 1994, 1995, 1992, 1993})
	t.AddIntColumn("qty", []uint32{1, 2, 3, 4, 5, 6})
	db.Add(t)
	return Collect(db)
}

func TestCollect(t *testing.T) {
	c := testCatalog()
	ts := c.MustTable("t")
	if ts.Rows != 6 {
		t.Fatalf("Rows = %d, want 6", ts.Rows)
	}
	ys := ts.Columns["year"]
	if ys.Min != 1992 || ys.Max != 1995 || ys.Distinct != 4 {
		t.Fatalf("year stats = %+v", ys)
	}
	if ys.BitWidth != 11 {
		t.Fatalf("year BitWidth = %d, want 11", ys.BitWidth)
	}
	if c.Table("missing") != nil {
		t.Fatal("missing table should be nil")
	}
	if _, ok := c.Column("t", "year"); !ok {
		t.Fatal("Column lookup failed")
	}
	if _, ok := c.Column("t", "nope"); ok {
		t.Fatal("missing column should not be found")
	}
	if _, ok := c.Column("nope", "x"); ok {
		t.Fatal("missing table should not be found")
	}
}

func TestMustTablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	testCatalog().MustTable("missing")
}

func TestEqSelectivity(t *testing.T) {
	c := testCatalog()
	ys, _ := c.Column("t", "year")
	if got := ys.EqSelectivity(); math.Abs(got-0.25) > 1e-9 {
		t.Fatalf("EqSelectivity = %f, want 0.25", got)
	}
	var empty ColumnStats
	if empty.EqSelectivity() != 0 {
		t.Fatal("empty column selectivity should be 0")
	}
}

func TestRangeSelectivity(t *testing.T) {
	c := testCatalog()
	ys, _ := c.Column("t", "year")
	if got := ys.RangeSelectivity(1992, 1995); math.Abs(got-1) > 0.01 {
		t.Fatalf("full range = %f, want ~1", got)
	}
	// The column is {1992,1993,1994,1995,1992,1993}: 4 of 6 rows fall in
	// [1992,1993]. The equi-depth histogram estimates the true fraction,
	// not the uniform 0.5.
	if got := ys.RangeSelectivity(1992, 1993); math.Abs(got-4.0/6) > 0.05 {
		t.Fatalf("half range = %f, want ~%f (true fraction)", got, 4.0/6)
	}
	if got := ys.RangeSelectivity(2000, 2001); got != 0 {
		t.Fatalf("out-of-range = %f, want 0", got)
	}
	// Clamping.
	if got := ys.RangeSelectivity(0, 5000); math.Abs(got-1) > 0.01 {
		t.Fatalf("clamped range = %f, want ~1", got)
	}
	// The uniform fallback applies when no histogram exists.
	noHist := ColumnStats{Min: 0, Max: 99, Distinct: 100}
	if got := noHist.RangeSelectivity(0, 49); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("uniform fallback = %f, want 0.5", got)
	}
}

func TestInSelectivity(t *testing.T) {
	c := testCatalog()
	ys, _ := c.Column("t", "year")
	if got := ys.InSelectivity(2); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("IN(2) = %f, want 0.5", got)
	}
	if got := ys.InSelectivity(100); got != 1 {
		t.Fatalf("IN(100) = %f, want capped at 1", got)
	}
}

// Property: all selectivities are within [0, 1].
func TestQuickSelectivityBounds(t *testing.T) {
	f := func(data []uint32, lo, hi uint32, k uint8) bool {
		if len(data) == 0 {
			return true
		}
		db := storage.NewDatabase()
		tb := storage.NewTable("t")
		tb.AddIntColumn("x", data)
		db.Add(tb)
		cs, _ := Collect(db).Column("t", "x")
		for _, s := range []float64{
			cs.EqSelectivity(),
			cs.RangeSelectivity(lo, hi),
			cs.InSelectivity(int(k)),
		} {
			if s < 0 || s > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: distinct count is exact.
func TestQuickDistinctExact(t *testing.T) {
	f := func(data []uint32) bool {
		if len(data) == 0 {
			return true
		}
		db := storage.NewDatabase()
		tb := storage.NewTable("t")
		tb.AddIntColumn("x", data)
		db.Add(tb)
		cs, _ := Collect(db).Column("t", "x")
		ref := map[uint32]bool{}
		for _, v := range data {
			ref[v] = true
		}
		return cs.Distinct == len(ref)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

var sinkCatalog *Catalog

// BenchmarkCollectSSB times a full collect of SSB at SF 0.02 and, with
// -benchmem, the bytes it allocates.
func BenchmarkCollectSSB(b *testing.B) {
	db := ssb.Generate(ssb.Config{SF: 0.02, Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkCatalog = Collect(db)
	}
}
