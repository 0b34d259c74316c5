package exec

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"strings"
	"testing"

	"castle/internal/baseline"
	"castle/internal/cape"
	"castle/internal/optimizer"
	"castle/internal/plan"
	"castle/internal/sql"
	"castle/internal/ssb"
	"castle/internal/stats"
	"castle/internal/storage"
)

var (
	testDB  *storage.Database
	testCat *stats.Catalog
)

func db(t *testing.T) (*storage.Database, *stats.Catalog) {
	t.Helper()
	if testDB == nil {
		testDB = ssb.Generate(ssb.Config{SF: 0.01, Seed: 20260704})
		testCat = stats.Collect(testDB)
	}
	return testDB, testCat
}

func bindQuery(t *testing.T, database *storage.Database, qsql string) *plan.Query {
	t.Helper()
	stmt, err := sql.Parse(qsql)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	q, err := plan.Bind(stmt, database)
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	return q
}

func optimize(t *testing.T, q *plan.Query, cat *stats.Catalog, maxvl int) *plan.Physical {
	t.Helper()
	p, err := optimizer.Optimize(q, cat, maxvl)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// smallCape returns a CAPE config with a small MAXVL so tests exercise the
// partition loop (multiple partitions at SF 0.01).
func smallCape() cape.Config {
	cfg := cape.DefaultConfig()
	cfg.MAXVL = 4096
	return cfg
}

func runCastle(t *testing.T, cfg cape.Config, p *plan.Physical, database *storage.Database, cat *stats.Catalog, opts CastleOptions) *Result {
	t.Helper()
	eng := cape.New(cfg)
	c := NewCastle(eng, cat, opts)
	return c.Run(p, database)
}

// TestAllSSBQueriesAgreeAcrossEngines is the central correctness gate: all
// thirteen SSB queries must return identical relations from the reference
// engine, the baseline CPU executor, and the Castle/CAPE executor — the
// latter under every microarchitectural configuration and plan shape.
func TestAllSSBQueriesAgreeAcrossEngines(t *testing.T) {
	database, cat := db(t)

	capeConfigs := map[string]cape.Config{
		"base":     smallCape(),
		"adl":      withFlags(smallCape(), true, false, false),
		"mks":      withFlags(smallCape(), true, true, false),
		"aba":      withFlags(smallCape(), false, false, true),
		"enhanced": withFlags(smallCape(), true, true, true),
	}

	for _, q := range ssb.Queries() {
		bound := bindQuery(t, database, q.SQL)
		want := Reference(bound, database)

		gotCPU := NewCPUExec(baseline.New(baseline.DefaultConfig())).Run(bound, database)
		if !want.Equal(gotCPU) {
			t.Fatalf("%s: baseline CPU result differs from reference\nref:\n%s\ncpu:\n%s",
				q.Flight, want.Format(database), gotCPU.Format(database))
		}

		for name, cfg := range capeConfigs {
			p := optimize(t, bound, cat, cfg.MAXVL)
			got := runCastle(t, cfg, p, database, cat, DefaultCastleOptions())
			if !want.Equal(got) {
				t.Fatalf("%s [%s, %v]: Castle result differs from reference\nref:\n%s\ncastle:\n%s",
					q.Flight, name, p.Shape(), want.Format(database), got.Format(database))
			}
		}
	}
}

func withFlags(cfg cape.Config, adl, mks, aba bool) cape.Config {
	cfg.EnableADL = adl
	cfg.EnableMKS = mks
	cfg.EnableABA = aba
	return cfg
}

// TestAllPlanShapesAgree runs a representative multi-join query under every
// plan shape; results must be identical (plans change cost, never answers).
func TestAllPlanShapesAgree(t *testing.T) {
	database, cat := db(t)
	q := ssb.Queries()[3] // Q2.1: three joins, group-by over two dims
	bound := bindQuery(t, database, q.SQL)
	want := Reference(bound, database)
	cfg := withFlags(smallCape(), true, true, true)

	for _, shape := range []plan.Shape{plan.LeftDeep, plan.RightDeep, plan.ZigZag} {
		p, err := optimizer.BestWithShape(bound, cat, cfg.MAXVL, shape)
		if err != nil {
			t.Fatalf("%v: %v", shape, err)
		}
		got := runCastle(t, cfg, p, database, cat, DefaultCastleOptions())
		if !want.Equal(got) {
			t.Fatalf("shape %v: wrong result\nref:\n%s\ngot:\n%s",
				shape, want.Format(database), got.Format(database))
		}
	}
}

// TestFusionOffStillCorrect checks the §7.4 ablation keeps answers intact
// and strictly increases cost.
func TestFusionOffStillCorrect(t *testing.T) {
	database, cat := db(t)
	bound := bindQuery(t, database, ssb.Queries()[6].SQL) // Q3.1
	cfg := withFlags(smallCape(), true, true, true)
	p := optimize(t, bound, cat, cfg.MAXVL)

	engFused := cape.New(cfg)
	fused := NewCastle(engFused, cat, CastleOptions{Fusion: true}).Run(p, database)
	engSplit := cape.New(cfg)
	split := NewCastle(engSplit, cat, CastleOptions{Fusion: false}).Run(p, database)

	if !fused.Equal(split) {
		t.Fatal("fusion must not change results")
	}
	if engSplit.Stats().TotalCycles() <= engFused.Stats().TotalCycles() {
		t.Fatalf("unfused execution (%d cycles) should cost more than fused (%d)",
			engSplit.Stats().TotalCycles(), engFused.Stats().TotalCycles())
	}
}

// TestADLReducesCycles: the adaptive data layout must speed up a
// search-dominated query (§5.2).
func TestADLReducesCycles(t *testing.T) {
	database, cat := db(t)
	bound := bindQuery(t, database, ssb.Queries()[3].SQL) // Q2.1, search-heavy
	base := smallCape()
	p := optimize(t, bound, cat, base.MAXVL)

	engBase := cape.New(base)
	NewCastle(engBase, cat, DefaultCastleOptions()).Run(p, database)
	engADL := cape.New(withFlags(base, true, false, false))
	NewCastle(engADL, cat, DefaultCastleOptions()).Run(p, database)

	if engADL.Stats().TotalCycles() >= engBase.Stats().TotalCycles() {
		t.Fatalf("ADL should reduce cycles: %d (ADL) vs %d (base)",
			engADL.Stats().TotalCycles(), engBase.Stats().TotalCycles())
	}
}

// TestABAReducesCyclesOnArithmeticQuery: Q1.1 is dominated by the
// sum(extendedprice*discount) multiply; ABA must shrink it (§5.1).
func TestABAReducesCyclesOnArithmeticQuery(t *testing.T) {
	database, cat := db(t)
	bound := bindQuery(t, database, ssb.Queries()[0].SQL) // Q1.1
	base := smallCape()
	p := optimize(t, bound, cat, base.MAXVL)

	engBase := cape.New(base)
	NewCastle(engBase, cat, DefaultCastleOptions()).Run(p, database)
	engABA := cape.New(withFlags(base, false, false, true))
	NewCastle(engABA, cat, DefaultCastleOptions()).Run(p, database)

	if engABA.Stats().TotalCycles() >= engBase.Stats().TotalCycles() {
		t.Fatalf("ABA should reduce cycles on Q1.1: %d (ABA) vs %d (base)",
			engABA.Stats().TotalCycles(), engBase.Stats().TotalCycles())
	}
}

// TestOptimizedPlanFasterThanLeftDeep reproduces the core §4.2 finding at
// test scale: CAPE-aware plan shapes beat the traditional left-deep shape.
func TestOptimizedPlanFasterThanLeftDeep(t *testing.T) {
	database, cat := db(t)
	bound := bindQuery(t, database, ssb.Queries()[3].SQL) // Q2.1
	cfg := smallCape()

	best := optimize(t, bound, cat, cfg.MAXVL)
	ld, err := optimizer.BestWithShape(bound, cat, cfg.MAXVL, plan.LeftDeep)
	if err != nil {
		t.Fatal(err)
	}
	if best.Shape() == plan.LeftDeep {
		t.Skip("optimizer picked left-deep at this scale; nothing to compare")
	}

	engBest := cape.New(cfg)
	NewCastle(engBest, cat, DefaultCastleOptions()).Run(best, database)
	engLD := cape.New(cfg)
	NewCastle(engLD, cat, DefaultCastleOptions()).Run(ld, database)

	if engBest.Stats().TotalCycles() >= engLD.Stats().TotalCycles() {
		t.Fatalf("optimized plan (%d cycles, %v) should beat left-deep (%d cycles)",
			engBest.Stats().TotalCycles(), best.Shape(), engLD.Stats().TotalCycles())
	}
}

// TestResultNormalizeAndEqual covers the result plumbing.
func TestResultNormalizeAndEqual(t *testing.T) {
	a := &Result{Rows: []Row{
		{Keys: []uint32{2, 1}, Aggs: []int64{10}},
		{Keys: []uint32{1, 5}, Aggs: []int64{20}},
	}}
	a.Normalize()
	if a.Rows[0].Keys[0] != 1 {
		t.Fatal("Normalize should sort by keys")
	}
	b := &Result{Rows: []Row{
		{Keys: []uint32{1, 5}, Aggs: []int64{20}},
		{Keys: []uint32{2, 1}, Aggs: []int64{10}},
	}}
	b.Normalize()
	if !a.Equal(b) {
		t.Fatal("equal results should compare equal")
	}
	b.Rows[0].Aggs[0] = 99
	if a.Equal(b) {
		t.Fatal("different aggregates should not compare equal")
	}
	c := &Result{}
	if a.Equal(c) {
		t.Fatal("different row counts should not compare equal")
	}
}

func TestGroupAcc(t *testing.T) {
	aggs := []plan.AggExpr{
		{Kind: plan.AggSumCol, A: "x"},
		{Kind: plan.AggMin, A: "x"},
		{Kind: plan.AggMax, A: "x"},
		{Kind: plan.AggAvg, A: "x"},
		{Kind: plan.AggCount},
	}
	acc := newGroupAcc(aggs)
	acc.add([]uint32{1}, []int64{10, 10, 10, 10, 1}, 1)
	acc.add([]uint32{2}, []int64{5, 5, 5, 5, 1}, 1)
	acc.add([]uint32{1}, []int64{7, 7, 7, 7, 1}, 1)
	res := acc.result(&plan.Query{
		GroupBy: []plan.ColRef{{Table: "t", Column: "c"}},
		Aggs:    aggs,
	})
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	g1 := res.Rows[0]
	if g1.Keys[0] != 1 {
		t.Fatalf("group 1 = %+v", g1)
	}
	want := []int64{17, 7, 10, 8, 2} // sum, min, max, floor(17/2), count
	for i, w := range want {
		if g1.Aggs[i] != w {
			t.Fatalf("group 1 agg %d = %d, want %d (all: %v)", i, g1.Aggs[i], w, g1.Aggs)
		}
	}
}

func TestFloorDiv(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{7, 2, 3}, {-7, 2, -4}, {7, -2, -4}, {-7, -2, 3}, {6, 3, 2}, {-6, 3, -2},
	}
	for _, c := range cases {
		if got := floorDiv(c.a, c.b); got != c.want {
			t.Errorf("floorDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// TestMinMaxAvgAcrossEngines drives the extended aggregate vocabulary
// through all three engines on SSB data.
func TestMinMaxAvgAcrossEngines(t *testing.T) {
	database, cat := db(t)
	for _, qsql := range []string{
		`SELECT MIN(lo_revenue), MAX(lo_revenue), AVG(lo_revenue), COUNT(lo_revenue)
		 FROM lineorder WHERE lo_quantity < 10`,
		`SELECT d_year, MIN(lo_discount), MAX(lo_extendedprice), AVG(lo_quantity)
		 FROM lineorder, date WHERE lo_orderdate = d_datekey GROUP BY d_year`,
		`SELECT MAX(lo_revenue) FROM lineorder WHERE lo_quantity > 100`, // empty match
	} {
		bound := bindQuery(t, database, qsql)
		want := Reference(bound, database)
		cpu := NewCPUExec(baseline.New(baseline.DefaultConfig())).Run(bound, database)
		if !want.Equal(cpu) {
			t.Fatalf("%s: baseline differs\nref:\n%s\ncpu:\n%s", qsql, want.Format(database), cpu.Format(database))
		}
		for _, cfg := range []cape.Config{smallCape(), withFlags(smallCape(), true, true, true)} {
			p := optimize(t, bound, cat, cfg.MAXVL)
			got := runCastle(t, cfg, p, database, cat, DefaultCastleOptions())
			if !want.Equal(got) {
				t.Fatalf("%s: castle differs\nref:\n%s\ncastle:\n%s", qsql, want.Format(database), got.Format(database))
			}
			lit := runCastle(t, cfg, p, database, cat, CastleOptions{Fusion: true, NoBulkAggFastPath: true})
			if !want.Equal(lit) {
				t.Fatalf("%s: castle literal loop differs", qsql)
			}
		}
	}
}

func TestReferenceQ11HandComputed(t *testing.T) {
	// A tiny hand-checkable database.
	database := storage.NewDatabase()
	d := storage.NewTable("dim")
	d.AddIntColumn("d_key", []uint32{1, 2})
	d.AddIntColumn("d_year", []uint32{1993, 1994})
	database.Add(d)
	f := storage.NewTable("facts")
	f.AddIntColumn("f_dk", []uint32{1, 1, 2, 2})
	f.AddIntColumn("f_price", []uint32{100, 200, 300, 400})
	f.AddIntColumn("f_disc", []uint32{1, 2, 3, 4})
	database.Add(f)

	bound := bindQuery(t, database, `
		SELECT SUM(f_price * f_disc) FROM facts, dim
		WHERE f_dk = d_key AND d_year = 1993`)
	res := Reference(bound, database)
	if len(res.Rows) != 1 || res.Rows[0].Aggs[0] != 100*1+200*2 {
		t.Fatalf("result = %+v, want 500", res.Rows)
	}

	// Castle agrees on the same tiny input.
	cat := stats.Collect(database)
	cfg := cape.DefaultConfig().WithEnhancements()
	p := optimize(t, bound, cat, cfg.MAXVL)
	got := runCastle(t, cfg, p, database, cat, DefaultCastleOptions())
	if !res.Equal(got) {
		t.Fatalf("castle = %+v, want %+v", got.Rows, res.Rows)
	}

	// Baseline agrees too.
	cpu := NewCPUExec(baseline.New(baseline.DefaultConfig())).Run(bound, database)
	if !res.Equal(cpu) {
		t.Fatalf("cpu = %+v, want %+v", cpu.Rows, res.Rows)
	}
}

func TestEmptyResultQueries(t *testing.T) {
	database, cat := db(t)
	// A dimension filter that matches nothing.
	bound := bindQuery(t, database, `
		SELECT SUM(lo_revenue), d_year
		FROM lineorder, date
		WHERE lo_orderdate = d_datekey AND d_year = 2050
		GROUP BY d_year`)
	want := Reference(bound, database)
	if len(want.Rows) != 0 {
		t.Fatalf("expected empty result, got %d rows", len(want.Rows))
	}
	cfg := withFlags(smallCape(), true, true, true)
	p := optimize(t, bound, cat, cfg.MAXVL)
	got := runCastle(t, cfg, p, database, cat, DefaultCastleOptions())
	if !want.Equal(got) {
		t.Fatal("castle should return an empty result")
	}
	cpu := NewCPUExec(baseline.New(baseline.DefaultConfig())).Run(bound, database)
	if !want.Equal(cpu) {
		t.Fatal("cpu should return an empty result")
	}
}

func TestNoGroupByEmptyMatchStillOneRow(t *testing.T) {
	database, cat := db(t)
	bound := bindQuery(t, database, `
		SELECT SUM(lo_revenue) FROM lineorder WHERE lo_quantity > 100`)
	want := Reference(bound, database)
	cfg := withFlags(smallCape(), true, true, true)
	p := optimize(t, bound, cat, cfg.MAXVL)
	got := runCastle(t, cfg, p, database, cat, DefaultCastleOptions())
	cpu := NewCPUExec(baseline.New(baseline.DefaultConfig())).Run(bound, database)
	if len(want.Rows) != 1 || want.Rows[0].Aggs[0] != 0 {
		t.Fatalf("reference = %+v, want single zero row", want.Rows)
	}
	if !want.Equal(got) || !want.Equal(cpu) {
		t.Fatalf("engines disagree on empty aggregate: ref=%v castle=%v cpu=%v",
			want.Rows, got.Rows, cpu.Rows)
	}
}

func TestCountAggregate(t *testing.T) {
	database, cat := db(t)
	bound := bindQuery(t, database, `
		SELECT COUNT(lo_revenue), d_year
		FROM lineorder, date
		WHERE lo_orderdate = d_datekey AND d_year = 1995
		GROUP BY d_year`)
	want := Reference(bound, database)
	cfg := withFlags(smallCape(), true, true, true)
	p := optimize(t, bound, cat, cfg.MAXVL)
	got := runCastle(t, cfg, p, database, cat, DefaultCastleOptions())
	cpu := NewCPUExec(baseline.New(baseline.DefaultConfig())).Run(bound, database)
	if !want.Equal(got) || !want.Equal(cpu) {
		t.Fatalf("count disagrees: ref=%v castle=%v cpu=%v", want.Rows, got.Rows, cpu.Rows)
	}
}

// TestBulkGroupLoopMatchesLiteralLoop asserts the one-pass group fast path
// returns the same rows and bills exactly the same accounting — cycles per
// pool and class, instruction counts per opcode — as the literal Algorithm
// 2 loop it replaces, over one to three group columns drawn from the fact
// and the dimensions, every aggregate kind it takes, and an empty result,
// in CAM mode, in GP mode with ABA width discovery, and without
// enhancements.
func TestBulkGroupLoopMatchesLiteralLoop(t *testing.T) {
	database, cat := db(t)
	shapes := []struct{ name, sql string }{
		{"1col-sum", `SELECT d_year, SUM(lo_revenue) FROM lineorder, date
			WHERE lo_orderdate = d_datekey GROUP BY d_year`},
		{"1col-sumsub", `SELECT d_year, SUM(lo_revenue - lo_supplycost) FROM lineorder, date
			WHERE lo_orderdate = d_datekey GROUP BY d_year`},
		{"1col-fact-minmaxavgcount", `SELECT lo_discount, MIN(lo_quantity), MAX(lo_extendedprice),
			AVG(lo_revenue), COUNT(lo_revenue) FROM lineorder WHERE lo_quantity < 25 GROUP BY lo_discount`},
		{"2col-sumsub", `SELECT d_year, c_nation, SUM(lo_revenue - lo_supplycost)
			FROM lineorder, customer, supplier, date
			WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey AND lo_orderdate = d_datekey
			  AND c_region = 'AMERICA' AND s_region = 'AMERICA' GROUP BY d_year, c_nation`},
		{"2col-fact-dim-minmaxavgcount", `SELECT d_year, lo_discount, MIN(lo_quantity), MAX(lo_quantity),
			AVG(lo_extendedprice), COUNT(lo_revenue) FROM lineorder, date
			WHERE lo_orderdate = d_datekey AND lo_quantity < 25 GROUP BY d_year, lo_discount`},
		{"3col-sum", `SELECT c_nation, s_nation, d_year, SUM(lo_revenue)
			FROM customer, lineorder, supplier, date
			WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey AND lo_orderdate = d_datekey
			  AND c_region = 'ASIA' AND s_region = 'ASIA' AND d_year >= 1992 AND d_year <= 1997
			GROUP BY c_nation, s_nation, d_year`},
		{"3col-fact-dim-sumsub-minmax", `SELECT d_year, s_nation, lo_discount, SUM(lo_revenue - lo_supplycost),
			MIN(lo_revenue), MAX(lo_revenue), COUNT(lo_revenue) FROM lineorder, supplier, date
			WHERE lo_suppkey = s_suppkey AND lo_orderdate = d_datekey AND s_region = 'ASIA'
			GROUP BY d_year, s_nation, lo_discount`},
		{"1col-empty", `SELECT p_brand1, SUM(lo_revenue) FROM lineorder, part, date
			WHERE lo_partkey = p_partkey AND lo_orderdate = d_datekey AND d_year = 2050 GROUP BY p_brand1`},
		{"3col-empty", `SELECT d_year, p_brand1, lo_discount, MIN(lo_revenue), SUM(lo_revenue - lo_supplycost)
			FROM lineorder, part, date
			WHERE lo_partkey = p_partkey AND lo_orderdate = d_datekey AND d_year = 2050
			GROUP BY d_year, p_brand1, lo_discount`},
	}
	configs := []struct {
		name          string
		adl, mks, aba bool
	}{
		{"enhanced", true, true, true}, // CAM-mode searches
		{"gp-aba", false, false, true}, // bit-serial searches at discovered widths
		{"none", false, false, false},
	}
	for _, sh := range shapes {
		bound := bindQuery(t, database, sh.sql)
		want := Reference(bound, database)
		for _, c := range configs {
			for _, maxvl := range []int{4096, 32768} {
				t.Run(fmt.Sprintf("%s/%s/vl%d", sh.name, c.name, maxvl), func(t *testing.T) {
					cfg := cape.DefaultConfig()
					cfg.MAXVL = maxvl
					cfg = withFlags(cfg, c.adl, c.mks, c.aba)
					p := optimize(t, bound, cat, maxvl)
					engFast, engLit := cape.New(cfg), cape.New(cfg)
					fast := NewCastle(engFast, cat, CastleOptions{Fusion: true}).Run(p, database)
					lit := NewCastle(engLit, cat, CastleOptions{Fusion: true, NoBulkAggFastPath: true}).Run(p, database)
					if !want.Equal(fast) || !want.Equal(lit) {
						t.Fatalf("rows differ: reference %d, fast path %d, literal loop %d",
							len(want.Rows), len(fast.Rows), len(lit.Rows))
					}
					if d := statsMismatch(engFast.Stats(), engLit.Stats()); d != "" {
						t.Fatalf("fast path vs literal loop: %s", d)
					}
				})
			}
		}
	}

	// The CAPE tail of a split run aggregates shipped survivors with the
	// same kernels, so a CPU fact stage feeding a CAPE tail takes the fast
	// path too, materializing and streaming alike.
	cfg := withFlags(smallCape(), true, true, true)
	for _, sh := range shapes {
		bound := bindQuery(t, database, sh.sql)
		want := Reference(bound, database)
		pp := plan.Compile(optimize(t, bound, cat, cfg.MAXVL), plan.DeviceCPU).Place(plan.DeviceCPU, plan.DeviceCAPE, nil)
		for _, streaming := range []bool{false, true} {
			t.Run(fmt.Sprintf("split-run/%s/streaming=%v", sh.name, streaming), func(t *testing.T) {
				run := func(opts CastleOptions) (*Result, *cape.Engine, *Placed) {
					eng := cape.New(cfg)
					x := NewPlaced(NewCastle(eng, cat, opts), NewCPUExec(baseline.New(baseline.DefaultConfig())), cat)
					x.SetStreaming(streaming)
					res, err := x.Run(pp, database)
					if err != nil {
						t.Fatal(err)
					}
					return res, eng, x
				}
				fast, engFast, xFast := run(CastleOptions{Fusion: true})
				lit, engLit, xLit := run(CastleOptions{Fusion: true, NoBulkAggFastPath: true})
				if !want.Equal(fast) || !want.Equal(lit) {
					t.Fatalf("tail rows differ: reference %d, fast path %d, literal loop %d",
						len(want.Rows), len(fast.Rows), len(lit.Rows))
				}
				fc, fu := xFast.DeviceCycles()
				lc, lu := xLit.DeviceCycles()
				if fc != lc || fu != lu || fc != engFast.Stats().TotalCycles() {
					t.Fatalf("tail fast path billed CAPE %d CPU %d, literal loop CAPE %d CPU %d", fc, fu, lc, lu)
				}
				if d := statsMismatch(engFast.Stats(), engLit.Stats()); d != "" {
					t.Fatalf("tail fast path vs literal loop: %s", d)
				}
			})
		}
	}
}

// statsMismatch names the first accounting field where two engines' stats
// differ, or returns "" when they agree exactly.
func statsMismatch(a, b cape.Stats) string {
	switch {
	case a.TotalCycles() != b.TotalCycles():
		return fmt.Sprintf("total cycles %d vs %d", a.TotalCycles(), b.TotalCycles())
	case a.CPCycles != b.CPCycles:
		return fmt.Sprintf("CP cycles %d vs %d", a.CPCycles, b.CPCycles)
	case a.MemCycles != b.MemCycles:
		return fmt.Sprintf("memory cycles %d vs %d", a.MemCycles, b.MemCycles)
	case a.CSBCyclesByClass != b.CSBCyclesByClass:
		return fmt.Sprintf("CSB cycles by class %v vs %v", a.CSBCyclesByClass, b.CSBCyclesByClass)
	case a.VectorInstrs != b.VectorInstrs:
		return fmt.Sprintf("vector instructions %d vs %d", a.VectorInstrs, b.VectorInstrs)
	case a.ScalarInstrs != b.ScalarInstrs:
		return fmt.Sprintf("scalar instructions %d vs %d", a.ScalarInstrs, b.ScalarInstrs)
	case !maps.Equal(a.InstrsByOp, b.InstrsByOp):
		return fmt.Sprintf("instructions by opcode %v vs %v", a.InstrsByOp, b.InstrsByOp)
	}
	return ""
}

// TestOrderByAcrossEngines verifies ORDER BY (including DESC on an
// aggregate alias) produces the same ordered relation from every engine.
func TestOrderByAcrossEngines(t *testing.T) {
	database, cat := db(t)
	bound := bindQuery(t, database, `
		SELECT d_year, SUM(lo_revenue) AS revenue
		FROM lineorder, date
		WHERE lo_orderdate = d_datekey
		GROUP BY d_year
		ORDER BY revenue DESC`)
	want := Reference(bound, database)
	// Descending aggregate order.
	for i := 1; i < len(want.Rows); i++ {
		if want.Rows[i].Aggs[0] > want.Rows[i-1].Aggs[0] {
			t.Fatalf("reference rows not in DESC aggregate order: %v", want.Rows)
		}
	}
	cfg := withFlags(smallCape(), true, true, true)
	p := optimize(t, bound, cat, cfg.MAXVL)
	got := runCastle(t, cfg, p, database, cat, DefaultCastleOptions())
	cpu := NewCPUExec(baseline.New(baseline.DefaultConfig())).Run(bound, database)
	if !want.Equal(got) || !want.Equal(cpu) {
		t.Fatal("ordered results disagree across engines")
	}
}

// TestScalarCodebaseSlower reproduces the §4.1 relationship: the AVX-512
// codebase beats the scalar codebase.
func TestScalarCodebaseSlower(t *testing.T) {
	database, _ := db(t)
	bound := bindQuery(t, database, ssb.Queries()[3].SQL)
	avx := baseline.New(baseline.DefaultConfig())
	NewCPUExec(avx).Run(bound, database)
	scalar := baseline.New(baseline.ScalarConfig())
	NewCPUExec(scalar).Run(bound, database)
	if scalar.Cycles() <= avx.Cycles() {
		t.Fatalf("scalar codebase (%d cycles) should be slower than AVX-512 (%d)",
			scalar.Cycles(), avx.Cycles())
	}
}

// TestInstructionTraceOfSimpleQuery pins the instruction stream the
// executor emits for a one-join query on the enhanced design point: a
// vsetdl into CAM mode, per-partition column loads, one search per probe
// key folded with vmor, and Algorithm 2's group loop.
func TestInstructionTraceOfSimpleQuery(t *testing.T) {
	database := storage.NewDatabase()
	d := storage.NewTable("dim")
	d.AddIntColumn("d_key", []uint32{1, 2, 3})
	d.AddIntColumn("d_cat", []uint32{7, 7, 9})
	database.Add(d)
	f := storage.NewTable("facts")
	f.AddIntColumn("f_fk", []uint32{1, 2, 3, 1, 2, 3, 1, 2})
	f.AddIntColumn("f_v", []uint32{1, 2, 3, 4, 5, 6, 7, 8})
	database.Add(f)
	cat := stats.Collect(database)

	bound := bindQuery(t, database, `
		SELECT d_cat, SUM(f_v) FROM facts, dim
		WHERE f_fk = d_key GROUP BY d_cat`)
	cfg := cape.DefaultConfig().WithEnhancements()
	p := optimize(t, bound, cat, cfg.MAXVL)

	eng := cape.New(cfg)
	tr := cape.NewTracer(256)
	eng.AttachTracer(tr)
	// Force the literal Algorithm 2 loop so the group instructions appear
	// individually in the trace.
	res := NewCastle(eng, cat, CastleOptions{Fusion: true, NoBulkAggFastPath: true}).Run(p, database)
	if len(res.Rows) != 2 {
		t.Fatalf("rows: %+v", res.Rows)
	}

	counts := map[string]int64{}
	var order []string
	for _, e := range tr.Entries() {
		counts[e.Op.String()] += e.Count
		order = append(order, e.Op.String())
	}
	if counts["vsetdl"] == 0 {
		t.Errorf("trace missing vsetdl (ADL mode switch): %v", order)
	}
	// The unfiltered dimension needs no CAPE pass (its key column is the
	// values array already), so only the two fact columns load.
	if counts["vle32.v"] != 2 {
		t.Errorf("expected 2 fact column loads, got %d", counts["vle32.v"])
	}
	// Probing: 3 dimension keys grouped by d_cat into 2 attribute groups
	// -> 3 searches; Algorithm 2: one search per discovered group (2).
	if counts["vmseq.vx"] != 5 {
		t.Errorf("searches = %d, want 5 (3 probe + 2 group): %v", counts["vmseq.vx"], order)
	}
	if counts["vmerge.vxm"] != 2 {
		t.Errorf("merges = %d, want 2 (one per attribute group)", counts["vmerge.vxm"])
	}
	if counts["vredsum.vs"] != 2 {
		t.Errorf("reductions = %d, want 2 (one per group)", counts["vredsum.vs"])
	}
	// vfirst: 2 groups + 1 terminating probe.
	if counts["vfirst.m"] != 3 {
		t.Errorf("vfirst = %d, want 3", counts["vfirst.m"])
	}
	if tr.Dropped() != 0 {
		t.Errorf("trace dropped %d instructions", tr.Dropped())
	}
}

func TestAccessorsAndFormat(t *testing.T) {
	database, cat := db(t)
	cfg := smallCape()
	eng := cape.New(cfg)
	c := NewCastle(eng, cat, DefaultCastleOptions())
	if c.Engine() != eng {
		t.Fatal("Engine accessor broken")
	}
	cpu := baseline.New(baseline.DefaultConfig())
	x := NewCPUExec(cpu)
	if x.CPU() != cpu {
		t.Fatal("CPU accessor broken")
	}
	bound := bindQuery(t, database, `SELECT d_year, SUM(lo_revenue) FROM lineorder, date
		WHERE lo_orderdate = d_datekey GROUP BY d_year`)
	res := Reference(bound, database)
	out := res.Format(database)
	if !strings.Contains(out, "d_year") || !strings.Contains(out, "SUM(lo_revenue)") {
		t.Fatalf("Format output missing headers:\n%s", out)
	}
}

func TestCastleWithNilCatalogAndCustomMKSThreshold(t *testing.T) {
	database, cat := db(t)
	bound := bindQuery(t, database, ssb.Queries()[6].SQL) // Q3.1
	cfg := withFlags(smallCape(), true, true, true)
	p := optimize(t, bound, cat, cfg.MAXVL)
	want := Reference(bound, database)

	// nil catalog forces embedded ABA discovery; an 8-byte cacheline lowers
	// the MKS threshold to two keys, forcing vmks on small batches.
	cfg.Mem.LineBytes = 8
	eng := cape.New(cfg)
	got := NewCastle(eng, nil, CastleOptions{Fusion: true}).Run(p, database)
	if !want.Equal(got) {
		t.Fatal("nil-catalog execution changed results")
	}
}

func TestApplyOrderMultiKeyWithTies(t *testing.T) {
	r := &Result{Rows: []Row{
		{Keys: []uint32{1, 9}, Aggs: []int64{5}},
		{Keys: []uint32{1, 3}, Aggs: []int64{5}},
		{Keys: []uint32{2, 1}, Aggs: []int64{9}},
	}}
	r.Normalize()
	r.ApplyOrder([]plan.OrderTerm{
		{KeyIdx: -1, AggIdx: 0, Desc: false}, // by agg asc
		{KeyIdx: 1, AggIdx: -1, Desc: true},  // tie-break by key[1] desc
	})
	if r.Rows[0].Keys[1] != 9 || r.Rows[1].Keys[1] != 3 || r.Rows[2].Aggs[0] != 9 {
		t.Fatalf("order wrong: %+v", r.Rows)
	}
}

// TestLeftDeepMultiPartitionDimension exercises left-deep probing where the
// stored dimension spans several CSB partitions (|filtered dim| > MAXVL),
// including attribute fetches from every partition.
func TestLeftDeepMultiPartitionDimension(t *testing.T) {
	const dimRows, factRows = 10000, 30000
	database := storage.NewDatabase()
	d := storage.NewTable("dim")
	keys := make([]uint32, dimRows)
	attrs := make([]uint32, dimRows)
	for i := range keys {
		keys[i] = uint32(i + 1)
		attrs[i] = uint32(i % 17)
	}
	d.AddIntColumn("d_key", keys)
	d.AddIntColumn("d_attr", attrs)
	database.Add(d)

	f := storage.NewTable("facts")
	fk := make([]uint32, factRows)
	vals := make([]uint32, factRows)
	for i := range fk {
		fk[i] = uint32(1 + (i*7)%dimRows)
		vals[i] = uint32(i % 100)
	}
	f.AddIntColumn("f_fk", fk)
	f.AddIntColumn("f_val", vals)
	database.Add(f)
	cat := stats.Collect(database)

	bound := bindQuery(t, database, `
		SELECT d_attr, SUM(f_val) FROM facts, dim
		WHERE f_fk = d_key GROUP BY d_attr`)
	want := Reference(bound, database)

	cfg := withFlags(cape.DefaultConfig(), true, true, true)
	cfg.MAXVL = 1024 // dim spans 10 partitions, fact spans 5
	p, err := optimizer.BestWithShape(bound, cat, cfg.MAXVL, plan.LeftDeep)
	if err != nil {
		t.Fatal(err)
	}
	got := runCastle(t, cfg, p, database, cat, DefaultCastleOptions())
	if !want.Equal(got) {
		t.Fatalf("multi-partition left-deep join wrong\nref:\n%s\ngot:\n%s",
			want.Format(database), got.Format(database))
	}
}

// TestCountDistinctAndLimitAcrossEngines covers the COUNT(DISTINCT) and
// LIMIT features end to end on all three engines.
func TestCountDistinctAndLimitAcrossEngines(t *testing.T) {
	database, cat := db(t)
	for _, qsql := range []string{
		`SELECT COUNT(DISTINCT lo_custkey) FROM lineorder WHERE lo_quantity < 10`,
		`SELECT d_year, COUNT(DISTINCT lo_suppkey), SUM(lo_revenue)
		 FROM lineorder, date WHERE lo_orderdate = d_datekey GROUP BY d_year`,
		`SELECT d_year, SUM(lo_revenue) AS revenue
		 FROM lineorder, date WHERE lo_orderdate = d_datekey
		 GROUP BY d_year ORDER BY revenue DESC LIMIT 3`,
	} {
		bound := bindQuery(t, database, qsql)
		want := Reference(bound, database)
		cpu := NewCPUExec(baseline.New(baseline.DefaultConfig())).Run(bound, database)
		if !want.Equal(cpu) {
			t.Fatalf("%s: baseline differs\nref:\n%s\ncpu:\n%s", qsql, want.Format(database), cpu.Format(database))
		}
		for _, cfg := range []cape.Config{smallCape(), withFlags(smallCape(), true, true, true)} {
			p := optimize(t, bound, cat, cfg.MAXVL)
			got := runCastle(t, cfg, p, database, cat, DefaultCastleOptions())
			if !want.Equal(got) {
				t.Fatalf("%s: castle differs\nref:\n%s\ncastle:\n%s", qsql, want.Format(database), got.Format(database))
			}
		}
	}
	// LIMIT actually limits.
	bound := bindQuery(t, database, `SELECT d_year, SUM(lo_revenue)
		FROM lineorder, date WHERE lo_orderdate = d_datekey
		GROUP BY d_year LIMIT 2`)
	if got := Reference(bound, database); len(got.Rows) != 2 {
		t.Fatalf("LIMIT 2 returned %d rows", len(got.Rows))
	}
	// Distinct count is correct on a hand-checkable input.
	tiny := storage.NewDatabase()
	f := storage.NewTable("facts")
	f.AddIntColumn("f_g", []uint32{1, 1, 1, 2, 2})
	f.AddIntColumn("f_v", []uint32{7, 7, 8, 9, 9})
	tiny.Add(f)
	b2 := bindQuery(t, tiny, `SELECT f_g, COUNT(DISTINCT f_v) FROM facts GROUP BY f_g`)
	res := Reference(b2, tiny)
	if len(res.Rows) != 2 || res.Rows[0].Aggs[0] != 2 || res.Rows[1].Aggs[0] != 1 {
		t.Fatalf("distinct counts wrong: %+v", res.Rows)
	}
	tcat := stats.Collect(tiny)
	p2, err := optimizer.Optimize(b2, tcat, 4096)
	if err != nil {
		t.Fatal(err)
	}
	cfg := withFlags(smallCape(), true, true, true)
	got2 := runCastle(t, cfg, p2, tiny, tcat, DefaultCastleOptions())
	if !res.Equal(got2) {
		t.Fatalf("castle distinct wrong: %+v", got2.Rows)
	}
}

// TestHybridRouting checks the §7.2/§7.3 dynamic-dispatch heuristics: small
// aggregations and joins run on CAPE, large-group aggregations and
// huge-dimension joins fall back to the CPU — and both paths return the
// reference answer.
func TestHybridRouting(t *testing.T) {
	database, cat := db(t)
	cfg := withFlags(smallCape(), true, true, true)
	route := func(p *plan.Physical) (*Outcome, Device) {
		t.Helper()
		dev := DecideDevice(p, cat, cfg, 0, 0)
		out, err := Execute(context.Background(), plan.Compile(p, dev), database,
			RunOptions{CAPE: cfg, Catalog: cat, Fusion: true})
		if err != nil {
			t.Fatal(err)
		}
		return out, dev
	}

	// Small group count -> CAPE.
	bound := bindQuery(t, database, `
		SELECT d_year, SUM(lo_revenue) FROM lineorder, date
		WHERE lo_orderdate = d_datekey GROUP BY d_year`)
	out, dev := route(optimize(t, bound, cat, cfg.MAXVL))
	if dev != DeviceCAPE || out.Device != "CAPE" {
		t.Fatalf("7-group aggregation routed to %v (%s), want CAPE", dev, out.Device)
	}
	if !Reference(bound, database).Equal(out.Result) {
		t.Fatal("hybrid CAPE path wrong result")
	}
	if out.Cycles <= 0 || out.Cycles != out.CAPECycles {
		t.Fatalf("CAPE run accounted %d cycles (%d on CAPE)", out.Cycles, out.CAPECycles)
	}

	// Group by a high-cardinality fact column -> CPU (Figure 12).
	bound2 := bindQuery(t, database, `
		SELECT lo_orderkey, SUM(lo_revenue) FROM lineorder GROUP BY lo_orderkey`)
	if g, _ := cat.GroupCardinality(bound2.Fact, bound2.GroupBy); g <= 5000 {
		t.Fatalf("estimated groups = %d, want > 5000", g)
	}
	out2, dev2 := route(optimize(t, bound2, cat, cfg.MAXVL))
	if dev2 != DeviceCPU || out2.Device != "CPU" {
		t.Fatalf("15K-group aggregation routed to %v (%s), want CPU", dev2, out2.Device)
	}
	if !Reference(bound2, database).Equal(out2.Result) {
		t.Fatal("hybrid CPU path wrong result")
	}
	if out2.Cycles <= 0 || out2.Cycles != out2.CPUCycles || out2.ClassShare != nil {
		t.Fatalf("CPU run accounted %d cycles (%d on CPU), class share %v", out2.Cycles, out2.CPUCycles, out2.ClassShare)
	}

	// Lowering the dimension threshold flips a join query to the CPU.
	bound3 := bindQuery(t, database, `
		SELECT SUM(lo_revenue) FROM lineorder, supplier WHERE lo_suppkey = s_suppkey`)
	p3 := optimize(t, bound3, cat, cfg.MAXVL)
	if d := DecideDevice(p3, cat, cfg, 0, 1); d != DeviceCPU {
		t.Fatalf("oversized dimension routed to %v, want CPU", d)
	}

	// A grouped SUM(a*b) cannot aggregate on CAPE: the router sends it to
	// the CPU and a forced CAPE placement is rejected with ErrUnsupported.
	bound4 := bindQuery(t, database, `
		SELECT d_year, SUM(lo_extendedprice * lo_discount) FROM lineorder, date
		WHERE lo_orderdate = d_datekey GROUP BY d_year`)
	p4 := optimize(t, bound4, cat, cfg.MAXVL)
	out4, dev4 := route(p4)
	if dev4 != DeviceCPU || !Reference(bound4, database).Equal(out4.Result) {
		t.Fatalf("grouped SUM(a*b) routed to %v", dev4)
	}
	_, err := Execute(context.Background(), plan.Compile(p4, DeviceCAPE), database,
		RunOptions{CAPE: cfg, Catalog: cat, Fusion: true})
	if !errors.Is(err, plan.ErrUnsupported) {
		t.Fatalf("forced CAPE grouped SUM(a*b): want ErrUnsupported, got %v", err)
	}
	if _, err := NewCastle(cape.New(cfg), cat, DefaultCastleOptions()).RunContext(context.Background(), p4, database); !errors.Is(err, plan.ErrUnsupported) {
		t.Fatalf("Castle.RunContext grouped SUM(a*b): want ErrUnsupported, got %v", err)
	}

	// Without the adaptive data layout CAPE aggregates the shape in one
	// layout: the router keeps it on CAPE and a forced CAPE run answers.
	base := withFlags(smallCape(), false, false, false)
	if d := DecideDevice(p4, cat, base, 0, 0); d != DeviceCAPE {
		t.Fatalf("grouped SUM(a*b) without ADL routed to %v, want CAPE", d)
	}
	out5, err := Execute(context.Background(), plan.Compile(p4, DeviceCAPE), database,
		RunOptions{CAPE: base, Catalog: cat, Fusion: true})
	if err != nil || out5.Device != "CAPE" || !Reference(bound4, database).Equal(out5.Result) {
		t.Fatalf("forced CAPE grouped SUM(a*b) without ADL: device %v, err %v", out5, err)
	}
}

// TestGroupedSumMulSplitTail: CAPE's tail over shipped tuples has no
// grouped SUM(a*b) kernel, whatever the engine's layout. A split plan that
// places the tail on CAPE is rejected; a split plan that keeps it on the
// CPU aggregates there even where a static split run would otherwise cross
// to CAPE (fact stage and tail on the CPU, a dimension built on CAPE).
func TestGroupedSumMulSplitTail(t *testing.T) {
	database, cat := db(t)
	bound := bindQuery(t, database, `
		SELECT d_year, SUM(lo_extendedprice * lo_discount) FROM lineorder, date
		WHERE lo_orderdate = d_datekey GROUP BY d_year`)
	want := Reference(bound, database)
	for _, cfg := range []cape.Config{withFlags(smallCape(), true, true, true), withFlags(smallCape(), false, false, false)} {
		p := optimize(t, bound, cat, cfg.MAXVL)
		onCAPE := map[string]plan.Device{"date": plan.DeviceCAPE}
		run := func(pp *plan.PlacedPlan, streaming bool) (*Outcome, error) {
			return Execute(context.Background(), pp, database,
				RunOptions{CAPE: cfg, Catalog: cat, Fusion: true, Streaming: streaming})
		}
		rejected := plan.Compile(p, plan.DeviceCPU).Place(plan.DeviceCPU, plan.DeviceCAPE, nil)
		if _, err := run(rejected, false); !errors.Is(err, plan.ErrUnsupported) {
			t.Fatalf("ADL=%v: CPU fact stage + CAPE tail: want ErrUnsupported, got %v", cfg.EnableADL, err)
		}
		for _, streaming := range []bool{false, true} {
			pp := plan.Compile(p, plan.DeviceCPU).Place(plan.DeviceCPU, plan.DeviceCPU, onCAPE)
			out, err := run(pp, streaming)
			if err != nil {
				t.Fatalf("ADL=%v streaming=%v: %v", cfg.EnableADL, streaming, err)
			}
			if !want.Equal(out.Result) {
				t.Fatalf("ADL=%v streaming=%v: wrong answer %v", cfg.EnableADL, streaming, out.Result.Rows)
			}
			var tail string
			for _, o := range out.Breakdown.Operators {
				if o.Operator == "aggregate" {
					tail = o.Device
				}
			}
			if tail != "CPU" || out.Device != "CAPE+CPU" {
				t.Fatalf("ADL=%v streaming=%v: tail on %q, run on %s; want the CPU tail of a CAPE+CPU run",
					cfg.EnableADL, streaming, tail, out.Device)
			}
		}
	}
}
