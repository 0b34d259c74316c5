package experiments

import (
	"context"
	"fmt"

	"castle/internal/baseline"
	"castle/internal/cape"
	"castle/internal/exec"
	"castle/internal/optimizer"
	"castle/internal/plan"
	"castle/internal/sql"
	"castle/internal/stats"
	"castle/internal/storage"
)

// MicroPoint is one point of a microbenchmark sweep.
type MicroPoint struct {
	// Sweep coordinates (meaning depends on the benchmark).
	X, Series int
	// CastleCycles / BaselineCycles at the point; CastleNoOptCycles is the
	// Figure 11 dashed line (no §5 microarchitectural optimizations).
	CastleCycles      int64
	CastleNoOptCycles int64
	BaselineCycles    int64
	// HybridCycles is the dynamically routed engine's cost (0 when the
	// sweep does not evaluate the hybrid), and HybridDevice names its
	// choice.
	HybridCycles int64
	HybridDevice string
}

// HybridSpeedup is baseline/hybrid.
func (p MicroPoint) HybridSpeedup() float64 {
	if p.HybridCycles == 0 {
		return 0
	}
	return float64(p.BaselineCycles) / float64(p.HybridCycles)
}

// Speedup is baseline/castle.
func (p MicroPoint) Speedup() float64 {
	if p.CastleCycles == 0 {
		return 0
	}
	return float64(p.BaselineCycles) / float64(p.CastleCycles)
}

// SpeedupNoOpt is baseline/castle without the §5 optimizations.
func (p MicroPoint) SpeedupNoOpt() float64 {
	if p.CastleNoOptCycles == 0 {
		return 0
	}
	return float64(p.BaselineCycles) / float64(p.CastleNoOptCycles)
}

// microDB builds a two-table star database for the join and aggregation
// microbenchmarks. Fact foreign keys are uniform over the dimension keys.
func microDB(factRows, dimRows int, seed uint64) *storage.Database {
	db := storage.NewDatabase()

	dimKey := make([]uint32, dimRows)
	for i := range dimKey {
		dimKey[i] = uint32(i + 1)
	}
	dim := storage.NewTable("dim")
	dim.AddIntColumn("d_key", dimKey)
	db.Add(dim)

	r := microRNG(seed)
	fk := make([]uint32, factRows)
	val := make([]uint32, factRows)
	for i := range fk {
		fk[i] = uint32(1 + r.intn(dimRows))
		val[i] = uint32(r.intn(1000))
	}
	fact := storage.NewTable("fact")
	fact.AddIntColumn("f_key", fk)
	fact.AddIntColumn("f_val", val)
	db.Add(fact)
	return db
}

type microRand struct{ s uint64 }

func microRNG(seed uint64) *microRand { return &microRand{s: seed | 1} }

func (r *microRand) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *microRand) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// JoinMicro reproduces Figure 11: a semi-join of fact and dimension with
// the dimension size swept. Series = fact rows; X = dimension rows. The
// optimized Castle uses the full §5 feature set; the non-optimized Castle
// is unmodified CAPE (GP-mode searches, no vmks); both use the AP-aware
// plan. The baseline is the optimized hash semi-join.
func JoinMicro(factRows int, dimRows []int) []MicroPoint {
	out := make([]MicroPoint, 0, len(dimRows))
	for _, dr := range dimRows {
		db := microDB(factRows, dr, uint64(factRows)*31+uint64(dr))
		cat := stats.Collect(db)
		q := mustBind(db, `SELECT COUNT(f_val) FROM fact, dim WHERE f_key = d_key`)
		p, err := optimizer.Optimize(q, cat, 32768)
		if err != nil {
			panic(err)
		}

		run := func(cfg cape.Config) (int64, *exec.Result) {
			eng := cape.New(cfg)
			res := exec.NewCastle(eng, cat, exec.DefaultCastleOptions()).Run(p, db)
			return eng.Stats().TotalCycles(), res
		}
		opt, optRes := run(cape.DefaultConfig().WithEnhancements())
		noopt, nooptRes := run(cape.DefaultConfig())

		cpu := baseline.New(baseline.DefaultConfig())
		cpuRes := exec.NewCPUExec(cpu).Run(q, db)

		ref := exec.Reference(q, db)
		if !ref.Equal(optRes) || !ref.Equal(nooptRes) || !ref.Equal(cpuRes) {
			panic(fmt.Sprintf("join micro: result mismatch at fact=%d dim=%d", factRows, dr))
		}
		out = append(out, MicroPoint{
			X: dr, Series: factRows,
			CastleCycles:      opt,
			CastleNoOptCycles: noopt,
			BaselineCycles:    cpu.Cycles(),
		})
	}
	return out
}

// aggMicroDB builds a single-table database with a controlled number of
// distinct groups.
func aggMicroDB(rows, groups int, seed uint64) *storage.Database {
	db := storage.NewDatabase()
	r := microRNG(seed)
	g := make([]uint32, rows)
	v := make([]uint32, rows)
	for i := range g {
		g[i] = uint32(r.intn(groups))
		v[i] = uint32(r.intn(100))
	}
	t := storage.NewTable("fact")
	t.AddIntColumn("f_group", g)
	t.AddIntColumn("f_val", v)
	db.Add(t)
	return db
}

// AggregationMicro reproduces Figure 12: a grouped sum with the number of
// unique groups swept. Series = input rows; X = groups.
func AggregationMicro(rows int, groups []int) []MicroPoint {
	out := make([]MicroPoint, 0, len(groups))
	for _, g := range groups {
		db := aggMicroDB(rows, g, uint64(rows)*7+uint64(g))
		cat := stats.Collect(db)
		q := mustBind(db, `SELECT f_group, SUM(f_val) FROM fact GROUP BY f_group`)
		p, err := optimizer.Optimize(q, cat, 32768)
		if err != nil {
			panic(err)
		}

		eng := cape.New(cape.DefaultConfig().WithEnhancements())
		castleRes := exec.NewCastle(eng, cat, exec.DefaultCastleOptions()).Run(p, db)

		cpu := baseline.New(baseline.DefaultConfig())
		cpuRes := exec.NewCPUExec(cpu).Run(q, db)

		if !castleRes.Equal(cpuRes) {
			panic(fmt.Sprintf("aggregation micro: result mismatch at rows=%d groups=%d", rows, g))
		}

		// The hybrid router (§7.3: "such aggregates are better evaluated
		// on the CPU") picks per point.
		hcfg := cape.DefaultConfig().WithEnhancements()
		hybrid, err := exec.Execute(context.Background(), plan.Compile(p, exec.DecideDevice(p, cat, hcfg, 0, 0)), db,
			exec.RunOptions{CAPE: hcfg, Catalog: cat, Fusion: true})
		if err != nil {
			panic(err)
		}
		if !hybrid.Result.Equal(cpuRes) {
			panic("aggregation micro: hybrid result mismatch")
		}
		out = append(out, MicroPoint{
			X: g, Series: rows,
			CastleCycles:   eng.Stats().TotalCycles(),
			BaselineCycles: cpu.Cycles(),
			HybridCycles:   hybrid.Cycles,
			HybridDevice:   hybrid.Device,
		})
	}
	return out
}

// SelectionMicro reproduces the §7.1 sweep: an equality selection over a
// 32-bit column, varying input size and selectivity. X = rows; Series =
// selectivity in percent. Both engines produce a bitmask.
func SelectionMicro(rows []int, selectivityPct []int) []MicroPoint {
	var out []MicroPoint
	for _, n := range rows {
		for _, sel := range selectivityPct {
			// A column where `value == 0` matches sel% of rows.
			r := microRNG(uint64(n)*13 + uint64(sel))
			col := make([]uint32, n)
			for i := range col {
				if r.intn(100) < sel {
					col[i] = 0
				} else {
					col[i] = uint32(1 + r.intn(1000))
				}
			}

			// Castle: per-partition load + search, mask written back.
			cfg := cape.DefaultConfig().WithEnhancements()
			eng := cape.New(cfg)
			eng.SetLayout(cape.CAMMode)
			matches := 0
			for base := 0; base < n; base += cfg.MAXVL {
				vl := n - base
				if vl > cfg.MAXVL {
					vl = cfg.MAXVL
				}
				eng.SetVL(vl)
				eng.Load(0, col[base:base+vl], 0)
				m := eng.Search(0, 0)
				matches += m.Count()
				eng.ChargeStreamWrite(int64((vl + 7) / 8)) // result bitmask
				eng.Scalar(6)
			}

			cpu := baseline.New(baseline.DefaultConfig())
			cm := cpu.SelectionScan(col, func(v uint32) bool { return v == 0 })
			if cm.Count() != matches {
				panic("selection micro: result mismatch")
			}
			out = append(out, MicroPoint{
				X: n, Series: sel,
				CastleCycles:   eng.Stats().TotalCycles(),
				BaselineCycles: cpu.Cycles(),
			})
		}
	}
	return out
}

func mustBind(db *storage.Database, qsql string) *plan.Query {
	stmt, err := sql.Parse(qsql)
	if err != nil {
		panic(err)
	}
	q, err := plan.Bind(stmt, db)
	if err != nil {
		panic(err)
	}
	return q
}
