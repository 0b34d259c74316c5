package exec

// fuzz_test.go generates random star schemas and random SQL queries over
// them, then requires the reference engine, the baseline CPU executor, and
// the Castle/CAPE executor (under randomized CAPE configurations and plan
// shapes) to return identical relations, and the CAPE executor's group
// fast path to bill exactly what the literal Algorithm 2 loop bills. This
// drives the whole pipeline — lexer, parser, binder, optimizer, executors —
// through input shapes the SSB suite does not cover.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"castle/internal/baseline"
	"castle/internal/cape"
	"castle/internal/optimizer"
	"castle/internal/plan"
	"castle/internal/sql"
	"castle/internal/stats"
	"castle/internal/storage"
)

type fuzzSchema struct {
	db   *storage.Database
	dims []fuzzDim
	// fact columns by role
	fks      []string // fk column i joins dims[i]
	intCols  []string // small-valued measure columns
	wideCols []string // wider-valued measure columns
}

type fuzzDim struct {
	name    string
	keyCol  string
	intAttr string
	strAttr string
	rows    int
}

var fuzzStrings = []string{"ALPHA", "BETA", "GAMMA", "DELTA", "EPSILON", "ZETA"}

func genSchema(rng *rand.Rand) fuzzSchema {
	db := storage.NewDatabase()
	nDims := 1 + rng.Intn(3)
	s := fuzzSchema{db: db}

	for d := 0; d < nDims; d++ {
		rows := 1 + rng.Intn(60)
		name := fmt.Sprintf("dim%d", d)
		keys := make([]uint32, rows)
		intAttr := make([]uint32, rows)
		strAttr := make([]string, rows)
		for i := range keys {
			keys[i] = uint32(i + 1)
			intAttr[i] = uint32(rng.Intn(8))
			strAttr[i] = fuzzStrings[rng.Intn(len(fuzzStrings))]
		}
		t := storage.NewTable(name)
		kc := fmt.Sprintf("d%d_key", d)
		ic := fmt.Sprintf("d%d_class", d)
		sc := fmt.Sprintf("d%d_label", d)
		t.AddIntColumn(kc, keys)
		t.AddIntColumn(ic, intAttr)
		t.AddStringColumn(sc, strAttr)
		db.Add(t)
		s.dims = append(s.dims, fuzzDim{name: name, keyCol: kc, intAttr: ic, strAttr: sc, rows: rows})
	}

	factRows := 200 + rng.Intn(3000)
	fact := storage.NewTable("fact")
	for d, dim := range s.dims {
		// Some schemas include dangling foreign keys (values with no
		// dimension row); inner-join semantics must drop those rows.
		keyRange := dim.rows
		if rng.Intn(3) == 0 {
			keyRange += 1 + rng.Intn(10)
		}
		fk := make([]uint32, factRows)
		for i := range fk {
			fk[i] = uint32(1 + rng.Intn(keyRange))
		}
		col := fmt.Sprintf("f_fk%d", d)
		fact.AddIntColumn(col, fk)
		s.fks = append(s.fks, col)
	}
	for m := 0; m < 2; m++ {
		small := make([]uint32, factRows)
		wide := make([]uint32, factRows)
		for i := range small {
			small[i] = uint32(rng.Intn(1 << 10)) // products stay in 32 bits
			wide[i] = uint32(rng.Intn(1 << 20))
		}
		sc := fmt.Sprintf("f_small%d", m)
		wc := fmt.Sprintf("f_wide%d", m)
		fact.AddIntColumn(sc, small)
		fact.AddIntColumn(wc, wide)
		s.intCols = append(s.intCols, sc)
		s.wideCols = append(s.wideCols, wc)
	}
	db.Add(fact)
	return s
}

// genQuery builds a random SQL query over the schema. joined reports which
// dimensions participate.
func genQuery(rng *rand.Rand, s fuzzSchema) string {
	nJoin := rng.Intn(len(s.dims) + 1)
	joined := rng.Perm(len(s.dims))[:nJoin]

	var sel []string
	var groupBy []string
	var where []string
	tables := []string{"fact"}

	for _, d := range joined {
		dim := s.dims[d]
		tables = append(tables, dim.name)
		where = append(where, fmt.Sprintf("%s = %s", s.fks[d], dim.keyCol))
		// Dimension predicates.
		switch rng.Intn(4) {
		case 0:
			where = append(where, fmt.Sprintf("%s = %d", dim.intAttr, rng.Intn(10)))
		case 1:
			where = append(where, fmt.Sprintf("%s = '%s'", dim.strAttr, randFuzzString(rng)))
		case 2:
			where = append(where, fmt.Sprintf("(%s = '%s' OR %s = '%s')",
				dim.strAttr, randFuzzString(rng), dim.strAttr, randFuzzString(rng)))
		}
		// Group by a dimension attribute sometimes.
		if rng.Intn(2) == 0 && len(groupBy) < 2 {
			col := dim.intAttr
			if rng.Intn(2) == 0 {
				col = dim.strAttr
			}
			groupBy = append(groupBy, col)
			sel = append(sel, col)
		}
	}

	// Fact predicates.
	for i := 0; i < rng.Intn(3); i++ {
		col := s.wideCols[rng.Intn(len(s.wideCols))]
		switch rng.Intn(4) {
		case 0:
			where = append(where, fmt.Sprintf("%s < %d", col, rng.Intn(1<<20)))
		case 1:
			where = append(where, fmt.Sprintf("%s >= %d", col, rng.Intn(1<<20)))
		case 2:
			lo := rng.Intn(1 << 19)
			where = append(where, fmt.Sprintf("%s BETWEEN %d AND %d", col, lo, lo+rng.Intn(1<<19)))
		case 3:
			where = append(where, fmt.Sprintf("%s IN (%d, %d, %d)",
				col, rng.Intn(1<<20), rng.Intn(1<<20), rng.Intn(1<<20)))
		}
	}

	// Aggregates.
	switch rng.Intn(8) {
	case 0:
		sel = append(sel, fmt.Sprintf("SUM(%s)", s.wideCols[0]))
	case 1:
		sel = append(sel, fmt.Sprintf("SUM(%s * %s)", s.intCols[0], s.intCols[1]))
		if len(groupBy) > 0 {
			// GROUP BY with vv-arithmetic aggregates is outside the
			// supported (and SSB's) shape; fall back to a plain sum.
			sel[len(sel)-1] = fmt.Sprintf("SUM(%s)", s.intCols[0])
		}
	case 2:
		sel = append(sel, fmt.Sprintf("SUM(%s - %s)", s.wideCols[0], s.wideCols[0]))
	case 3:
		sel = append(sel, fmt.Sprintf("COUNT(%s)", s.wideCols[0]))
	case 4:
		sel = append(sel, fmt.Sprintf("MIN(%s)", s.wideCols[rng.Intn(len(s.wideCols))]))
	case 5:
		sel = append(sel, fmt.Sprintf("MAX(%s)", s.wideCols[rng.Intn(len(s.wideCols))]))
	case 6:
		sel = append(sel, fmt.Sprintf("AVG(%s)", s.wideCols[rng.Intn(len(s.wideCols))]))
	case 7:
		sel = append(sel, fmt.Sprintf("COUNT(DISTINCT %s)", s.intCols[rng.Intn(len(s.intCols))]))
	}

	q := "SELECT " + strings.Join(sel, ", ") + " FROM " + strings.Join(tables, ", ")
	if len(where) > 0 {
		q += " WHERE " + strings.Join(where, " AND ")
	}
	if len(groupBy) > 0 {
		q += " GROUP BY " + strings.Join(groupBy, ", ")
		if rng.Intn(4) == 0 {
			q += fmt.Sprintf(" ORDER BY %s LIMIT %d", groupBy[0], 1+rng.Intn(5))
		}
	}
	return q
}

func randFuzzString(rng *rand.Rand) string {
	// Occasionally a value that is absent from every dictionary, to
	// exercise Never predicates.
	if rng.Intn(5) == 0 {
		return "NO_SUCH_VALUE"
	}
	return fuzzStrings[rng.Intn(len(fuzzStrings))]
}

func randCapeConfig(rng *rand.Rand) cape.Config {
	cfg := cape.DefaultConfig()
	cfg.MAXVL = []int{256, 1024, 4096}[rng.Intn(3)]
	cfg.EnableADL = rng.Intn(2) == 0
	cfg.EnableMKS = cfg.EnableADL && rng.Intn(2) == 0
	cfg.EnableABA = rng.Intn(2) == 0
	cfg.MKSBufferBytes = []int{64, 512, 2048}[rng.Intn(3)]
	return cfg
}

func TestFuzzEnginesAgree(t *testing.T) {
	iters := 60
	if testing.Short() {
		iters = 10
	}
	rng := rand.New(rand.NewSource(0xCA57))
	for i := 0; i < iters; i++ {
		s := genSchema(rng)
		qsql := genQuery(rng, s)
		t.Run(fmt.Sprintf("q%02d", i), func(t *testing.T) {
			stmt, err := sql.Parse(qsql)
			if err != nil {
				t.Fatalf("parse %q: %v", qsql, err)
			}
			bound, err := plan.Bind(stmt, s.db)
			if err != nil {
				t.Fatalf("bind %q: %v", qsql, err)
			}

			want := Reference(bound, s.db)

			cpuRes := NewCPUExec(baseline.New(baseline.DefaultConfig())).Run(bound, s.db)
			if !want.Equal(cpuRes) {
				t.Fatalf("baseline differs on %q\nref:\n%s\ncpu:\n%s",
					qsql, want.Format(s.db), cpuRes.Format(s.db))
			}

			cat := stats.Collect(s.db)
			for variant := 0; variant < 2; variant++ {
				cfg := randCapeConfig(rng)
				p, err := optimizer.Optimize(bound, cat, cfg.MAXVL)
				if err != nil {
					t.Fatalf("optimize %q: %v", qsql, err)
				}
				opts := DefaultCastleOptions()
				opts.Fusion = rng.Intn(2) == 0
				eng := cape.New(cfg)
				got := NewCastle(eng, cat, opts).Run(p, s.db)
				if !want.Equal(got) {
					t.Fatalf("castle differs on %q (cfg %v, plan %v)\nref:\n%s\ncastle:\n%s",
						qsql, cfg, p, want.Format(s.db), got.Format(s.db))
				}
				// The literal Algorithm 2 loop on the same plan and config
				// must agree with the fast path on rows and accounting.
				opts.NoBulkAggFastPath = true
				litEng := cape.New(cfg)
				lit := NewCastle(litEng, cat, opts).Run(p, s.db)
				if !got.Equal(lit) {
					t.Fatalf("literal loop differs on %q (cfg %v, plan %v)\nfast path:\n%s\nliteral loop:\n%s",
						qsql, cfg, p, got.Format(s.db), lit.Format(s.db))
				}
				if d := statsMismatch(eng.Stats(), litEng.Stats()); d != "" {
					t.Fatalf("fast path vs literal loop on %q (cfg %v, plan %v): %s", qsql, cfg, p, d)
				}
			}
		})
	}
}
