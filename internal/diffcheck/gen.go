package diffcheck

// gen.go is the randomized query generator. Every query is a pure function
// of (corpus, seed): Generate builds a fresh math/rand stream from the seed
// and draws the query shape from it, so any reported failure replays
// exactly. The grammar covers random join subsets (including none), all
// predicate operators (EQ/NE/LT/LE/GT/GE/BETWEEN/IN plus statically-false
// Never predicates), 0–2 group-by columns drawn from dimension attributes
// and low-cardinality fact columns, 1–3 aggregates over the full vocabulary
// (SUM, COUNT, MIN, MAX, AVG, COUNT DISTINCT, and the vv-arithmetic
// SUM(a*b)/SUM(a-b) shapes), and optional ORDER BY / LIMIT.
//
// Two deliberate holes mirror the modeled hardware's domain. SUM(a*b)
// never coexists with GROUP BY — the Castle executor rejects that shape by
// design (outside SSB; see Castle.RunContext). And SUM(a*b) only draws
// from pairs whose per-row product fits 32 bits: CAPE's vmul.vv writes
// 32-bit lanes (truncating, as the hardware would), while the scalar
// engines multiply in int64, so an out-of-domain pair is a guaranteed
// false positive, not a bug. SSB's own arithmetic respects the same bound.

import (
	"math/rand"

	"castle/internal/plan"
	"castle/internal/storage"
)

// Generate returns the random query for a seed over this corpus.
func (c *Corpus) Generate(seed int64) *plan.Query {
	rng := rand.New(rand.NewSource(seed))
	q := &plan.Query{
		Fact:     "lineorder",
		DimPreds: map[string][]plan.Predicate{},
	}

	// Join a random subset of the dimensions, in random order.
	for _, di := range rng.Perm(len(c.dims)) {
		if rng.Intn(2) == 0 {
			continue
		}
		d := c.dims[di]
		q.Joins = append(q.Joins, plan.JoinEdge{Dim: d.table, FactFK: d.factFK, DimKey: d.key})
		// 0-2 predicates on this dimension's attributes.
		for n := rng.Intn(3); n > 0; n-- {
			col := d.attrs[rng.Intn(len(d.attrs))]
			q.DimPreds[d.table] = append(q.DimPreds[d.table],
				c.randPredicate(rng, d.table, col))
		}
	}

	// GROUP BY: up to two columns, from joined dimensions' attributes or
	// the low-cardinality fact columns. Dimension group columns must be
	// materialized by their join edge.
	nGroup := rng.Intn(3)
	for g := 0; g < nGroup; g++ {
		if len(q.Joins) > 0 && rng.Intn(3) != 0 {
			e := &q.Joins[rng.Intn(len(q.Joins))]
			d := c.dimSpecFor(e.Dim)
			col := d.attrs[rng.Intn(len(d.attrs))]
			if q.HasGroupCol(e.Dim, col) {
				continue
			}
			e.NeedAttrs = appendUnique(e.NeedAttrs, col)
			q.GroupBy = append(q.GroupBy, plan.ColRef{Table: e.Dim, Column: col})
		} else {
			col := c.factGroupCols[rng.Intn(len(c.factGroupCols))]
			if q.HasGroupCol(q.Fact, col) {
				continue
			}
			q.GroupBy = append(q.GroupBy, plan.ColRef{Table: q.Fact, Column: col})
		}
	}

	// Occasionally materialize an attribute nobody groups by (executors
	// must carry it without corrupting anything; the shrinker prunes it).
	if len(q.Joins) > 0 && rng.Intn(5) == 0 {
		e := &q.Joins[rng.Intn(len(q.Joins))]
		d := c.dimSpecFor(e.Dim)
		e.NeedAttrs = appendUnique(e.NeedAttrs, d.attrs[rng.Intn(len(d.attrs))])
	}

	// 0-2 fact predicates.
	for n := rng.Intn(3); n > 0; n-- {
		col := c.factPredCols[rng.Intn(len(c.factPredCols))]
		q.FactPreds = append(q.FactPreds, c.randPredicate(rng, q.Fact, col))
	}

	// 1-3 aggregates.
	nAggs := 1 + rng.Intn(3)
	for a := 0; a < nAggs; a++ {
		q.Aggs = append(q.Aggs, c.randAgg(rng, len(q.GroupBy) > 0))
	}

	// ORDER BY (over group keys and aggregate outputs) and LIMIT.
	if rng.Intn(5) < 2 {
		for n := 1 + rng.Intn(2); n > 0; n-- {
			t := plan.OrderTerm{KeyIdx: -1, AggIdx: -1, Desc: rng.Intn(2) == 0}
			if len(q.GroupBy) > 0 && rng.Intn(2) == 0 {
				t.KeyIdx = rng.Intn(len(q.GroupBy))
			} else {
				t.AggIdx = rng.Intn(len(q.Aggs))
			}
			q.OrderBy = append(q.OrderBy, t)
		}
	}
	if rng.Intn(4) == 0 {
		q.Limit = 1 + rng.Intn(8)
	}
	return q
}

// randPredicate draws a predicate over the column's observed [Min, Max]
// domain — occasionally straying outside it (empty or full matches) or
// emitting a statically-false Never predicate, both shapes the binder
// produces for out-of-dictionary string literals.
func (c *Corpus) randPredicate(rng *rand.Rand, table, col string) plan.Predicate {
	cc := c.DB.MustTable(table).MustColumn(col)
	p := plan.Predicate{Table: table, Column: col}
	if rng.Intn(20) == 0 {
		p.Never = true
		return p
	}
	span := int64(cc.Max) - int64(cc.Min) + 1
	pick := func() uint32 {
		v := int64(cc.Min) + rng.Int63n(span)
		if rng.Intn(12) == 0 {
			v += span / 2 // may exceed Max: matches nothing for EQ, everything for LE
		}
		return uint32(v)
	}
	switch rng.Intn(8) {
	case 0:
		p.Op, p.Value = plan.PredEQ, pick()
	case 1:
		p.Op, p.Value = plan.PredNE, pick()
	case 2:
		p.Op, p.Value = plan.PredLT, pick()
	case 3:
		p.Op, p.Value = plan.PredLE, pick()
	case 4:
		p.Op, p.Value = plan.PredGT, pick()
	case 5:
		p.Op, p.Value = plan.PredGE, pick()
	case 6:
		p.Op = plan.PredBetween
		a, b := pick(), pick()
		if a > b {
			a, b = b, a
		}
		p.Lo, p.Hi = a, b
	default:
		p.Op = plan.PredIn
		for n := 1 + rng.Intn(4); n > 0; n-- {
			p.Values = append(p.Values, pick())
		}
	}
	return p
}

// randAgg draws one aggregate expression. vv-multiply is excluded under
// GROUP BY (unsupported by the CAPE executor, by design) and restricted to
// 32-bit-safe column pairs (see the package doc hole list).
func (c *Corpus) randAgg(rng *rand.Rand, grouped bool) plan.AggExpr {
	m := func() string { return c.measures[rng.Intn(len(c.measures))] }
	for {
		switch rng.Intn(8) {
		case 0:
			return plan.AggExpr{Kind: plan.AggSumCol, A: m()}
		case 1:
			if grouped {
				continue
			}
			pr := c.mulPairs[rng.Intn(len(c.mulPairs))]
			return plan.AggExpr{Kind: plan.AggSumMul, A: pr[0], B: pr[1]}
		case 2:
			pr := c.subPairs[rng.Intn(len(c.subPairs))]
			return plan.AggExpr{Kind: plan.AggSumSub, A: pr[0], B: pr[1]}
		case 3:
			return plan.AggExpr{Kind: plan.AggCount}
		case 4:
			return plan.AggExpr{Kind: plan.AggMin, A: m()}
		case 5:
			return plan.AggExpr{Kind: plan.AggMax, A: m()}
		case 6:
			return plan.AggExpr{Kind: plan.AggAvg, A: m()}
		default:
			return plan.AggExpr{Kind: plan.AggCountDistinct, A: m()}
		}
	}
}

func (c *Corpus) dimSpecFor(table string) dimSpec {
	for _, d := range c.dims {
		if d.table == table {
			return d
		}
	}
	panic("diffcheck: unknown dimension " + table)
}

func appendUnique(s []string, v string) []string {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}

// column is a small helper for tests.
func column(db *storage.Database, table, col string) *storage.Column {
	return db.MustTable(table).MustColumn(col)
}
