package exec

// shared_cape.go runs a multi-query shared scan (plan.SharedScan) on one
// CAPE engine: each MAXVL fact morsel is loaded into the CSB once — the
// union of every member's fact columns — and then evaluated against every
// member's predicate sets, joins and aggregation tail before the sweep
// advances. Member results are bit-identical to solo execution because each
// member runs its unmodified operator pipeline; only the column loads are
// shared. The shared load cycles are charged once and attributed pro-rata
// across members with a largest-remainder split, so per-member cycle totals
// still partition the engine's group total exactly.

import (
	"context"
	"fmt"

	"castle/internal/cape"
	"castle/internal/plan"
	"castle/internal/stats"
	"castle/internal/storage"
	"castle/internal/telemetry"
)

// SharedMemberResult is one member query's outcome of a fused group run:
// its result relation (bit-identical to solo execution), its attributed
// cycle total, and a per-operator breakdown whose rows partition Cycles
// exactly (including an explicit "shared-scan" row for this member's share
// of the fused column loads).
type SharedMemberResult struct {
	Result    *Result
	Cycles    int64
	Breakdown *telemetry.Breakdown
}

// SharedStats summarizes a fused group run. SharedScanCycles is the fused
// column-load work charged once for the whole group; TotalCycles is the
// engine's end-to-end delta, which equals the sum of the members' attributed
// Cycles exactly.
type SharedStats struct {
	SharedScanCycles int64
	TotalCycles      int64
	Members          int
}

// CAPESharedEligible reports whether the member plans can run as one fused
// CAPE sweep: every member sweeps the same fact table, no member needs
// GP-mode vv arithmetic (SUM(a*b) relayouts the CSB mid-partition, which
// would invalidate the shared resident columns), and the union of member
// columns plus the widest member's scratch registers fits the CSB register
// file. A nil error means the group may fuse; callers fall back to solo
// execution otherwise.
func CAPESharedEligible(plans []*plan.Physical, cfg cape.Config) error {
	ss, err := plan.NewSharedScan(plans)
	if err != nil {
		return err
	}
	for i, p := range plans {
		if p.Query.HasSumMul() {
			return fmt.Errorf("exec: shared CAPE sweep: member %d needs GP-mode SUM(a*b) arithmetic", i)
		}
	}
	union := len(ss.SharedColumns())
	maxScratch := 0
	for _, p := range plans {
		scratch := 0
		for di, e := range p.Joins {
			if di < p.Switch {
				// Right-deep probe: one fact-aligned target per needed attr.
				scratch += len(e.NeedAttrs)
			} else {
				// Left-deep probe: key register + per-attr source and target.
				scratch += 1 + 2*len(e.NeedAttrs)
			}
		}
		if scratch > maxScratch {
			maxScratch = scratch
		}
	}
	if union+maxScratch > cfg.NumVRegs {
		return fmt.Errorf("exec: shared CAPE sweep: %d union columns + %d scratch registers exceed %d CSB registers",
			union, maxScratch, cfg.NumVRegs)
	}
	return nil
}

// RunSharedCAPE executes the member plans as one fused fact sweep on eng.
// The group runs serially on the single engine (a group already amortizes
// the scan; it takes one device lease, not N). Cancellation is checked at
// every member-phase boundary within each morsel.
func RunSharedCAPE(ctx context.Context, eng *cape.Engine, cat *stats.Catalog, opts CastleOptions,
	plans []*plan.Physical, db *storage.Database) ([]SharedMemberResult, SharedStats, error) {

	if ctx == nil {
		ctx = context.Background()
	}
	ss, err := plan.NewSharedScan(plans)
	if err != nil {
		return nil, SharedStats{}, err
	}
	if err := CAPESharedEligible(plans, eng.Config()); err != nil {
		return nil, SharedStats{}, err
	}

	n := len(plans)
	cfg := eng.Config()
	camCapable := cfg.EnableADL
	runStart := eng.TotalCycles()
	if camCapable {
		eng.SetLayout(cape.CAMMode)
	}

	// Per-member sweep books share the one engine; each member's accumulator,
	// per-join attribution and exclusive-cycle tally stay separate.
	sweeps := make([]*tileSweep, n)
	dims := make([][]dimSide, n)
	prepCycles := make([]map[string]int64, n)
	prepRows := make([]map[string]int64, n)
	exclusive := make([]int64, n)
	for i, p := range plans {
		q := p.Query
		sweeps[i] = &tileSweep{cat: cat, opts: opts, eng: eng, acc: newGroupAcc(q.Aggs),
			perJoin: make(map[string]int64, len(p.Joins))}
		dims[i] = make([]dimSide, len(p.Joins))
		prepCycles[i] = make(map[string]int64, len(p.Joins))
		prepRows[i] = make(map[string]int64, len(p.Joins))
		for j, e := range p.Joins {
			if err := ctx.Err(); err != nil {
				return nil, SharedStats{}, err
			}
			before := eng.TotalCycles()
			dims[i][j] = capePrepareDim(eng, cat, q, e, db)
			prepCycles[i][e.Dim] = eng.TotalCycles() - before
			prepRows[i][e.Dim] = int64(len(dims[i][j].keys))
			exclusive[i] += eng.TotalCycles() - before
		}
	}

	fact := db.MustTable(ss.Fact)
	factRows := fact.Rows()
	maxvl := cfg.MAXVL
	parts := (factRows + maxvl - 1) / maxvl
	cols := ss.SharedColumns()

	var sharedCycles int64
	for base := 0; base < factRows; base += maxvl {
		if err := ctx.Err(); err != nil {
			return nil, SharedStats{}, err
		}
		vl := factRows - base
		if vl > maxvl {
			vl = maxvl
		}
		eng.SetVL(vl)

		// Fused scan: load the member union of fact columns once per morsel.
		regs := newRegAlloc(cfg.NumVRegs)
		sharedBefore := eng.TotalCycles()
		for _, name := range cols {
			r, cached := regs.forCol(name)
			if !cached {
				col := fact.MustColumn(name)
				eng.Load(r, col.Data[base:base+vl], colWidth(cat, ss.Fact, name))
			}
		}
		sharedCycles += eng.TotalCycles() - sharedBefore
		mark := regs.next
		loadFactCol := func(name string) cape.VReg {
			r, cached := regs.forCol(name)
			if !cached {
				panic("exec: shared sweep column not preloaded: " + ss.Fact + "." + name)
			}
			return r
		}

		// Evaluate every member against the resident morsel. Each member's
		// scratch registers (join attribute vectors, probe keys) allocate past
		// the preloaded union and are released afterwards — member phases never
		// add byCol entries, since every member column load hits the union.
		for i, p := range plans {
			s := sweeps[i]
			before := eng.TotalCycles()
			rowMask, attrRegs, err := s.runFilterJoinsWith(ctx, p, db, dims[i], base, vl, regs, loadFactCol)
			if err != nil {
				return nil, SharedStats{}, err
			}
			if err := s.runAggregate(ctx, p, db, base, vl, rowMask, regs, attrRegs,
				loadFactCol, false, camCapable); err != nil {
				return nil, SharedStats{}, err
			}
			exclusive[i] += eng.TotalCycles() - before
			regs.next = mark
		}
		if camCapable {
			eng.SetLayout(cape.CAMMode)
		}
	}

	if !opts.Fusion {
		for i, p := range plans {
			before := eng.TotalCycles()
			sweeps[i].chargeFissionOverhead(p, parts, maxvl)
			exclusive[i] += eng.TotalCycles() - before
		}
	}

	total := eng.TotalCycles() - runStart
	var sumExclusive int64
	for _, e := range exclusive {
		sumExclusive += e
	}
	// Residual: layout switches, vsetvl, inter-phase scalars — everything
	// outside the shared-load and member-exclusive regions. Attributed
	// pro-rata like the shared scan so member totals partition the group run.
	residual := total - sharedCycles - sumExclusive

	// share splits a group-level cycle term across members exactly (largest
	// remainder by member index): the first total%n members get one extra.
	share := func(t int64, i int) int64 {
		s := t / int64(n)
		if int64(i) < t%int64(n) {
			s++
		}
		return s
	}

	out := make([]SharedMemberResult, n)
	for i, p := range plans {
		q := p.Query
		s := sweeps[i]
		if len(q.GroupBy) == 0 && len(s.acc.order) == 0 {
			s.acc.add(nil, make([]int64, len(q.Aggs)), 0)
		}
		res := s.acc.result(q)
		cycles := exclusive[i] + share(sharedCycles, i) + share(residual, i)

		b := &telemetry.Breakdown{Device: "CAPE", TotalCycles: cycles}
		var covered int64
		for _, e := range p.Joins {
			cy := prepCycles[i][e.Dim]
			b.Operators = append(b.Operators, telemetry.OperatorStats{
				Operator: "prep:" + e.Dim, Device: "CAPE", Cycles: cy, Rows: prepRows[i][e.Dim]})
			covered += cy
		}
		b.Operators = append(b.Operators, telemetry.OperatorStats{
			Operator: "shared-scan", Device: "CAPE", Cycles: share(sharedCycles, i), Rows: int64(factRows)})
		covered += share(sharedCycles, i)
		b.Operators = append(b.Operators, telemetry.OperatorStats{
			Operator: "filter", Device: "CAPE", Cycles: s.filterCycles, Rows: int64(factRows)})
		covered += s.filterCycles
		for _, e := range p.Joins {
			cy := s.perJoin[e.Dim]
			b.Operators = append(b.Operators, telemetry.OperatorStats{
				Operator: "join:" + e.Dim, Device: "CAPE", Cycles: cy, Rows: prepRows[i][e.Dim]})
			covered += cy
		}
		b.Operators = append(b.Operators, telemetry.OperatorStats{
			Operator: "aggregate", Device: "CAPE", Cycles: s.aggCycles, Rows: int64(len(res.Rows))})
		covered += s.aggCycles
		b.Operators = append(b.Operators, telemetry.OperatorStats{
			Operator: "overhead", Device: "CAPE", Cycles: cycles - covered, Rows: -1})

		out[i] = SharedMemberResult{Result: res, Cycles: cycles, Breakdown: b}
	}
	return out, SharedStats{SharedScanCycles: sharedCycles, TotalCycles: total, Members: n}, nil
}
