package exec

// shared_cape.go runs a multi-query shared scan (plan.SharedScan) on one
// CAPE engine: each MAXVL fact morsel is loaded into the CSB once — the
// union of every member's fact columns — and then evaluated against every
// member's predicate sets, joins and aggregation tail before the sweep
// advances. Member results are bit-identical to solo execution because each
// member runs its unmodified operator pipeline; only the column loads are
// shared (attribution: shared.go).

import (
	"context"
	"fmt"

	"castle/internal/cape"
	"castle/internal/plan"
	"castle/internal/stats"
	"castle/internal/storage"
)

// CAPESharedEligible reports whether the member plans can run as one fused
// CAPE sweep: every member sweeps the same fact table, no member needs
// GP-mode vv arithmetic (SUM(a*b) relayouts the CSB mid-partition, which
// would invalidate the shared resident columns), and the union of member
// columns plus the widest member's scratch registers fits the CSB register
// file. A nil error means the group may fuse; callers fall back to solo
// execution otherwise.
func CAPESharedEligible(plans []*plan.Physical, cfg cape.Config) error {
	_, err := capeSharedScan(plans, cfg)
	return err
}

// capeSharedScan validates a fused CAPE group (see CAPESharedEligible) and
// returns its shared scan.
func capeSharedScan(plans []*plan.Physical, cfg cape.Config) (*plan.SharedScan, error) {
	ss, err := plan.NewSharedScan(plans)
	if err != nil {
		return nil, err
	}
	for i, p := range plans {
		if p.Query.HasSumMul() {
			return nil, fmt.Errorf("exec: shared CAPE sweep: member %d needs GP-mode SUM(a*b) arithmetic", i)
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
		return nil, fmt.Errorf("exec: shared CAPE sweep: %d union columns + %d scratch registers exceed %d CSB registers",
			union, maxScratch, cfg.NumVRegs)
	}
	return ss, nil
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
	ss, err := capeSharedScan(plans, eng.Config())
	if err != nil {
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
	members := make([]*sharedMember, n)
	dims := make([][]dimSide, n)
	for i, p := range plans {
		q := p.Query
		sweeps[i] = &tileSweep{cat: cat, opts: opts, eng: eng, laneBooks: newLaneBooks(q)}
		members[i] = newSharedMember(p.Joins, &sweeps[i].laneBooks)
		dims[i] = make([]dimSide, len(p.Joins))
		for j, e := range p.Joins {
			if err := ctx.Err(); err != nil {
				return nil, SharedStats{}, err
			}
			before := eng.TotalCycles()
			dims[i][j] = capePrepareDim(eng, cat, q, e, db)
			members[i].prep("CAPE", e.Dim, eng.TotalCycles()-before, len(dims[i][j].keys))
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
			pt := &capePart{base: base, vl: vl, regs: regs, load: loadFactCol}
			pt.rowMask, pt.attrRegs, err = s.runFilterJoinsWith(ctx, p, db, dims[i], base, vl, regs, loadFactCol)
			if err != nil {
				return nil, SharedStats{}, err
			}
			if err := s.runAggregate(ctx, p.Query, fact, pt, false, camCapable); err != nil {
				return nil, SharedStats{}, err
			}
			members[i].exclusive += eng.TotalCycles() - before
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
			members[i].exclusive += eng.TotalCycles() - before
		}
	}

	out, st := closeShared("CAPE", plans, members, sharedCycles, eng.TotalCycles()-runStart, factRows)
	return out, st, nil
}
