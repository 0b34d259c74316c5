package exec

// shared_cpu.go runs a multi-query shared scan on one baseline CPU core:
// the fact table sweeps in bounded row chunks; each chunk's union of member
// fact columns streams from memory once, then every member's predicate
// sets, probes and aggregation visit run against the now-resident chunk
// with resident kernel variants that bill compute and random accesses but
// not a second column stream. Member results are bit-identical to solo
// execution — the functional kernels are unchanged, only the charge model
// knows the columns are shared. Shared stream cycles are attributed
// pro-rata like CAPE's fused loads (shared.go).

import (
	"context"
	"sort"

	"castle/internal/baseline"
	"castle/internal/plan"
	"castle/internal/storage"
)

// RunSharedCPU executes the member plans as one fused chunked fact sweep
// on cpu. Each member runs its bound query's pipeline (dimension order,
// probe order); the plans supply the shared scan. The group runs serially
// on the single core — a group takes one device lease, not N.
// Cancellation is checked at every member-phase boundary within each chunk.
func RunSharedCPU(ctx context.Context, cpu *baseline.CPU, plans []*plan.Physical,
	db *storage.Database) ([]SharedMemberResult, SharedStats, error) {

	if ctx == nil {
		ctx = context.Background()
	}
	ss, err := plan.NewSharedScan(plans)
	if err != nil {
		return nil, SharedStats{}, err
	}
	n := len(plans)
	rows := db.MustTable(ss.Fact).Rows()
	runStart := cpu.Cycles()

	// Per-member prep on the shared core: dimension filters, probe-order
	// sort and prebuilt hash tables, all charged exclusively to the member.
	sweeps := make([]*cpuSweep, n)
	members := make([]*sharedMember, n)
	joins := make([][]dimJoin, n)
	tables := make([][]joinTable, n)
	for i, p := range plans {
		q := p.Query
		sweeps[i] = &cpuSweep{cpu: cpu, resident: true, laneBooks: newLaneBooks(q)}
		members[i] = newSharedMember(q.Joins, &sweeps[i].laneBooks)
		joins[i] = make([]dimJoin, 0, len(q.Joins))
		for _, e := range q.Joins {
			if err := ctx.Err(); err != nil {
				return nil, SharedStats{}, err
			}
			before := cpu.Cycles()
			j := cpuPrepareDim(cpu, q, e, db)
			joins[i] = append(joins[i], j)
			members[i].prep("CPU", e.Dim, cpu.Cycles()-before, len(j.keys))
		}
		sort.SliceStable(joins[i], func(a, b int) bool { return joins[i][a].fraction < joins[i][b].fraction })

		buildStart := cpu.Cycles()
		tables[i] = make([]joinTable, len(joins[i]))
		for ji, j := range joins[i] {
			before := cpu.Cycles()
			if len(j.edge.NeedAttrs) == 0 {
				tables[i][ji].semi = cpu.BuildHashSemi(j.keys)
			} else {
				tables[i][ji].attr = make([]*baseline.HashTable, len(j.edge.NeedAttrs))
				for ai := range j.edge.NeedAttrs {
					tables[i][ji].attr[ai] = cpu.BuildHashMap(j.keys, j.vals[ai])
				}
			}
			// Builds report inside the member's "join:" rows, like the solo
			// streaming path.
			sweeps[i].perJoin[j.edge.Dim] += cpu.Cycles() - before
		}
		members[i].exclusive += cpu.Cycles() - buildStart
	}

	cols := ss.SharedColumns()

	// Fused chunked sweep: stream the union columns once per chunk, then run
	// every member's resident pipeline over the chunk before advancing.
	var sharedCycles int64
	for base := 0; base < rows; base += streamBatchRows {
		if err := ctx.Err(); err != nil {
			return nil, SharedStats{}, err
		}
		end := min(base+streamBatchRows, rows)
		sharedBefore := cpu.Cycles()
		for range cols {
			cpu.ChargeStream(0, int64(end-base)*4)
		}
		sharedCycles += cpu.Cycles() - sharedBefore

		for i, p := range plans {
			before := cpu.Cycles()
			if err := sweeps[i].run(ctx, p.Query, db, joins[i], tables[i], base, end); err != nil {
				return nil, SharedStats{}, err
			}
			members[i].exclusive += cpu.Cycles() - before
		}
	}

	out, st := closeShared("CPU", plans, members, sharedCycles, cpu.Cycles()-runStart, rows)
	return out, st, nil
}
