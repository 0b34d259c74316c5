package exec

// shared.go closes the books of a multi-query shared scan on either device
// (shared_cape.go, shared_cpu.go). Each member is charged exclusively for
// its own dimension preparation and its pipeline over the resident fact
// data; the fused column loads are charged once for the whole group, and
// they — together with the residual no region covered (layout switches,
// vsetvl, inter-phase scalars) — are attributed pro-rata across members
// with a largest-remainder split, so per-member cycle totals still
// partition the engine's group total exactly.

import (
	"castle/internal/plan"
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

// ShareOf splits a group-level term t across n members exactly: member i
// gets t/n, and the first t%n members one more (largest remainder by member
// position).
func ShareOf(t int64, i, n int) int64 {
	s := t / int64(n)
	if int64(i) < t%int64(n) {
		s++
	}
	return s
}

// sharedMember is one member's books in a fused group run.
type sharedMember struct {
	// edges orders the member's join rows as its prep rows were recorded.
	edges     []plan.JoinEdge
	bk        *books
	dimRows   map[string]int64
	exclusive int64
	lane      *laneBooks
}

func newSharedMember(edges []plan.JoinEdge, lane *laneBooks) *sharedMember {
	return &sharedMember{edges: edges, bk: newBooks(), dimRows: make(map[string]int64, len(edges)), lane: lane}
}

// prep records one dimension preparation charged to the member alone.
func (m *sharedMember) prep(dev, dim string, cycles int64, rows int) {
	m.bk.row("prep:"+dim, dev, cycles, int64(rows))
	m.dimRows[dim] = int64(rows)
	m.exclusive += cycles
}

// closeShared attributes a fused group run of total cycles, sharedCycles of
// them the fused column loads, to its members and closes each member's
// books: prep rows, its "shared-scan" share, filter, joins, aggregate and
// the overhead remainder.
func closeShared(dev string, plans []*plan.Physical, members []*sharedMember,
	sharedCycles, total int64, factRows int) ([]SharedMemberResult, SharedStats) {

	n := len(members)
	residual := total - sharedCycles
	for _, m := range members {
		residual -= m.exclusive
	}
	out := make([]SharedMemberResult, n)
	for i, m := range members {
		q := plans[i].Query
		acc := m.lane.acc
		if len(q.GroupBy) == 0 && len(acc.order) == 0 {
			acc.add(nil, make([]int64, len(q.Aggs)), 0)
		}
		res := acc.result(q)
		shared := ShareOf(sharedCycles, i, n)
		cycles := m.exclusive + shared + ShareOf(residual, i, n)
		m.bk.row("shared-scan", dev, shared, int64(factRows))
		m.bk.row("filter", dev, m.lane.filterCycles, int64(factRows))
		for _, e := range m.edges {
			m.bk.row("join:"+e.Dim, dev, m.lane.perJoin[e.Dim], m.dimRows[e.Dim])
		}
		m.bk.row("aggregate", dev, m.lane.aggCycles, int64(len(res.Rows)))
		out[i] = SharedMemberResult{Result: res, Cycles: cycles, Breakdown: m.bk.close(dev, cycles)}
	}
	return out, SharedStats{SharedScanCycles: sharedCycles, TotalCycles: total, Members: n}
}
