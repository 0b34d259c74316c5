package exec

// books.go is the accounting every executor closes a run with. Operator
// rows are appended in execution order; a fanned-out sweep adds one
// "sweep[t]" row per lane and a negative "parallel-overlap" credit; close
// appends the "overhead" remainder — whatever no row covered: layout
// switches, vsetvl, fork dispatch, inter-phase scalars — so the rows
// partition the run's total exactly. The published record is read through
// one set of accessors shared by Castle, CPUExec and Placed.

import (
	"fmt"
	"sync/atomic"

	"castle/internal/plan"
	"castle/internal/telemetry"
)

// ParallelStats describes how a run's fact sweep executed: how many lanes
// (tiles or cores) it occupied, each lane's work, and the two cycle views —
// elapsed (what the run's total reports) versus work (every lane cycle
// counts, the energy/§6.3 view).
type ParallelStats struct {
	// Tiles is the number of lanes the sweep used (1 = serial).
	Tiles int
	// TileCycles is each lane's sweep work in lane order (nil when serial).
	TileCycles []int64
	// TileRows is the fact rows each lane processed (nil when serial).
	TileRows []int64
	// MergeCycles is the primary engine's merge of the partial group tables.
	MergeCycles int64
	// ElapsedCycles is the run's simulated elapsed time.
	ElapsedCycles int64
	// WorkCycles is the total work: elapsed plus the overlapped lane cycles
	// hidden under the critical lane. Equals ElapsedCycles for serial runs.
	WorkCycles int64
}

// books accumulates one run's breakdown rows and fan-out profile.
type books struct {
	ops      []telemetry.OperatorStats
	parallel ParallelStats
}

func newBooks() *books { return &books{parallel: ParallelStats{Tiles: 1}} }

func (b *books) row(op, dev string, cycles, rows int64) {
	b.ops = append(b.ops, telemetry.OperatorStats{Operator: op, Device: dev, Cycles: cycles, Rows: rows})
}

// lanes emits one "sweep[t]" row per fact-sweep lane plus the negative
// "parallel-overlap" credit: lanes run concurrently, so only the critical
// lane's cycles are elapsed time.
func (b *books) lanes(dev string, cycles, rows []int64) {
	for t, cy := range cycles {
		b.row(fmt.Sprintf("sweep[%d]", t), dev, cy, rows[t])
	}
	b.row("parallel-overlap", dev, -overlapHidden(cycles), -1)
	b.parallel.Tiles, b.parallel.TileCycles, b.parallel.TileRows = len(cycles), cycles, rows
}

// merge emits the "merge" row: the primary engine folding the lanes'
// partial group tables.
func (b *books) merge(dev string, cycles, groups int64) {
	b.row("merge", dev, cycles, groups)
	b.parallel.MergeCycles = cycles
}

// close appends the "overhead" remainder on dev, fills in the elapsed and
// work views, and returns the breakdown whose rows partition total.
func (b *books) close(dev string, total int64) *telemetry.Breakdown {
	var covered int64
	for _, o := range b.ops {
		covered += o.Cycles
	}
	b.row("overhead", dev, total-covered, -1)
	b.parallel.ElapsedCycles = total
	b.parallel.WorkCycles = total + overlapHidden(b.parallel.TileCycles)
	return &telemetry.Breakdown{Device: dev, Operators: b.ops, TotalCycles: total}
}

// closedRun is one finished run's accounting as an executor publishes it.
type closedRun struct {
	capeCycles int64
	cpuCycles  int64
	// perJoin is the join-edge work by dimension (summed across lanes).
	perJoin   map[string]int64
	stream    StreamStats
	parallel  ParallelStats
	tail      plan.Device // the device the aggregation ran on
	breakdown *telemetry.Breakdown
}

// lastRun holds an executor's most recent closed run (nil before the
// first). A run builds its books privately and publishes them here only
// when it completes, so nothing on the executor is written mid-run.
type lastRun struct {
	last atomic.Pointer[closedRun]
}

// Breakdown returns the last run's per-operator cycle breakdown (the
// EXPLAIN ANALYZE surface): the rows partition the run's total exactly.
// Fanned-out runs report per-lane sweep work plus an explicit negative
// "parallel-overlap" credit; split runs tag every row with its device and
// show crossings as "xfer:" rows. Returns a copy; nil before the first run.
func (l *lastRun) Breakdown() *telemetry.Breakdown {
	if r := l.last.Load(); r != nil {
		return r.breakdown.Clone()
	}
	return nil
}

// ParallelStats returns the last run's sweep execution profile (zero value
// before the first run). Slices are defensive copies.
func (l *lastRun) ParallelStats() ParallelStats {
	r := l.last.Load()
	if r == nil {
		return ParallelStats{}
	}
	ps := r.parallel
	ps.TileCycles = append([]int64(nil), ps.TileCycles...)
	ps.TileRows = append([]int64(nil), ps.TileRows...)
	return ps
}

// StreamStats returns the last run's streaming summary: batches produced,
// transfer cycles hidden under compute, and peak resident batch bytes.
// Zero for materializing runs and before the first run.
func (l *lastRun) StreamStats() StreamStats {
	if r := l.last.Load(); r != nil {
		return r.stream
	}
	return StreamStats{}
}

// PerJoinCycles returns the cycles attributed to each join edge of the last
// run, keyed by dimension name (§7.2's per-join analysis: join-edge work
// only, summed across lanes; CPU hash-table builds count toward their
// edge). The map is a copy; callers may mutate it freely.
func (l *lastRun) PerJoinCycles() map[string]int64 {
	r := l.last.Load()
	if r == nil {
		return map[string]int64{}
	}
	out := make(map[string]int64, len(r.perJoin))
	for k, v := range r.perJoin {
		out[k] = v
	}
	return out
}

// laneBooks is one sweep lane's partial group table and cycle tallies.
type laneBooks struct {
	acc          *groupAcc
	perJoin      map[string]int64
	filterCycles int64
	aggCycles    int64
}

func newLaneBooks(q *plan.Query) laneBooks {
	return laneBooks{acc: newGroupAcc(q.Aggs), perJoin: make(map[string]int64, len(q.Joins))}
}

// laneSweep is what a fact sweep leaves behind: each lane's books and fact
// rows in lane order, each lane's work cycles when the sweep fanned out
// (nil when it ran on the primary engine), and the lanes' join, filter and
// aggregate cycles summed.
type laneSweep struct {
	lanes  []*laneBooks
	rows   []int64
	cycles []int64

	perJoin      map[string]int64
	filterCycles int64
	aggCycles    int64
}

func sumLanes(lanes []*laneBooks, rows, cycles []int64) *laneSweep {
	sw := &laneSweep{lanes: lanes, rows: rows, cycles: cycles, perJoin: make(map[string]int64)}
	for _, l := range lanes {
		for d, cy := range l.perJoin {
			sw.perJoin[d] += cy
		}
		sw.filterCycles += l.filterCycles
		sw.aggCycles += l.aggCycles
	}
	return sw
}

// merge folds the lanes' partial group tables into one, in fixed lane order
// so the accumulated result is deterministic, and counts the partial rows
// folded (the work the primary engine's merge is charged for).
func (sw *laneSweep) merge(q *plan.Query) (acc *groupAcc, partialRows int64) {
	acc = newGroupAcc(q.Aggs)
	for _, l := range sw.lanes {
		acc.merge(l.acc)
		partialRows += int64(len(l.acc.order))
	}
	return acc, partialRows
}
