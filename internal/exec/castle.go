package exec

import (
	"context"
	"fmt"
	"sync/atomic"

	"castle/internal/cape"
	"castle/internal/plan"
	"castle/internal/stats"
	"castle/internal/storage"
	"castle/internal/telemetry"
)

// CastleOptions tune the CAPE executor.
type CastleOptions struct {
	// Fusion enables operator fusion (§7.4): consecutive operators process
	// a CSB-resident partition back to back instead of materializing masks
	// through main memory between operator sweeps.
	Fusion bool
	// NoBulkAggFastPath forces the literal per-group Algorithm 2 loop. The
	// fast path computes identical results and bills identical cycles;
	// this switch exists so tests can assert that equivalence.
	NoBulkAggFastPath bool
	// Parallelism is the initial number of CAPE tiles the fact sweep may
	// fan out across (§7.2's tiled deployment). Values <= 1 run the sweep
	// serially on the executor's engine; K > 1 forks K tile engines,
	// dispatches MAXVL-sized morsels round-robin, and merges the partial
	// group accumulators in fixed tile order, so results are bit-identical
	// to serial execution. Adjust later runs with SetParallelism.
	Parallelism int
}

// DefaultCastleOptions returns the paper's configuration.
func DefaultCastleOptions() CastleOptions {
	return CastleOptions{Fusion: true}
}

// mergeScalarsPerRow is the CP cost of folding one partial group row into
// the merged result table — the same append/merge instruction count the
// serial Algorithm 2 loop bills per group.
const mergeScalarsPerRow = 12

// Castle executes physical plans on a CAPE core.
//
// All mutable per-run accounting lives in run-scoped books that are
// published atomically when a run finishes, so the executor itself is
// reentrant: nothing on the receiver is written mid-run. The underlying
// cape.Engine still executes one run at a time — use one engine (and one
// Castle) per in-flight query, as the server's tile pool does.
type Castle struct {
	eng  *cape.Engine
	cat  *stats.Catalog
	opts CastleOptions

	// par is the fan-out degree for subsequent runs. It lives in an atomic
	// (not in opts) because SetParallelism is documented safe to call
	// concurrently with RunContext: a run loads the value exactly once at
	// entry.
	par atomic.Int32

	// streaming only toggles stream accounting here: the CAPE sweep is
	// already a pipeline of MAXVL partitions (the fused fact sweep never
	// materializes an operator's full output), so "streaming" a pure-CAPE
	// run changes no work — it just reports each partition as a batch and
	// the CSB-resident partition footprint as the peak.
	streaming atomic.Bool

	// tel and parent carry the observability pipeline: operator spans nest
	// under parent (the caller's "execute" span). Both may be nil; span
	// calls on nil receivers are no-ops, so a disabled pipeline costs only
	// nil checks.
	tel    *telemetry.Telemetry
	parent *telemetry.Span

	lastRun
}

// NewCastle wraps a CAPE engine. The statistics catalog supplies column
// bitwidths to ABA (§5.1); pass nil to force embedded bitwidth discovery.
func NewCastle(eng *cape.Engine, cat *stats.Catalog, opts CastleOptions) *Castle {
	c := &Castle{eng: eng, cat: cat, opts: opts}
	c.par.Store(int32(opts.Parallelism))
	return c
}

// Engine returns the underlying CAPE engine (for cycle/traffic inspection).
func (c *Castle) Engine() *cape.Engine { return c.eng }

// SetParallelism sets how many tiles subsequent Runs' fact sweeps may fan
// out across (see CastleOptions.Parallelism). Safe to call concurrently
// with RunContext: an in-flight run keeps the degree it observed at entry;
// later runs observe the new value.
func (c *Castle) SetParallelism(k int) { c.par.Store(int32(k)) }

// SetStreaming toggles stream accounting for subsequent runs (see the
// streaming field: pure-CAPE execution is already partition-pipelined, so
// this changes reporting, not work): one batch per MAXVL fact partition and
// the peak CSB-resident partition bytes across the K concurrent tiles. Safe
// to call concurrently with RunContext.
func (c *Castle) SetStreaming(on bool) { c.streaming.Store(on) }

// SetTelemetry attaches an observability pipeline for subsequent Runs:
// operator spans nest under parent (typically the caller's "execute"
// span), and run-level metrics are recorded into tel. Pass nils to detach.
// Not safe to call while a run is in flight.
func (c *Castle) SetTelemetry(tel *telemetry.Telemetry, parent *telemetry.Span) {
	c.tel = tel
	c.parent = parent
}

// Run executes a physical plan and returns the result relation. Cycle and
// traffic accounting accumulates on the engine; callers snapshot
// eng.Stats() around Run.
func (c *Castle) Run(p *plan.Physical, db *storage.Database) *Result {
	res, _ := c.RunContext(context.Background(), p, db)
	return res
}

// RunContext is Run with cancellation: ctx is checked at operator
// boundaries (each dimension prep, each fact partition, and each operator
// within a partition), so a canceled or expired context stops the
// simulated work promptly and returns ctx.Err(). The engine keeps the
// cycles it charged before the cancellation point; abandoned runs simply
// stop accruing.
//
// With parallelism > 1 the fact sweep runs morsel-parallel: the engine
// forks into K tile engines, partition m executes on tile m%K, and the
// partial group accumulators merge in fixed tile order. Results are
// bit-identical to serial execution; the engine's Stats advance by the
// elapsed view (prep + max tile + merge) while per-tile work remains
// visible through ParallelStats and the breakdown.
func (c *Castle) RunContext(ctx context.Context, p *plan.Physical, db *storage.Database) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	q := p.Query
	eng := c.eng
	cfg := eng.Config()
	runStart := eng.TotalCycles()

	camCapable := cfg.EnableADL
	// Queries whose aggregates need vv arithmetic (SUM(a*b)) run their
	// aggregation phase in GP mode; everything else stays in one layout.
	// The GP-mode tail cannot also run Algorithm 2's CAM-mode searches.
	needGPArith := q.HasSumMul()
	if camCapable && q.GroupedSumMul() {
		return nil, fmt.Errorf("%w: CAPE with the adaptive data layout cannot aggregate SUM(a*b) under GROUP BY", plan.ErrUnsupported)
	}

	// Phase 0: filter dimensions on CAPE and compact qualifying keys and
	// attributes to values arrays (Figure 4).
	if camCapable {
		eng.SetLayout(cape.CAMMode)
	}
	bk := newBooks()
	dims := make([]dimSide, len(p.Joins))
	for i, e := range p.Joins {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sp := c.parent.Child("prep:" + e.Dim)
		before := eng.TotalCycles()
		dims[i] = capePrepareDim(eng, c.cat, q, e, db)
		cy := eng.TotalCycles() - before
		bk.row("prep:"+e.Dim, "CAPE", cy, int64(len(dims[i].keys)))
		sp.SetInt("cycles", cy)
		sp.SetInt("rows_out", int64(len(dims[i].keys)))
		sp.SetInt("rows_in", int64(dims[i].totalRows))
		sp.End()
	}

	// The fused fact sweep: filter, joins and Algorithm 2 per partition.
	fact := db.MustTable(q.Fact)
	factRows := fact.Rows()
	parts := (factRows + cfg.MAXVL - 1) / cfg.MAXVL
	k := fanOut(int(c.par.Load()), parts)
	sweep := c.parent.Child("fact-sweep")
	sweepStart := eng.TotalCycles()
	sw, err := c.sweepFact(ctx, p, db, dims, k, sweep, func(s *tileSweep, _ int, pt *capePart) error {
		return s.runAggregate(ctx, q, fact, pt, needGPArith, camCapable)
	})
	if err != nil {
		return nil, err
	}
	acc := sw.lanes[0].acc
	var mergeCycles int64
	if k > 1 {
		// CP-side merge of the per-tile partial group tables, in fixed tile
		// order so the accumulated result is deterministic.
		msp := sweep.Child("merge")
		mergeStart := eng.TotalCycles()
		var partialRows int64
		acc, partialRows = sw.merge(q)
		eng.Scalar(mergeScalarsPerRow * partialRows)
		eng.CPAccess(partialRows, int64(len(acc.order))*16)
		mergeCycles = eng.TotalCycles() - mergeStart
		msp.SetInt("cycles", mergeCycles)
		msp.SetInt("rows", partialRows)
		msp.End()
	}
	sweep.SetInt("cycles", eng.TotalCycles()-sweepStart)
	sweep.End()

	var stream StreamStats
	if c.streaming.Load() && factRows > 0 {
		resident := factRows
		if resident > cfg.MAXVL {
			resident = cfg.MAXVL
		}
		stream = StreamStats{
			Batches:        int64(parts),
			PeakBatchBytes: int64(k) * int64(4*resident*factSweepCols(q)),
		}
	}

	if len(q.GroupBy) == 0 && len(acc.order) == 0 {
		acc.add(nil, make([]int64, len(q.Aggs)), 0)
	}
	res := acc.result(q)
	groups := int64(len(res.Rows))
	if k == 1 {
		bk.row("filter", "CAPE", sw.filterCycles, int64(factRows))
		for i, e := range p.Joins {
			bk.row("join:"+e.Dim, "CAPE", sw.perJoin[e.Dim], int64(len(dims[i].keys)))
		}
		bk.row("aggregate", "CAPE", sw.aggCycles, groups)
	} else {
		bk.lanes("CAPE", sw.cycles, sw.rows)
		bk.merge("CAPE", mergeCycles, groups)
	}
	elapsed := eng.TotalCycles() - runStart
	breakdown := bk.close("CAPE", elapsed)
	countRowsScanned(c.tel, db, q, DeviceCAPE, nil)
	c.last.Store(&closedRun{capeCycles: elapsed, perJoin: sw.perJoin, stream: stream,
		parallel: bk.parallel, tail: DeviceCAPE, breakdown: breakdown})
	return res, nil
}

// tailSweep returns a kernel context on the primary engine that aggregates
// into acc: the CAPE aggregation tail of a split run.
func (c *Castle) tailSweep(acc *groupAcc) *tileSweep {
	return &tileSweep{cat: c.cat, opts: c.opts, eng: c.eng, laneBooks: laneBooks{acc: acc}}
}

// sweepFact is CAPE's only sweep over a fact table. Lane t runs the MAXVL
// partitions t, t+k, t+2k, ... — on the primary engine when k is 1, on
// forked tile t otherwise (a static assignment keeps every tile's charge
// sequence deterministic) — through the fused Scan+Filter+JoinProbe
// kernels, and hands each partition to sink. With fusion disabled each lane
// then pays the fission overhead for the partitions it swept. Forked tiles
// fold back into the primary engine: elapsed advances by the critical
// tile, memory traffic by the sum.
func (c *Castle) sweepFact(ctx context.Context, p *plan.Physical, db *storage.Database, dims []dimSide,
	k int, span *telemetry.Span, sink func(s *tileSweep, lane int, pt *capePart) error) (*laneSweep, error) {

	q := p.Query
	cfg := c.eng.Config()
	maxvl := cfg.MAXVL
	factRows := db.MustTable(q.Fact).Rows()
	parts := (factRows + maxvl - 1) / maxvl
	span.SetInt("rows", int64(factRows))
	span.SetInt("partitions", int64(parts))
	span.SetInt("tiles", int64(k))

	engines := []*cape.Engine{c.eng}
	var group *cape.TileGroup
	if k > 1 {
		group = c.eng.Fork(k)
		engines = group.Tiles()
	}
	sweeps := make([]*tileSweep, k)
	books := make([]*laneBooks, k)
	for i, eng := range engines {
		sweeps[i] = &tileSweep{cat: c.cat, opts: c.opts, eng: eng, laneBooks: newLaneBooks(q), span: span}
		books[i] = &sweeps[i].laneBooks
		if k > 1 {
			if c.tel != nil {
				// Tile hooks stream live, so telemetry counters accumulate
				// work cycles (the sum over tiles), not elapsed.
				AttachEngineTelemetry(eng, c.tel)
			}
			sweeps[i].span = span.Child(fmt.Sprintf("tile%d", i))
		}
	}

	rows := make([]int64, k)
	err := runLanes(k, func(lane int) error {
		s := sweeps[lane]
		if k > 1 {
			defer s.span.End()
		}
		for pi := lane; pi < parts; pi += k {
			if err := ctx.Err(); err != nil {
				return err
			}
			base := pi * maxvl
			vl := factRows - base
			if vl > maxvl {
				vl = maxvl
			}
			pt, err := s.runFilterJoins(ctx, p, db, dims, base, vl)
			if err != nil {
				return err
			}
			if err := sink(s, lane, pt); err != nil {
				return err
			}
			if cfg.EnableADL {
				// The next partition returns to CAM mode for selections and
				// joins.
				s.eng.SetLayout(cape.CAMMode)
			}
			rows[lane] += int64(vl)
		}
		if !c.opts.Fusion {
			s.chargeFissionOverhead(p, (parts-lane+k-1)/k, maxvl)
		}
		if k > 1 {
			s.span.SetInt("cycles", s.eng.TotalCycles())
			s.span.SetInt("rows", rows[lane])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var cycles []int64
	if group != nil {
		cycles = group.Merge()
	}
	return sumLanes(books, rows, cycles), nil
}

// factSweepCols counts the distinct fact-aligned vectors one partition
// keeps CSB-resident during the fused sweep: predicate and foreign-key
// columns, fact group-by columns, aggregate inputs, and the materialized
// dimension attributes each join produces.
func factSweepCols(q *plan.Query) int {
	seen := make(map[string]bool)
	for _, pr := range q.FactPreds {
		seen[pr.Column] = true
	}
	for _, e := range q.Joins {
		seen[e.FactFK] = true
		for _, a := range e.NeedAttrs {
			seen[e.Dim+"."+a] = true
		}
	}
	for _, g := range q.GroupBy {
		if g.Table == q.Fact {
			seen[g.Column] = true
		}
	}
	for _, a := range q.Aggs {
		if a.A != "" {
			seen[a.A] = true
		}
		if a.B != "" {
			seen[a.B] = true
		}
	}
	return len(seen)
}

// colWidth returns the ABA bitwidth for a column from catalog statistics
// (0 = unknown, triggering embedded discovery).
func colWidth(cat *stats.Catalog, table, col string) int {
	if cat == nil {
		return 0
	}
	if cs, ok := cat.Column(table, col); ok {
		return cs.BitWidth
	}
	return 0
}
