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
	// MKSMinKeys is the minimum probe-key batch size for which vmks is
	// emitted; smaller batches use vmseq.vx (§6.2: sub-cacheline batches
	// waste memory bandwidth). Zero selects the cacheline-derived default.
	MKSMinKeys int
	// NoBulkAggFastPath forces the literal per-group Algorithm 2 loop even
	// for single-column group-bys. The fast path computes identical
	// results and bills identical cycles; this switch exists so tests can
	// assert that equivalence.
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
// All mutable per-run accounting lives in a run-scoped book that is
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

	// last is the most recent run's closed books (nil before the first
	// run). Accessors snapshot from here.
	last atomic.Pointer[runBooks]
}

// runBooks is the run-scoped accounting of one RunContext invocation: the
// per-join attribution, per-phase cycle tallies, and the finished
// breakdown. Exactly one run writes a given runBooks; it is published to
// Castle.last only after the run completes.
type runBooks struct {
	perJoin      map[string]int64
	prepCycles   map[string]int64
	prepRows     map[string]int64
	filterCycles int64
	aggCycles    int64

	// Parallel-sweep accounting (tileCycles nil for serial runs).
	tiles       int
	tileCycles  []int64
	tileRows    []int64
	mergeCycles int64
	elapsed     int64

	stream StreamStats

	breakdown *telemetry.Breakdown
}

// ParallelStats describes how the last run's fact sweep executed: how many
// tiles it occupied, each tile's work, and the two cycle views — elapsed
// (prep + max over tiles + merge) versus work (every tile cycle counts,
// the energy/§6.3 view).
type ParallelStats struct {
	// Tiles is the number of tile engines the sweep used (1 = serial).
	Tiles int
	// TileCycles is each tile's sweep work in tile order (nil when serial).
	TileCycles []int64
	// TileRows is the fact rows each tile processed (nil when serial).
	TileRows []int64
	// MergeCycles is the CP-side merge of the partial group accumulators.
	MergeCycles int64
	// ElapsedCycles is the run's simulated elapsed time (what the engine's
	// Stats advanced by).
	ElapsedCycles int64
	// WorkCycles is the total work: elapsed plus the overlapped tile
	// cycles hidden under the critical tile. Equals ElapsedCycles for
	// serial runs.
	WorkCycles int64
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
// this changes reporting, not work). Safe to call concurrently with
// RunContext.
func (c *Castle) SetStreaming(on bool) { c.streaming.Store(on) }

// StreamStats returns the last run's streaming summary: one batch per
// MAXVL fact partition and the peak CSB-resident partition bytes across
// the K concurrent tiles. Zero for runs with streaming off.
func (c *Castle) StreamStats() StreamStats {
	b := c.last.Load()
	if b == nil {
		return StreamStats{}
	}
	return b.stream
}

// PerJoinCycles returns the cycles attributed to each join edge of the
// last Run, keyed by dimension name (§7.2's per-join analysis; join-edge
// work only — selections, aggregation and dimension prep are excluded).
// For parallel runs the attribution sums work across tiles. The map is a
// defensive copy: callers cannot alias the executor's live accounting
// across runs.
func (c *Castle) PerJoinCycles() map[string]int64 {
	b := c.last.Load()
	if b == nil {
		return map[string]int64{}
	}
	out := make(map[string]int64, len(b.perJoin))
	for k, v := range b.perJoin {
		out[k] = v
	}
	return out
}

// SetTelemetry attaches an observability pipeline for subsequent Runs:
// operator spans nest under parent (typically the caller's "execute"
// span), and run-level metrics are recorded into tel. Pass nils to detach.
// Not safe to call while a run is in flight.
func (c *Castle) SetTelemetry(tel *telemetry.Telemetry, parent *telemetry.Span) {
	c.tel = tel
	c.parent = parent
}

// Breakdown returns the last Run's per-operator cycle breakdown (the
// EXPLAIN ANALYZE surface). The operator rows partition the run's total
// cycles exactly; parallel runs report per-tile sweep work plus an
// explicit negative "parallel-overlap" credit for the cycles hidden under
// the critical tile. Returns a copy; nil before the first Run.
func (c *Castle) Breakdown() *telemetry.Breakdown {
	b := c.last.Load()
	if b == nil {
		return nil
	}
	return b.breakdown.Clone()
}

// ParallelStats returns the last run's sweep execution profile (zero value
// before the first run). Slices are defensive copies.
func (c *Castle) ParallelStats() ParallelStats {
	b := c.last.Load()
	if b == nil {
		return ParallelStats{}
	}
	return ParallelStats{
		Tiles:         b.tiles,
		TileCycles:    append([]int64(nil), b.tileCycles...),
		TileRows:      append([]int64(nil), b.tileRows...),
		MergeCycles:   b.mergeCycles,
		ElapsedCycles: b.elapsed,
		WorkCycles:    b.elapsed + overlapHidden(b.tileCycles),
	}
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
	run := &runBooks{
		perJoin:    make(map[string]int64, len(p.Joins)),
		prepCycles: make(map[string]int64, len(p.Joins)),
		prepRows:   make(map[string]int64, len(p.Joins)),
	}
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
	dims := make([]dimSide, len(p.Joins))
	for i, e := range p.Joins {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sp := c.parent.Child("prep:" + e.Dim)
		before := eng.TotalCycles()
		dims[i] = capePrepareDim(eng, c.cat, q, e, db)
		cy := eng.TotalCycles() - before
		run.prepCycles[e.Dim] = cy
		run.prepRows[e.Dim] = int64(len(dims[i].keys))
		sp.SetInt("cycles", cy)
		sp.SetInt("rows_out", int64(len(dims[i].keys)))
		sp.SetInt("rows_in", int64(dims[i].totalRows))
		sp.End()
	}

	// Fact sweep: serial on this engine, or morsel-parallel across forked
	// tiles.
	fact := db.MustTable(q.Fact)
	factRows := fact.Rows()
	maxvl := cfg.MAXVL
	parts := (factRows + maxvl - 1) / maxvl

	k := fanOut(int(c.par.Load()), parts)
	run.tiles = k

	acc := newGroupAcc(q.Aggs)

	sweep := c.parent.Child("fact-sweep")
	sweepStart := eng.TotalCycles()
	if k == 1 {
		s := &tileSweep{cat: c.cat, opts: c.opts, eng: eng, acc: acc, perJoin: run.perJoin, span: sweep}
		for base := 0; base < factRows; base += maxvl {
			vl := factRows - base
			if vl > maxvl {
				vl = maxvl
			}
			if err := s.runPartition(ctx, p, db, dims, base, vl, needGPArith, camCapable); err != nil {
				return nil, err
			}
			if camCapable {
				// Next partition returns to CAM mode for selections/joins.
				eng.SetLayout(cape.CAMMode)
			}
		}
		if !c.opts.Fusion {
			s.chargeFissionOverhead(p, parts, maxvl)
		}
		run.filterCycles, run.aggCycles = s.filterCycles, s.aggCycles
	} else {
		if err := c.runParallelSweep(ctx, run, p, db, dims, factRows, parts, maxvl, k,
			needGPArith, camCapable, acc, sweep); err != nil {
			return nil, err
		}
	}
	sweep.SetInt("cycles", eng.TotalCycles()-sweepStart)
	sweep.SetInt("rows", int64(factRows))
	sweep.SetInt("partitions", int64(parts))
	sweep.SetInt("tiles", int64(k))
	sweep.End()

	if c.streaming.Load() && factRows > 0 {
		resident := factRows
		if resident > maxvl {
			resident = maxvl
		}
		run.stream = StreamStats{
			Batches:        int64(parts),
			PeakBatchBytes: int64(k) * int64(4*resident*factSweepCols(q)),
		}
	}

	if len(q.GroupBy) == 0 && len(acc.order) == 0 {
		acc.add(nil, make([]int64, len(q.Aggs)), 0)
	}
	res := acc.result(q)
	run.elapsed = eng.TotalCycles() - runStart
	c.finishBreakdown(run, p, int64(factRows), int64(len(res.Rows)))
	c.recordRunMetrics(p, db, int64(factRows))
	c.last.Store(run)
	return res, nil
}

// runParallelSweep forks the engine into k tiles and executes the fact
// sweep morsel-parallel: partition m runs on tile m%k (a static assignment
// keeps every tile's charge sequence deterministic), each tile accumulates
// into its own partial groupAcc, and the partials merge into acc in fixed
// tile order on the primary engine's CP. After the sweep the parent engine
// absorbs the critical tile's Stats (elapsed view) and every tile's memory
// traffic (work view).
func (c *Castle) runParallelSweep(ctx context.Context, run *runBooks, p *plan.Physical,
	db *storage.Database, dims []dimSide, factRows, parts, maxvl, k int,
	needGPArith, camCapable bool, acc *groupAcc, sweep *telemetry.Span) error {

	eng := c.eng
	q := p.Query
	group := eng.Fork(k)

	sweeps := make([]*tileSweep, k)
	for i, t := range group.Tiles() {
		if c.tel != nil {
			// Tile hooks stream live, so telemetry counters accumulate
			// work cycles (the sum over tiles), not elapsed.
			AttachEngineTelemetry(t, c.tel)
		}
		sweeps[i] = &tileSweep{
			cat:     c.cat,
			opts:    c.opts,
			eng:     t,
			acc:     newGroupAcc(q.Aggs),
			perJoin: make(map[string]int64, len(p.Joins)),
			span:    sweep.Child(fmt.Sprintf("tile%d", i)),
		}
	}

	rows := make([]int64, k)
	err := runLanes(k, func(ti int) error {
		s := sweeps[ti]
		defer s.span.End()
		for pi := ti; pi < parts; pi += k {
			base := pi * maxvl
			vl := factRows - base
			if vl > maxvl {
				vl = maxvl
			}
			if err := s.runPartition(ctx, p, db, dims, base, vl, needGPArith, camCapable); err != nil {
				return err
			}
			if camCapable {
				s.eng.SetLayout(cape.CAMMode)
			}
			rows[ti] += int64(vl)
		}
		if !c.opts.Fusion {
			s.chargeFissionOverhead(p, (parts-ti+k-1)/k, maxvl)
		}
		s.span.SetInt("cycles", s.eng.TotalCycles())
		s.span.SetInt("rows", rows[ti])
		return nil
	})
	if err != nil {
		return err
	}

	// Fold the tiles back into the parent: elapsed advances by the
	// critical tile, traffic by the sum.
	run.tileCycles = group.Merge()
	run.tileRows = rows
	for _, s := range sweeps {
		for d, cy := range s.perJoin {
			run.perJoin[d] += cy
		}
		run.filterCycles += s.filterCycles
		run.aggCycles += s.aggCycles
	}

	// CP-side merge of the per-tile partial group tables, in fixed tile
	// order so the accumulated result is deterministic.
	msp := sweep.Child("merge")
	mergeStart := eng.TotalCycles()
	var partialRows int64
	for _, s := range sweeps {
		acc.merge(s.acc)
		partialRows += int64(len(s.acc.order))
	}
	eng.Scalar(mergeScalarsPerRow * partialRows)
	eng.CPAccess(partialRows, int64(len(acc.order))*16)
	run.mergeCycles = eng.TotalCycles() - mergeStart
	msp.SetInt("cycles", run.mergeCycles)
	msp.SetInt("rows", partialRows)
	msp.End()
	return nil
}

// finishBreakdown closes the per-operator books for the last Run. The
// rows partition the total exactly: whatever the phase regions did not
// cover (layout switches, vsetvl, fork dispatch, inter-phase scalars)
// lands in an explicit "overhead" row. Parallel runs replace the serial
// filter/join/aggregate rows with per-tile sweep work plus a negative
// "parallel-overlap" credit — tiles run concurrently, so only the critical
// tile's cycles are elapsed time — and a "merge" row.
func (c *Castle) finishBreakdown(run *runBooks, p *plan.Physical, factRows, groups int64) {
	b := &telemetry.Breakdown{Device: "CAPE", TotalCycles: run.elapsed}
	var covered int64
	for _, e := range p.Joins {
		cy := run.prepCycles[e.Dim]
		b.Operators = append(b.Operators, telemetry.OperatorStats{
			Operator: "prep:" + e.Dim, Device: "CAPE", Cycles: cy, Rows: run.prepRows[e.Dim]})
		covered += cy
	}
	if run.tileCycles == nil {
		b.Operators = append(b.Operators, telemetry.OperatorStats{
			Operator: "filter", Device: "CAPE", Cycles: run.filterCycles, Rows: factRows})
		covered += run.filterCycles
		for _, e := range p.Joins {
			cy := run.perJoin[e.Dim]
			b.Operators = append(b.Operators, telemetry.OperatorStats{
				Operator: "join:" + e.Dim, Device: "CAPE", Cycles: cy, Rows: run.prepRows[e.Dim]})
			covered += cy
		}
		b.Operators = append(b.Operators, telemetry.OperatorStats{
			Operator: "aggregate", Device: "CAPE", Cycles: run.aggCycles, Rows: groups})
		covered += run.aggCycles
	} else {
		for t, cy := range run.tileCycles {
			b.Operators = append(b.Operators, telemetry.OperatorStats{
				Operator: fmt.Sprintf("sweep[%d]", t), Device: "CAPE", Cycles: cy, Rows: run.tileRows[t]})
			covered += cy
		}
		// The tiles overlapped: only the critical tile is elapsed time, so
		// credit the hidden work back with an explicit negative row.
		hidden := overlapHidden(run.tileCycles)
		b.Operators = append(b.Operators, telemetry.OperatorStats{
			Operator: "parallel-overlap", Device: "CAPE", Cycles: -hidden, Rows: -1})
		covered -= hidden
		b.Operators = append(b.Operators, telemetry.OperatorStats{
			Operator: "merge", Device: "CAPE", Cycles: run.mergeCycles, Rows: groups})
		covered += run.mergeCycles
	}
	b.Operators = append(b.Operators, telemetry.OperatorStats{
		Operator: "overhead", Device: "CAPE", Cycles: run.elapsed - covered, Rows: -1})
	run.breakdown = b
}

// recordRunMetrics updates run-level counters (rows scanned) on the
// attached registry; class-cycle counters stream live via the engine hook.
func (c *Castle) recordRunMetrics(p *plan.Physical, db *storage.Database, factRows int64) {
	if c.tel == nil {
		return
	}
	scanned := factRows
	for _, e := range p.Joins {
		scanned += int64(db.MustTable(e.Dim).Rows())
	}
	c.tel.Metrics().Counter(telemetry.MetricRowsScanned,
		"Rows scanned across fact and dimension tables.",
		telemetry.L("device", "cape")).Add(scanned)
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
