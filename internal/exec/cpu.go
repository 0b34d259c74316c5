package exec

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"

	"castle/internal/baseline"
	"castle/internal/plan"
	"castle/internal/storage"
	"castle/internal/telemetry"
)

// CPUExec executes bound queries on the baseline AVX-512 core using the
// strategy of the paper's highly-optimized reference codebase (§4.1):
// selections as branchless SIMD scans, dimension hash tables built on the
// filtered dimensions, a pipelined left-deep probe pass over the fact
// relation, and hash aggregation.
//
// Like Castle, all mutable per-run accounting lives in a run-scoped book
// published atomically at run end, so the executor is reentrant; the
// underlying baseline.CPU still executes one run at a time — use one CPU
// (and one CPUExec) per in-flight query, as the server's core pool does.
type CPUExec struct {
	cpu *baseline.CPU

	// par is the number of cores the fact sweep may fan out across (<= 1
	// runs serially). Mirrors Castle.par: an atomic because SetParallelism
	// is safe to call concurrently with RunContext — a run loads the value
	// exactly once at entry.
	par atomic.Int32

	// streaming sweeps the fact table in bounded row chunks instead of one
	// whole-range pass: hash tables build once up front, then each chunk
	// filters, probes and folds into the accumulator before the next chunk
	// starts, bounding the working set (materialized attribute columns and
	// selection bitmap) at O(K·batch) rows. Results are bit-identical.
	streaming atomic.Bool
	// batchRows is the streaming chunk size in fact rows (<= 0 selects
	// defaultStreamBatchRows).
	batchRows atomic.Int32

	tel    *telemetry.Telemetry
	parent *telemetry.Span

	// last is the most recent run's closed books (nil before the first run).
	last atomic.Pointer[cpuRunBooks]
}

// cpuRunBooks is the run-scoped accounting of one RunContext invocation.
type cpuRunBooks struct {
	perJoin     map[string]int64
	prepCycles  map[string]int64
	prepRows    map[string]int64
	buildCycles map[string]int64

	filterCycles int64
	aggCycles    int64

	// Parallel-sweep accounting (coreCycles nil for serial runs).
	cores       int
	coreCycles  []int64
	coreRows    []int64
	mergeCycles int64
	elapsed     int64

	stream StreamStats

	breakdown *telemetry.Breakdown
}

// defaultStreamBatchRows is the CPU streaming chunk size: large enough to
// amortize per-chunk overhead, small enough that the per-core working set
// stays cache-resident.
const defaultStreamBatchRows = 32768

// NewCPUExec wraps a baseline CPU.
func NewCPUExec(cpu *baseline.CPU) *CPUExec { return &CPUExec{cpu: cpu} }

// CPU returns the underlying core (for cycle/traffic inspection).
func (x *CPUExec) CPU() *baseline.CPU { return x.cpu }

// SetParallelism sets how many cores subsequent Runs' fact sweeps may fan
// out across. Values <= 1 run serially; K > 1 forks K sibling cores (shared
// last-level cache split K ways), assigns each a contiguous fact-row range,
// and merges the per-core partial group accumulators in fixed core order, so
// results are bit-identical to serial execution. Safe to call concurrently
// with RunContext: an in-flight run keeps the degree it observed at entry;
// later runs observe the new value.
func (x *CPUExec) SetParallelism(k int) { x.par.Store(int32(k)) }

// SetStreaming toggles chunked fact sweeps for subsequent Runs. Safe to
// call concurrently with RunContext; an in-flight run keeps the mode it
// observed at entry.
func (x *CPUExec) SetStreaming(on bool) { x.streaming.Store(on) }

// SetStreamBatchRows sets the streaming chunk size in fact rows (values
// <= 0 restore the default).
func (x *CPUExec) SetStreamBatchRows(n int) { x.batchRows.Store(int32(n)) }

// StreamStats returns the last run's streaming summary (batches swept and
// peak resident chunk bytes; OverlapCycles is always zero on a single
// device — there is no crossing to hide). Zero for materializing runs.
func (x *CPUExec) StreamStats() StreamStats {
	b := x.last.Load()
	if b == nil {
		return StreamStats{}
	}
	return b.stream
}

// PerJoinCycles returns cycles attributed to each join edge of the last
// Run, keyed by dimension name (build + probe; for parallel runs the build
// on the primary core plus probe work summed across cores). The map is a
// copy; callers may mutate it freely.
func (x *CPUExec) PerJoinCycles() map[string]int64 {
	b := x.last.Load()
	if b == nil {
		return map[string]int64{}
	}
	out := make(map[string]int64, len(b.perJoin))
	for k, v := range b.perJoin {
		out[k] = v
	}
	return out
}

// SetTelemetry attaches a telemetry sink and the span Run's operator spans
// should nest under. Both may be nil (telemetry off). Not safe to call
// while a run is in flight.
func (x *CPUExec) SetTelemetry(tel *telemetry.Telemetry, parent *telemetry.Span) {
	x.tel = tel
	x.parent = parent
}

// Breakdown returns the per-operator cycle breakdown of the last Run. The
// rows partition TotalCycles exactly; parallel runs report per-core sweep
// work plus an explicit negative "parallel-overlap" credit for cycles
// hidden under the critical core. Returns a copy; nil before the first Run.
func (x *CPUExec) Breakdown() *telemetry.Breakdown {
	b := x.last.Load()
	if b == nil {
		return nil
	}
	return b.breakdown.Clone()
}

// ParallelStats returns the last run's sweep execution profile (zero value
// before the first run). Tiles counts cores on this device; slices are
// defensive copies.
func (x *CPUExec) ParallelStats() ParallelStats {
	b := x.last.Load()
	if b == nil {
		return ParallelStats{}
	}
	return ParallelStats{
		Tiles:         b.cores,
		TileCycles:    append([]int64(nil), b.coreCycles...),
		TileRows:      append([]int64(nil), b.coreRows...),
		MergeCycles:   b.mergeCycles,
		ElapsedCycles: b.elapsed,
		WorkCycles:    b.elapsed + overlapHidden(b.coreCycles),
	}
}

// Run executes a bound query and returns its result relation.
func (x *CPUExec) Run(q *plan.Query, db *storage.Database) *Result {
	res, _ := x.RunContext(context.Background(), q, db)
	return res
}

// RunContext is Run with cancellation: ctx is checked at operator
// boundaries (each dimension prep, each join, aggregation) and periodically
// inside the aggregation visit loop, so a canceled or expired context stops
// the simulated work promptly and returns ctx.Err().
//
// With parallelism > 1 the fact sweep runs morsel-parallel: dimension prep
// and hash-table builds stay on the primary core, then K forked cores each
// filter, probe and aggregate a contiguous fact-row range, and the partial
// group accumulators merge in fixed core order. Results are bit-identical
// to serial execution; the primary core's cycles advance by the elapsed
// view (prep + builds + max core + merge) while per-core work remains
// visible through ParallelStats and the breakdown.
func (x *CPUExec) RunContext(ctx context.Context, q *plan.Query, db *storage.Database) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cpu := x.cpu
	fact := db.MustTable(q.Fact)
	rows := fact.Rows()
	run := &cpuRunBooks{
		perJoin:     make(map[string]int64, len(q.Joins)),
		prepCycles:  make(map[string]int64, len(q.Joins)),
		prepRows:    make(map[string]int64, len(q.Joins)),
		buildCycles: make(map[string]int64, len(q.Joins)),
	}
	runStart := cpu.Cycles()

	k := fanOut(int(x.par.Load()), rows)
	run.cores = k

	// Dimension prep on the primary core: selection scans plus key and
	// attribute-value collection (collection is functional only; the scans
	// carry the cycle cost).
	joins := make([]dimJoin, 0, len(q.Joins))
	for _, e := range q.Joins {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		spp := x.parent.Child("prep:" + e.Dim)
		prepStart := cpu.Cycles()
		j := cpuPrepareDim(cpu, q, e, db)
		joins = append(joins, j)
		run.prepCycles[e.Dim] = cpu.Cycles() - prepStart
		run.prepRows[e.Dim] = int64(len(j.keys))
		spp.SetInt("cycles", run.prepCycles[e.Dim])
		spp.SetInt("rows_in", int64(db.MustTable(e.Dim).Rows()))
		spp.SetInt("rows_out", int64(len(j.keys)))
		spp.End()
	}
	// The optimized codebase probes the most selective dimension first so
	// later probes see fewer rows.
	sort.SliceStable(joins, func(i, j int) bool { return joins[i].fraction < joins[j].fraction })

	acc := newGroupAcc(q.Aggs)
	streaming := x.streaming.Load()
	if k == 1 {
		s := &cpuSweep{cpu: cpu, acc: acc, perJoin: run.perJoin, span: x.parent}
		if streaming {
			// Streaming: hash tables build once (their cycles fold into the
			// same per-join books the inline builds would), then the fact
			// range sweeps in bounded chunks, each folded into acc before
			// the next starts.
			tables, err := x.buildJoinTables(ctx, run, joins)
			if err != nil {
				return nil, err
			}
			step := x.streamStep()
			attrCount := streamAttrCount(joins)
			for base := 0; base < rows; base += step {
				end := base + step
				if end > rows {
					end = rows
				}
				if err := s.run(ctx, q, db, joins, tables, base, end); err != nil {
					return nil, err
				}
				run.stream.Batches++
				if b := streamResidentBytes(end-base, attrCount); b > run.stream.PeakBatchBytes {
					run.stream.PeakBatchBytes = b
				}
			}
		} else {
			// Serial: one sweep over the whole fact range on the primary
			// core, building each join's hash table inline (charge order
			// identical to the pipelined build-probe-build-probe sequence).
			if err := s.run(ctx, q, db, joins, nil, 0, rows); err != nil {
				return nil, err
			}
		}
		run.filterCycles, run.aggCycles = s.filterCycles, s.aggCycles
	} else {
		if err := x.runParallelSweep(ctx, run, q, db, joins, rows, k, acc, streaming); err != nil {
			return nil, err
		}
	}

	run.elapsed = cpu.Cycles() - runStart
	x.finishBreakdown(run, q, int64(rows), int64(len(acc.order)))
	if x.tel != nil {
		scanned := int64(rows)
		for _, e := range q.Joins {
			scanned += int64(db.MustTable(e.Dim).Rows())
		}
		x.tel.Metrics().Counter(telemetry.MetricRowsScanned, "Rows scanned across fact and dimension tables.",
			telemetry.L("device", "cpu")).Add(scanned)
	}
	x.last.Store(run)
	return acc.result(q), nil
}

// runParallelSweep builds every join's hash tables once on the primary
// core, forks k sibling cores, and sweeps contiguous fact-row ranges on
// them concurrently. The primary core absorbs the critical (max-cycle)
// core's elapsed time and every core's memory traffic, then pays a merge
// pass that folds the per-core partial group tables together in fixed core
// order.
func (x *CPUExec) runParallelSweep(ctx context.Context, run *cpuRunBooks, q *plan.Query,
	db *storage.Database, joins []dimJoin, rows, k int, acc *groupAcc, streaming bool) error {

	cpu := x.cpu

	tables, err := x.buildJoinTables(ctx, run, joins)
	if err != nil {
		return err
	}

	cores := cpu.Fork(k)
	sweep := x.parent.Child("fact-sweep")
	sweepStart := cpu.Cycles()
	sweeps := make([]*cpuSweep, k)
	for i, core := range cores {
		if x.tel != nil {
			// Per-core hooks stream live, so telemetry counters accumulate
			// work cycles (the sum over cores), not elapsed. Each core needs
			// its own bridge closure — the bridge keeps local state.
			AttachCPUTelemetry(core, x.tel)
		}
		sweeps[i] = &cpuSweep{
			cpu:     core,
			acc:     newGroupAcc(q.Aggs),
			perJoin: make(map[string]int64, len(joins)),
			span:    sweep.Child(fmt.Sprintf("core%d", i)),
		}
	}

	run.coreRows = make([]int64, k)
	step := x.streamStep()
	attrCount := streamAttrCount(joins)
	laneBatches := make([]int64, k)
	lanePeak := make([]int64, k)
	err = runLanes(k, func(ti int) error {
		s := sweeps[ti]
		defer s.span.End()
		base, end := ti*rows/k, (ti+1)*rows/k
		var err error
		if streaming {
			for lo := base; lo < end && err == nil; lo += step {
				hi := lo + step
				if hi > end {
					hi = end
				}
				err = s.run(ctx, q, db, joins, tables, lo, hi)
				laneBatches[ti]++
				if b := streamResidentBytes(hi-lo, attrCount); b > lanePeak[ti] {
					lanePeak[ti] = b
				}
			}
		} else {
			err = s.run(ctx, q, db, joins, tables, base, end)
		}
		s.span.SetInt("cycles", s.cpu.Cycles())
		s.span.SetInt("rows", int64(end-base))
		return err
	})
	if err != nil {
		return err
	}
	if streaming {
		// Lanes run concurrently, so peak residency is the sum of per-lane
		// chunk high-water marks.
		for i := range laneBatches {
			run.stream.Batches += laneBatches[i]
			run.stream.PeakBatchBytes += lanePeak[i]
		}
	}

	// Fold the cores back into the primary: elapsed advances by the critical
	// core (raw cycles, so sub-cycle differences cannot flip the choice),
	// traffic by the sum.
	run.coreCycles = make([]int64, k)
	var maxRaw float64
	for i, s := range sweeps {
		run.coreCycles[i] = s.cpu.Cycles()
		run.coreRows[i] = int64((i+1)*rows/k - i*rows/k)
		if raw := s.cpu.RawCycles(); raw > maxRaw {
			maxRaw = raw
		}
		for d, cy := range s.perJoin {
			run.perJoin[d] += cy
		}
		run.filterCycles += s.filterCycles
		run.aggCycles += s.aggCycles
	}
	cpu.AbsorbElapsed(maxRaw)
	for _, core := range cores {
		cpu.AbsorbTraffic(core)
	}

	// Merge the per-core partial group tables on the primary core, in fixed
	// core order so the accumulated result is deterministic: one hash+update
	// per partial row into a table sized by the merged group count.
	msp := sweep.Child("merge")
	mergeStart := cpu.Cycles()
	var partialRows int64
	for _, s := range sweeps {
		acc.merge(s.acc)
		partialRows += int64(len(s.acc.order))
	}
	kc := cpu.Config().Kernels
	cpu.ChargeCompute(float64(partialRows) * (kc.HashCyclesPerKey + kc.AggUpdateCyclesPerRow))
	cpu.ChargeRandomAccesses(partialRows, int64(len(acc.order))*32)
	run.mergeCycles = cpu.Cycles() - mergeStart
	msp.SetInt("cycles", run.mergeCycles)
	msp.SetInt("rows", partialRows)
	msp.End()

	sweep.SetInt("cycles", cpu.Cycles()-sweepStart)
	sweep.SetInt("rows", int64(rows))
	sweep.SetInt("cores", int64(k))
	sweep.End()
	return nil
}

// buildJoinTables builds every join's hash table once on the primary core,
// in probe order, folding the build cycles into both the per-join and
// per-build books (serial streaming reports them inside "join:" rows,
// parallel runs as explicit "build:" rows).
func (x *CPUExec) buildJoinTables(ctx context.Context, run *cpuRunBooks, joins []dimJoin) ([]joinTable, error) {
	cpu := x.cpu
	tables := make([]joinTable, len(joins))
	for ji, j := range joins {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		spb := x.parent.Child("build:" + j.edge.Dim)
		buildStart := cpu.Cycles()
		if len(j.edge.NeedAttrs) == 0 {
			tables[ji].semi = cpu.BuildHashSemi(j.keys)
		} else {
			tables[ji].attr = make([]*baseline.HashTable, len(j.edge.NeedAttrs))
			for ai := range j.edge.NeedAttrs {
				tables[ji].attr[ai] = cpu.BuildHashMap(j.keys, j.vals[ai])
			}
		}
		cy := cpu.Cycles() - buildStart
		run.buildCycles[j.edge.Dim] = cy
		run.perJoin[j.edge.Dim] += cy
		spb.SetInt("cycles", cy)
		spb.SetInt("build_keys", int64(len(j.keys)))
		spb.End()
	}
	return tables, nil
}

// streamStep returns the configured streaming chunk size in fact rows.
func (x *CPUExec) streamStep() int {
	if n := int(x.batchRows.Load()); n > 0 {
		return n
	}
	return defaultStreamBatchRows
}

// streamAttrCount counts the dimension-attribute columns a sweep
// materializes per chunk — the dominant term of the chunk working set.
func streamAttrCount(joins []dimJoin) int {
	n := 0
	for _, j := range joins {
		n += len(j.edge.NeedAttrs)
	}
	return n
}

// streamResidentBytes models one chunk's resident working set: 4-byte
// materialized attribute values per surviving probe plus the selection
// bitmap.
func streamResidentBytes(rows, attrCount int) int64 {
	return int64(4*rows*attrCount) + int64(rows+7)/8
}

// finishBreakdown closes the per-operator books for the last Run; the rows
// partition TotalCycles exactly, with an explicit "overhead" remainder.
// Parallel runs replace the serial filter/join/aggregate rows with build
// rows, per-core sweep work, a negative "parallel-overlap" credit (cores
// run concurrently, so only the critical core's cycles are elapsed time)
// and a "merge" row.
func (x *CPUExec) finishBreakdown(run *cpuRunBooks, q *plan.Query, factRows, groups int64) {
	b := &telemetry.Breakdown{Device: "CPU", TotalCycles: run.elapsed}
	var covered int64
	for _, e := range q.Joins {
		b.Operators = append(b.Operators, telemetry.OperatorStats{
			Operator: "prep:" + e.Dim, Device: "CPU", Cycles: run.prepCycles[e.Dim], Rows: run.prepRows[e.Dim],
		})
		covered += run.prepCycles[e.Dim]
	}
	if run.coreCycles == nil {
		b.Operators = append(b.Operators, telemetry.OperatorStats{
			Operator: "filter", Device: "CPU", Cycles: run.filterCycles, Rows: factRows,
		})
		covered += run.filterCycles
		for _, e := range q.Joins {
			b.Operators = append(b.Operators, telemetry.OperatorStats{
				Operator: "join:" + e.Dim, Device: "CPU", Cycles: run.perJoin[e.Dim], Rows: -1,
			})
			covered += run.perJoin[e.Dim]
		}
		b.Operators = append(b.Operators, telemetry.OperatorStats{
			Operator: "aggregate", Device: "CPU", Cycles: run.aggCycles, Rows: groups,
		})
		covered += run.aggCycles
	} else {
		for _, e := range q.Joins {
			b.Operators = append(b.Operators, telemetry.OperatorStats{
				Operator: "build:" + e.Dim, Device: "CPU", Cycles: run.buildCycles[e.Dim], Rows: run.prepRows[e.Dim],
			})
			covered += run.buildCycles[e.Dim]
		}
		for t, cy := range run.coreCycles {
			b.Operators = append(b.Operators, telemetry.OperatorStats{
				Operator: fmt.Sprintf("sweep[%d]", t), Device: "CPU", Cycles: cy, Rows: run.coreRows[t],
			})
			covered += cy
		}
		// The cores overlapped: only the critical core is elapsed time, so
		// credit the hidden work back with an explicit negative row.
		hidden := overlapHidden(run.coreCycles)
		b.Operators = append(b.Operators, telemetry.OperatorStats{
			Operator: "parallel-overlap", Device: "CPU", Cycles: -hidden, Rows: -1,
		})
		covered -= hidden
		b.Operators = append(b.Operators, telemetry.OperatorStats{
			Operator: "merge", Device: "CPU", Cycles: run.mergeCycles, Rows: groups,
		})
		covered += run.mergeCycles
	}
	if oh := run.elapsed - covered; oh != 0 {
		b.Operators = append(b.Operators, telemetry.OperatorStats{
			Operator: "overhead", Device: "CPU", Cycles: oh, Rows: -1,
		})
	}
	run.breakdown = b
}
