package exec

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"

	"castle/internal/baseline"
	"castle/internal/bitvec"
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

	tel    *telemetry.Telemetry
	parent *telemetry.Span

	lastRun
}

// streamBatchRows is the CPU streaming chunk size in fact rows: large
// enough to amortize per-chunk overhead, small enough that the per-core
// working set stays cache-resident.
const streamBatchRows = 32768

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
// observed at entry. A single device has no crossing to hide, so a
// streamed run's StreamStats report batches and peak resident chunk bytes
// with zero overlap.
func (x *CPUExec) SetStreaming(on bool) { x.streaming.Store(on) }

// SetTelemetry attaches a telemetry sink and the span Run's operator spans
// should nest under. Both may be nil (telemetry off). Not safe to call
// while a run is in flight.
func (x *CPUExec) SetTelemetry(tel *telemetry.Telemetry, parent *telemetry.Span) {
	x.tel = tel
	x.parent = parent
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
	rows := db.MustTable(q.Fact).Rows()
	runStart := cpu.Cycles()
	bk := newBooks()

	// Dimension prep on the primary core: selection scans plus key and
	// attribute-value collection (collection is functional only; the scans
	// carry the cycle cost).
	joins := make([]dimJoin, 0, len(q.Joins))
	prepRows := make(map[string]int64, len(q.Joins))
	for _, e := range q.Joins {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		spp := x.parent.Child("prep:" + e.Dim)
		prepStart := cpu.Cycles()
		j := cpuPrepareDim(cpu, q, e, db)
		joins = append(joins, j)
		cy := cpu.Cycles() - prepStart
		prepRows[e.Dim] = int64(len(j.keys))
		bk.row("prep:"+e.Dim, "CPU", cy, prepRows[e.Dim])
		spp.SetInt("cycles", cy)
		spp.SetInt("rows_in", int64(db.MustTable(e.Dim).Rows()))
		spp.SetInt("rows_out", int64(len(j.keys)))
		spp.End()
	}
	// The optimized codebase probes the most selective dimension first so
	// later probes see fewer rows.
	sort.SliceStable(joins, func(i, j int) bool { return joins[i].fraction < joins[j].fraction })

	// The fact sweep: filter, probes and the aggregation visit per chunk.
	k := fanOut(int(x.par.Load()), rows)
	step := 0
	if x.streaming.Load() {
		step = streamBatchRows
	}
	attrCount := streamAttrCount(joins)
	laneBatches := make([]int64, k)
	lanePeak := make([]int64, k)
	sweep := x.parent.Child("fact-sweep")
	sweepStart := cpu.Cycles()
	sw, builds, err := x.sweepFact(ctx, q, db, joins, k, step, sweep, func(s *cpuSweep, lane int, c *cpuChunk) error {
		if err := s.runAggregate(ctx, q, db, c.sel, c.attrCols, c.lo, c.hi); err != nil {
			return err
		}
		laneBatches[lane]++
		if b := streamResidentBytes(c.hi-c.lo, attrCount); b > lanePeak[lane] {
			lanePeak[lane] = b
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	acc := sw.lanes[0].acc
	var mergeCycles int64
	if k > 1 {
		// Merge the per-core partial group tables on the primary core, in
		// fixed core order so the accumulated result is deterministic: one
		// hash+update per partial row into a table sized by the merged group
		// count.
		msp := sweep.Child("merge")
		mergeStart := cpu.Cycles()
		var partialRows int64
		acc, partialRows = sw.merge(q)
		kc := cpu.Config().Kernels
		cpu.ChargeCompute(float64(partialRows) * (kc.HashCyclesPerKey + kc.AggUpdateCyclesPerRow))
		cpu.ChargeRandomAccesses(partialRows, int64(len(acc.order))*32)
		mergeCycles = cpu.Cycles() - mergeStart
		msp.SetInt("cycles", mergeCycles)
		msp.SetInt("rows", partialRows)
		msp.End()
	}
	sweep.SetInt("cycles", cpu.Cycles()-sweepStart)
	sweep.End()

	// Hash-table builds count toward their join edge.
	for d, cy := range builds {
		sw.perJoin[d] += cy
	}
	var stream StreamStats
	if step > 0 {
		// Lanes run concurrently, so peak residency is the sum of per-lane
		// chunk high-water marks.
		for i := range laneBatches {
			stream.Batches += laneBatches[i]
			stream.PeakBatchBytes += lanePeak[i]
		}
	}
	groups := int64(len(acc.order))
	if k == 1 {
		bk.row("filter", "CPU", sw.filterCycles, int64(rows))
		for _, e := range q.Joins {
			bk.row("join:"+e.Dim, "CPU", sw.perJoin[e.Dim], -1)
		}
		bk.row("aggregate", "CPU", sw.aggCycles, groups)
	} else {
		for _, e := range q.Joins {
			bk.row("build:"+e.Dim, "CPU", builds[e.Dim], prepRows[e.Dim])
		}
		bk.lanes("CPU", sw.cycles, sw.rows)
		bk.merge("CPU", mergeCycles, groups)
	}
	elapsed := cpu.Cycles() - runStart
	breakdown := bk.close("CPU", elapsed)
	countRowsScanned(x.tel, db, q, DeviceCPU, nil)
	x.last.Store(&closedRun{cpuCycles: elapsed, perJoin: sw.perJoin, stream: stream,
		parallel: bk.parallel, tail: DeviceCPU, breakdown: breakdown})
	return acc.result(q), nil
}

// cpuChunk is one fact-row chunk [lo, hi) after the filter and probe
// kernels: the surviving selection (nil = every row), the materialized
// chunk-aligned dimension-attribute columns keyed "dim.attr", and the
// cycles the kernels charged.
type cpuChunk struct {
	lo, hi   int
	sel      *bitvec.Vector
	attrCols map[string][]uint32
	compute  int64
}

// sweepFact is the CPU's only sweep over a fact table. Lane t owns the
// contiguous row range [t·rows/k, (t+1)·rows/k) — on the primary core when
// k is 1, on forked core t otherwise. A lane with step > 0 sweeps its range
// in step-row chunks; otherwise the whole range is one chunk. Each chunk
// runs the filter and probe kernels and goes to sink.
//
// Hash tables are prebuilt on the primary core, in probe order, when the
// sweep fans out or chunks; the returned map holds their cycles by
// dimension. A serial one-chunk sweep builds each table inline instead,
// inside its join's charges — the pipelined build-probe-build-probe
// sequence, whose float charge order differs — and returns a nil map.
// Forked cores fold back into the primary core: elapsed advances by the
// critical core (raw cycles, so sub-cycle differences cannot flip the
// choice), memory traffic by the sum.
func (x *CPUExec) sweepFact(ctx context.Context, q *plan.Query, db *storage.Database, joins []dimJoin,
	k, step int, span *telemetry.Span, sink func(s *cpuSweep, lane int, c *cpuChunk) error) (*laneSweep, map[string]int64, error) {

	cpu := x.cpu
	rows := db.MustTable(q.Fact).Rows()
	span.SetInt("rows", int64(rows))
	span.SetInt("cores", int64(k))

	var tables []joinTable
	var builds map[string]int64
	if k > 1 || step > 0 {
		tables = make([]joinTable, len(joins))
		builds = make(map[string]int64, len(joins))
		for ji, j := range joins {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
			spb := span.Child("build:" + j.edge.Dim)
			buildStart := cpu.Cycles()
			if len(j.edge.NeedAttrs) == 0 {
				tables[ji].semi = cpu.BuildHashSemi(j.keys)
			} else {
				tables[ji].attr = make([]*baseline.HashTable, len(j.edge.NeedAttrs))
				for ai := range j.edge.NeedAttrs {
					tables[ji].attr[ai] = cpu.BuildHashMap(j.keys, j.vals[ai])
				}
			}
			builds[j.edge.Dim] = cpu.Cycles() - buildStart
			spb.SetInt("cycles", builds[j.edge.Dim])
			spb.SetInt("build_keys", int64(len(j.keys)))
			spb.End()
		}
	}

	cores := []*baseline.CPU{cpu}
	if k > 1 {
		cores = cpu.Fork(k)
	}
	sweeps := make([]*cpuSweep, k)
	books := make([]*laneBooks, k)
	for i, core := range cores {
		sweeps[i] = &cpuSweep{cpu: core, laneBooks: newLaneBooks(q), span: span}
		books[i] = &sweeps[i].laneBooks
		if k > 1 {
			if x.tel != nil {
				// Per-core hooks stream live, so telemetry counters
				// accumulate work cycles (the sum over cores), not elapsed.
				// Each core needs its own bridge closure — the bridge keeps
				// local state.
				AttachCPUTelemetry(core, x.tel)
			}
			sweeps[i].span = span.Child(fmt.Sprintf("core%d", i))
		}
	}

	laneRows := make([]int64, k)
	err := runLanes(k, func(lane int) error {
		s := sweeps[lane]
		if k > 1 {
			defer s.span.End()
		}
		base, end := lane*rows/k, (lane+1)*rows/k
		laneRows[lane] = int64(end - base)
		chunk := func(lo, hi int) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			c0 := s.cpu.Cycles()
			sel, attrCols, err := s.runFilterJoins(ctx, q, db, joins, tables, lo, hi)
			if err != nil {
				return err
			}
			return sink(s, lane, &cpuChunk{lo: lo, hi: hi, sel: sel, attrCols: attrCols, compute: s.cpu.Cycles() - c0})
		}
		var err error
		if step <= 0 {
			err = chunk(base, end)
		}
		for lo := base; step > 0 && lo < end && err == nil; lo += step {
			err = chunk(lo, min(lo+step, end))
		}
		if k > 1 {
			s.span.SetInt("cycles", s.cpu.Cycles())
			s.span.SetInt("rows", laneRows[lane])
		}
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	var laneCycles []int64
	if k > 1 {
		laneCycles = make([]int64, k)
		var maxRaw float64
		for i, core := range cores {
			laneCycles[i] = core.Cycles()
			if raw := core.RawCycles(); raw > maxRaw {
				maxRaw = raw
			}
		}
		cpu.AbsorbElapsed(maxRaw)
		for _, core := range cores {
			cpu.AbsorbTraffic(core)
		}
	}
	return sumLanes(books, laneRows, laneCycles), builds, nil
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
