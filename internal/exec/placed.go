package exec

// placed.go executes plans whose operator pipeline spans both devices — the
// paper's §7.2 hybrid case with per-operator granularity. The fused fact
// stage (Scan+Filter+JoinProbe) runs on one device using the same kernels
// the single-device executors run (tileSweep / cpuSweep), each DimBuild runs
// on its placed device (paying an explicit transfer when it feeds the other
// side), and the aggregation tail runs on its placed device over the
// survivor tuples the fact stage ships across.
//
// Results are bit-identical to the single-device engines: the fact stage
// computes the same survivor set either way, survivors are consumed in
// ascending row order lane by lane, and each aggregation kernel keeps its
// device's exact arithmetic (which agree on every supported shape).

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"castle/internal/baseline"
	"castle/internal/bitvec"
	"castle/internal/cape"
	"castle/internal/plan"
	"castle/internal/stats"
	"castle/internal/storage"
	"castle/internal/telemetry"
)

// Placed executes placed operator pipelines (plan.PlacedPlan) across a CAPE
// engine and a baseline core. Uniform placements delegate to the
// single-device executors; mixed placements run the split pipeline here.
type Placed struct {
	castle *Castle
	cpu    *CPUExec
	cat    *stats.Catalog

	// par mirrors Castle.par: the fact-stage fan-out degree for subsequent
	// runs, atomically retargetable while a run is in flight.
	par atomic.Int32

	// streaming selects the pull-based batch pipeline for mixed runs: the
	// fact stage produces MAXVL-sized batches through a BatchSource, the
	// tail consumes each batch immediately (peak memory O(K·MAXVL) instead
	// of O(table)), and the device crossing is double-buffered so interior
	// transfers hide under the next batch's compute. Results are
	// bit-identical to materializing.
	streaming atomic.Bool

	tel    *telemetry.Telemetry
	parent *telemetry.Span

	last atomic.Pointer[placedBooks]
}

// placedBooks is the closed accounting of one placed run.
type placedBooks struct {
	capeCycles int64
	cpuCycles  int64
	stream     StreamStats
	// parallel is the fact stage's fan-out profile; split runs report their
	// lanes' work the way the single-device executors do.
	parallel ParallelStats
	// tail is the device the aggregation tail ran on.
	tail      plan.Device
	breakdown *telemetry.Breakdown
}

// NewPlaced couples the two single-device executors into a placed-pipeline
// executor. The executors' engines are shared: cycle accounting accumulates
// on them exactly as single-device runs do.
func NewPlaced(castle *Castle, cpu *CPUExec, cat *stats.Catalog) *Placed {
	return &Placed{castle: castle, cpu: cpu, cat: cat}
}

// SetParallelism sets the fact-stage fan-out degree for subsequent runs
// (tiles when the fact stage is on CAPE, cores when on the CPU). The
// aggregation tail of a mixed placement always runs on its device's primary
// engine — it is a pipeline consumer fed by every lane, merged in fixed
// lane order so results stay bit-identical. Safe to call concurrently with
// RunContext; an in-flight run keeps the degree it observed at entry.
func (x *Placed) SetParallelism(k int) { x.par.Store(int32(k)) }

// SetStreaming toggles the pull-based batch pipeline for subsequent runs.
// Safe to call concurrently with RunContext; an in-flight run keeps the
// mode it observed at entry.
func (x *Placed) SetStreaming(on bool) { x.streaming.Store(on) }

// StreamStats returns the last run's streaming summary: batches produced,
// transfer cycles hidden under compute, and peak resident batch bytes. All
// zero for materializing runs and before the first run.
func (x *Placed) StreamStats() StreamStats {
	if b := x.last.Load(); b != nil {
		return b.stream
	}
	return StreamStats{}
}

// SetTelemetry attaches a telemetry sink and parent span for subsequent
// runs (either may be nil). Not safe to call while a run is in flight.
func (x *Placed) SetTelemetry(tel *telemetry.Telemetry, parent *telemetry.Span) {
	x.tel = tel
	x.parent = parent
	x.castle.SetTelemetry(tel, parent)
	x.cpu.SetTelemetry(tel, parent)
}

// Breakdown returns the last run's per-operator cycle breakdown. For mixed
// runs every row carries the device it ran on, device crossings appear as
// explicit "xfer:" rows, and the rows partition the combined two-device
// total exactly. Returns a copy; nil before the first run.
func (x *Placed) Breakdown() *telemetry.Breakdown {
	if b := x.last.Load(); b != nil {
		return b.breakdown.Clone()
	}
	return nil
}

// DeviceCycles returns the last run's per-device cycle split (CAPE, CPU);
// both zero before the first run.
func (x *Placed) DeviceCycles() (int64, int64) {
	if b := x.last.Load(); b != nil {
		return b.capeCycles, b.cpuCycles
	}
	return 0, 0
}

// Run executes a placed plan. See RunContext.
func (x *Placed) Run(pp *plan.PlacedPlan, db *storage.Database) (*Result, error) {
	return x.RunContext(context.Background(), pp, db)
}

// RunContext executes a placed operator pipeline. Uniform placements
// delegate to the owning single-device executor (identical results,
// identical accounting); mixed placements run the fact stage on its device
// — morsel-parallel across K lanes when parallelism is set — ship the
// survivor tuples across the device boundary, and run the aggregation tail
// on the other device. A mixed run's TotalCycles is the sum of both
// devices' advances: the tail consumes the fact stage's output, so the
// phases serialize across the boundary.
func (x *Placed) RunContext(ctx context.Context, pp *plan.PlacedPlan, db *storage.Database) (*Result, error) {
	res, _, err := x.run(ctx, pp, db, nil)
	return res, err
}

// run executes pp. Static uniform placements delegate to the owning
// single-device executor; everything else runs the split pipeline —
// dimension builds and the fused fact stage on the fact device, then, after
// the adaptive checkpoint when adapt is set, the aggregation tail on its
// device.
func (x *Placed) run(ctx context.Context, pp *plan.PlacedPlan, db *storage.Database,
	adapt *AdaptiveOptions) (*Result, AdaptiveStats, error) {

	var ast AdaptiveStats
	if adapt != nil {
		ast = AdaptiveStats{EstSurvivors: adapt.EstSurvivors, TailDevice: pp.AggDevice()}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := pp.Validate(); err != nil {
		return nil, ast, err
	}
	if dev, uniform := pp.Uniform(); uniform && adapt == nil {
		res, err := x.runUniform(ctx, pp, db, dev)
		return res, ast, err
	}

	q := pp.Phys.Query
	// A static split run aggregates on the device opposite its fact stage,
	// even when only a dimension build crossed and the plan kept the tail
	// on the fact device — except a grouped SUM(a*b), which CAPE's tail
	// cannot run. The checkpoint starts from the planned tail.
	tail := plan.DeviceCAPE
	if pp.FactDevice() == plan.DeviceCAPE || q.GroupedSumMul() {
		tail = plan.DeviceCPU
	}
	eng, cpu := x.castle.eng, x.cpu.cpu
	capeStart, cpuStart := eng.TotalCycles(), cpu.Cycles()
	bk := newPlacedBreakdown()
	// Only a crossing streams: a streaming CPU fact stage folds its batches
	// straight into the CAPE tail.
	streaming := adapt == nil && x.streaming.Load() && tail != pp.FactDevice()
	var fs *factOutput
	var err error
	if pp.FactDevice() == plan.DeviceCAPE {
		fs, err = x.runCAPEFact(ctx, pp, db, bk, streaming)
	} else {
		fs, err = x.runCPUFact(ctx, pp, db, bk, streaming)
	}
	if err != nil {
		return nil, ast, err
	}
	if adapt != nil {
		tail = ast.checkpoint(*adapt, q, fs.ships)
	}
	if err := ctx.Err(); err != nil {
		return nil, ast, err
	}
	acc, err := x.runTail(ctx, q, db.MustTable(q.Fact), tail, fs, bk)
	if err != nil {
		return nil, ast, err
	}
	x.publish(bk, eng.TotalCycles()-capeStart, cpu.Cycles()-cpuStart, fs, tail)
	return acc.result(q), ast, nil
}

// runUniform delegates a single-device placement to the owning executor and
// republishes its books.
func (x *Placed) runUniform(ctx context.Context, pp *plan.PlacedPlan, db *storage.Database, dev plan.Device) (*Result, error) {
	capeStart := x.castle.eng.TotalCycles()
	cpuStart := x.cpu.cpu.Cycles()
	var res *Result
	var err error
	if dev == plan.DeviceCPU {
		x.cpu.SetParallelism(int(x.par.Load()))
		x.cpu.SetStreaming(x.streaming.Load())
		res, err = x.cpu.RunContext(ctx, pp.Phys.Query, db)
	} else {
		x.castle.SetParallelism(int(x.par.Load()))
		x.castle.SetStreaming(x.streaming.Load())
		res, err = x.castle.RunContext(ctx, pp.Phys, db)
	}
	if err != nil {
		return nil, err
	}
	books := &placedBooks{
		capeCycles: x.castle.eng.TotalCycles() - capeStart,
		cpuCycles:  x.cpu.cpu.Cycles() - cpuStart,
		tail:       dev,
	}
	if dev == plan.DeviceCPU {
		books.breakdown = x.cpu.Breakdown()
		books.stream = x.cpu.StreamStats()
		books.parallel = x.cpu.ParallelStats()
	} else {
		books.breakdown = x.castle.Breakdown()
		books.stream = x.castle.StreamStats()
		books.parallel = x.castle.ParallelStats()
	}
	x.last.Store(books)
	return res, nil
}

// placedBreakdown accumulates the operator rows of a mixed run.
type placedBreakdown struct {
	ops     []telemetry.OperatorStats
	perJoin map[string]int64
}

func newPlacedBreakdown() *placedBreakdown {
	return &placedBreakdown{perJoin: make(map[string]int64)}
}

func (b *placedBreakdown) row(op, dev string, cycles, rows int64) {
	b.ops = append(b.ops, telemetry.OperatorStats{Operator: op, Device: dev, Cycles: cycles, Rows: rows})
}

// lanes emits one "sweep[t]" row per fact-stage lane plus the negative
// "parallel-overlap" credit for the work hidden under the critical lane,
// and returns the fan-out profile (publish fills in the elapsed views).
func (b *placedBreakdown) lanes(dev string, cycles, rows []int64) ParallelStats {
	for t, cy := range cycles {
		b.row(fmt.Sprintf("sweep[%d]", t), dev, cy, rows[t])
	}
	b.row("parallel-overlap", dev, -overlapHidden(cycles), -1)
	return ParallelStats{Tiles: len(cycles), TileCycles: cycles, TileRows: rows}
}

// publish closes a split run's books: the operator rows plus an explicit
// "overhead" remainder partition the total exactly. For streaming runs the
// total is the elapsed view — both devices' work minus the transfer cycles
// that hid under the next batch's compute — and the hidden portion appears
// as an explicit negative "xfer-overlap" credit row so the rows still
// partition TotalCycles exactly.
func (x *Placed) publish(bk *placedBreakdown, capeCycles, cpuCycles int64, fs *factOutput, tail plan.Device) {
	stream := fs.stream
	if stream.OverlapCycles != 0 {
		bk.row("xfer-overlap", "CAPE+CPU", -stream.OverlapCycles, -1)
	}
	total := capeCycles + cpuCycles - stream.OverlapCycles
	var covered int64
	for _, o := range bk.ops {
		covered += o.Cycles
	}
	bk.ops = append(bk.ops, telemetry.OperatorStats{
		Operator: "overhead", Device: "CAPE+CPU", Cycles: total - covered, Rows: -1})
	ps := fs.parallel
	ps.ElapsedCycles = total
	ps.WorkCycles = total + overlapHidden(ps.TileCycles)
	x.last.Store(&placedBooks{
		capeCycles: capeCycles,
		cpuCycles:  cpuCycles,
		stream:     stream,
		parallel:   ps,
		tail:       tail,
		breakdown:  &telemetry.Breakdown{Device: "CAPE+CPU", Operators: bk.ops, TotalCycles: total},
	})
}

// shipTailCols lists the dimension attributes ("dim.attr") a device
// crossing before aggregation must carry, and the width of one shipped
// tuple in 4-byte fields: the row identifier plus those attributes (fact
// columns are re-read by the consumer from shared memory).
func shipTailCols(q *plan.Query) (attrKeys []string, cols int) {
	for _, g := range q.GroupBy {
		if g.Table != q.Fact {
			attrKeys = append(attrKeys, g.Table+"."+g.Column)
		}
	}
	return attrKeys, 1 + len(attrKeys)
}

// factOutput is what a split run's fact stage hands its aggregation tail.
type factOutput struct {
	shipCols int
	// ships holds each lane's survivor tuples when the stage materializes.
	ships []*Batch
	// consumers holds each lane's CPU-tail consumer when a CAPE fact stage
	// streams: every batch was folded the moment it landed.
	consumers []*cpuAggConsumer
	// acc and aggCycles carry the CAPE tail a streaming CPU fact stage
	// already folded batch by batch (acc is nil otherwise).
	acc       *groupAcc
	aggCycles int64

	stream   StreamStats
	parallel ParallelStats
}

// runTail runs the aggregation tail on dev over the fact stage's output and
// records its "aggregate" row. A CPU tail folds the survivor tuples (or
// merges the streamed lane accumulators in fixed lane order) and pays the
// bulk hash-aggregation charge once, so streamed and materialized CPU
// cycles match exactly; a CAPE tail loads each lane's shipment into the CSB
// in MAXVL chunks and runs Algorithm 2 over each chunk.
func (x *Placed) runTail(ctx context.Context, q *plan.Query, fact *storage.Table, dev plan.Device,
	fs *factOutput, bk *placedBreakdown) (*groupAcc, error) {

	spa := x.parent.Child("aggregate")
	defer spa.End()
	acc := fs.acc
	var cycles int64
	switch {
	case dev == plan.DeviceCPU:
		cpu := x.cpu.cpu
		a0 := cpu.Cycles()
		acc = newGroupAcc(q.Aggs)
		cons := newCPUAggConsumer(q, fact, acc)
		for _, lane := range fs.consumers {
			acc.merge(lane.acc)
			cons.matched += lane.matched
		}
		for _, ship := range fs.ships {
			if err := cons.consume(ctx, ship); err != nil {
				return nil, err
			}
		}
		cons.charge(cpu, fs.shipCols, acc, cons.matched)
		cycles = cpu.Cycles() - a0
		spa.SetInt("rows", cons.matched)
	case acc == nil:
		eng := x.castle.eng
		a0 := eng.TotalCycles()
		acc = newGroupAcc(q.Aggs)
		if err := x.capeAggregateShipments(ctx, q, fact, fs.ships, acc); err != nil {
			return nil, err
		}
		cycles = eng.TotalCycles() - a0
	default:
		cycles = fs.aggCycles
	}
	if len(q.GroupBy) == 0 && len(acc.order) == 0 {
		acc.add(nil, make([]int64, len(q.Aggs)), 0)
	}
	bk.row("aggregate", dev.String(), cycles, int64(len(acc.order)))
	spa.SetInt("cycles", cycles)
	spa.SetInt("groups", int64(len(acc.order)))
	return acc, nil
}

// ---------------------------------------------------------------------------
// CAPE fact stage (the paper's hybrid direction: selective fact filtering
// on the AP, high-cardinality aggregation on the CPU).
// ---------------------------------------------------------------------------

// runCAPEFact runs the dimension builds and the fused Scan+Filter+JoinProbe
// stage with CAPE as the fact device. Every lane — the primary engine when
// K is 1, one forked tile each otherwise — pulls its MAXVL partitions
// through one capeFactSource loop: streaming lanes fold each batch into
// their CPU-tail consumer as it lands, materializing lanes append it to one
// shipment per lane. With fusion disabled each lane then pays the fission
// overhead for the partitions it swept, as Castle's sweep does.
func (x *Placed) runCAPEFact(ctx context.Context, pp *plan.PlacedPlan, db *storage.Database,
	bk *placedBreakdown, streaming bool) (*factOutput, error) {

	p := pp.Phys
	q := p.Query
	eng := x.castle.eng
	cpu := x.cpu.cpu
	cfg := eng.Config()
	camCapable := cfg.EnableADL
	if camCapable {
		eng.SetLayout(cape.CAMMode)
	}

	// --- DimBuild per edge, on its placed device; CPU-built dimensions ship
	// their values arrays into CAPE.
	dims := make([]dimSide, len(p.Joins))
	for i, e := range p.Joins {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		dev := pp.DimDevice(e.Dim)
		sp := x.parent.Child("prep:" + e.Dim)
		c0, u0 := eng.TotalCycles(), cpu.Cycles()
		if dev == plan.DeviceCAPE {
			dims[i] = capePrepareDim(eng, x.cat, q, e, db)
		} else {
			j := cpuPrepareDim(cpu, q, e, db)
			dims[i] = dimSide{edge: e, keys: j.keys, attrs: j.vals, totalRows: db.MustTable(e.Dim).Rows()}
		}
		c1, u1 := eng.TotalCycles(), cpu.Cycles()
		bk.row("prep:"+e.Dim, dev.String(), (c1-c0)+(u1-u0), int64(len(dims[i].keys)))
		if dev == plan.DeviceCPU {
			// Ship the values array across: the core streams it out, the AP
			// streams it in, and the CP rebuilds the attribute grouping an
			// on-device prep would have built.
			bytes := int64(4 * len(dims[i].keys) * (1 + len(e.NeedAttrs)))
			cpu.ChargeStreamWrite(0, bytes)
			eng.ChargeStreamRead(bytes)
			dims[i].buildGroups(e)
			if len(e.NeedAttrs) > 0 {
				eng.Scalar(int64(4 * len(dims[i].keys)))
			}
			c2, u2 := eng.TotalCycles(), cpu.Cycles()
			bk.row("xfer:"+e.Dim, "CAPE+CPU", (c2-c1)+(u2-u1), int64(len(dims[i].keys)))
		}
		sp.SetInt("rows_out", int64(len(dims[i].keys)))
		sp.End()
	}

	// --- Fact stage on CAPE: Scan+Filter+JoinProbe per partition, gathering
	// survivor tuples instead of aggregating.
	fact := db.MustTable(q.Fact)
	factRows := fact.Rows()
	maxvl := cfg.MAXVL
	parts := (factRows + maxvl - 1) / maxvl
	k := fanOut(int(x.par.Load()), parts)
	attrKeys, shipCols := shipTailCols(q)
	fs := &factOutput{shipCols: shipCols}
	sweep := x.parent.Child("fact-sweep")
	sweepStart := eng.TotalCycles()

	srcs := make([]*capeFactSource, k)
	newSource := func(lane int, s *tileSweep) *capeFactSource {
		return &capeFactSource{s: s, p: p, db: db, dims: dims,
			attrKeys: attrKeys, shipCols: shipCols, camCapable: camCapable,
			factRows: factRows, maxvl: maxvl, next: lane, stride: k, ch: &xferChannel{}}
	}
	var group *cape.TileGroup
	if k == 1 {
		srcs[0] = newSource(0, &tileSweep{cat: x.cat, opts: x.castle.opts, eng: eng, perJoin: bk.perJoin, span: sweep})
	} else {
		group = eng.Fork(k)
		for i, t := range group.Tiles() {
			if x.tel != nil {
				AttachEngineTelemetry(t, x.tel)
			}
			srcs[i] = newSource(i, &tileSweep{cat: x.cat, opts: x.castle.opts, eng: t,
				perJoin: make(map[string]int64, len(p.Joins)),
				span:    sweep.Child(fmt.Sprintf("tile%d", i))})
		}
	}
	if streaming {
		fs.consumers = make([]*cpuAggConsumer, k)
		for i := range fs.consumers {
			fs.consumers[i] = newCPUAggConsumer(q, fact, newGroupAcc(q.Aggs))
		}
	} else {
		fs.ships = make([]*Batch, k)
		for i := range fs.ships {
			fs.ships[i] = NewBatch(0, attrKeys)
		}
	}
	err := runLanes(k, func(lane int) error {
		src := srcs[lane]
		if k > 1 {
			defer src.s.span.End()
		}
		for {
			b, err := src.Next(ctx)
			if err != nil {
				return err
			}
			if b == nil {
				break
			}
			if !streaming {
				fs.ships[lane].append(b)
			} else if err := fs.consumers[lane].consume(ctx, b); err != nil {
				return err
			}
		}
		if !x.castle.opts.Fusion {
			src.s.chargeFissionOverhead(p, (parts-lane+k-1)/k, maxvl)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	if k == 1 {
		src := srcs[0]
		bk.row("filter", "CAPE", src.s.filterCycles, int64(factRows))
		for _, e := range p.Joins {
			bk.row("join:"+e.Dim, "CAPE", bk.perJoin[e.Dim], -1)
		}
		bk.row("xfer:aggregate", "CAPE+CPU", src.ch.xferCycles, src.rowsOut)
		fs.parallel = ParallelStats{Tiles: 1}
		if streaming {
			fs.stream = StreamStats{Batches: src.ch.batches, OverlapCycles: src.ch.credit, PeakBatchBytes: src.ch.peakBytes}
		}
	} else {
		// Elapsed advances by the critical tile; per-tile work (including
		// each tile's export charges) shows as sweep rows with the hidden
		// overlap credited back, as in the single-device executors.
		tileCycles := group.Merge()
		rows := make([]int64, k)
		credits := make([]int64, k)
		for i, src := range srcs {
			rows[i] = src.rowsIn
			credits[i] = src.ch.credit
			for d, cy := range src.s.perJoin {
				bk.perJoin[d] += cy
			}
		}
		fs.parallel = bk.lanes("CAPE", tileCycles, rows)
		if streaming {
			// The run-level credit is bounded by the critical lane: the tiles
			// already overlap each other, so only the transfer cycles that
			// shorten the critical path count.
			for _, src := range srcs {
				fs.stream.Batches += src.ch.batches
				fs.stream.PeakBatchBytes += src.ch.peakBytes
			}
			fs.stream.OverlapCycles = overlapElapsedCredit(tileCycles, credits)
		}
	}
	sweep.SetInt("cycles", eng.TotalCycles()-sweepStart)
	sweep.SetInt("tiles", int64(k))
	sweep.End()
	return fs, nil
}

// capeFactSource is the CAPE-side batch producer for one fact-stage lane:
// each Next runs the fused Scan+Filter+JoinProbe kernels over the lane's
// next MAXVL partition, exports the survivors as a batch, and records the
// (compute, transfer) split into the lane's double-buffered channel.
type capeFactSource struct {
	s          *tileSweep
	p          *plan.Physical
	db         *storage.Database
	dims       []dimSide
	attrKeys   []string
	shipCols   int
	camCapable bool

	factRows int
	maxvl    int
	next     int // partition index of the next batch
	stride   int // partition stride between this lane's batches

	ch      *xferChannel
	rowsIn  int64 // fact rows swept
	rowsOut int64 // survivors exported
}

func (src *capeFactSource) Next(ctx context.Context) (*Batch, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	base := src.next * src.maxvl
	if src.maxvl <= 0 || base >= src.factRows {
		return nil, nil
	}
	vl := src.factRows - base
	if vl > src.maxvl {
		vl = src.maxvl
	}
	s := src.s
	c0 := s.eng.TotalCycles()
	rowMask, _, attrRegs, _, err := s.runFilterJoins(ctx, src.p, src.db, src.dims, base, vl)
	if err != nil {
		return nil, err
	}
	compute := s.eng.TotalCycles() - c0
	b := NewBatch(base, src.attrKeys)
	e0 := s.eng.TotalCycles()
	exportSurvivors(s.eng, b, rowMask, base, src.attrKeys, attrRegs, src.shipCols)
	xfer := s.eng.TotalCycles() - e0
	if src.camCapable {
		s.eng.SetLayout(cape.CAMMode)
	}
	src.ch.record(compute, xfer, b.ShipBytes(src.shipCols))
	src.rowsIn += int64(vl)
	src.rowsOut += int64(b.Len())
	src.next += src.stride
	return b, nil
}

// exportSurvivors gathers one partition's surviving rows into the lane's
// batch and bills the CAPE side of the crossing: a CP gather loop over the
// survivors plus the streamed tuple bytes.
func exportSurvivors(eng *cape.Engine, b *Batch, rowMask *bitvec.Vector, base int,
	attrKeys []string, attrRegs map[string]cape.VReg, shipCols int) {

	attrData := make([][]uint32, len(attrKeys))
	for ai, key := range attrKeys {
		r, ok := attrRegs[key]
		if !ok {
			panic("exec: shipped attribute " + key + " was not materialized by any join")
		}
		attrData[ai] = eng.Peek(r)
	}
	var n int64
	for i := rowMask.First(); i != -1; i = rowMask.NextAfter(i) {
		b.Rows = append(b.Rows, base+i)
		for ai, key := range attrKeys {
			b.Attrs[key] = append(b.Attrs[key], attrData[ai][i])
		}
		n++
	}
	eng.Scalar(2 * n)
	eng.ChargeStreamWrite(4 * n * int64(shipCols))
}

// cpuAggConsumer folds shipped survivor tuples into a groupAcc with the
// CPU's exact aggregation semantics. Consumption is pure bookkeeping — the
// hash-aggregation charge model is paid once, in bulk, by charge, from
// totals that are identical whether the tuples arrived as whole-lane
// shipments or as a stream of batches. That split is what keeps streaming
// CPU cycles bit-identical to materializing.
type cpuAggConsumer struct {
	q    *plan.Query
	fact *storage.Table
	acc  *groupAcc

	valueOf       []func(row int) int64
	distinctSlots []distinctSlot
	keySrc        []func(b *Batch, si, row int) uint32
	aggCols       int
	factGroupCols int

	keys    []uint32
	aggs    []int64
	matched int64
}

type distinctSlot struct {
	slot int
	col  []uint32
}

func newCPUAggConsumer(q *plan.Query, fact *storage.Table, acc *groupAcc) *cpuAggConsumer {
	cc := &cpuAggConsumer{q: q, fact: fact, acc: acc,
		keys: make([]uint32, len(q.GroupBy)), aggs: make([]int64, len(q.Aggs))}
	cc.valueOf = make([]func(row int) int64, len(q.Aggs))
	for ai, a := range q.Aggs {
		cc.aggCols++
		switch a.Kind {
		case plan.AggSumCol, plan.AggMin, plan.AggMax, plan.AggAvg:
			col := fact.MustColumn(a.A).Data
			cc.valueOf[ai] = func(r int) int64 { return int64(col[r]) }
		case plan.AggSumMul:
			ca, cb := fact.MustColumn(a.A).Data, fact.MustColumn(a.B).Data
			cc.valueOf[ai] = func(r int) int64 { return int64(ca[r]) * int64(cb[r]) }
			cc.aggCols++
		case plan.AggSumSub:
			ca, cb := fact.MustColumn(a.A).Data, fact.MustColumn(a.B).Data
			cc.valueOf[ai] = func(r int) int64 { return int64(ca[r]) - int64(cb[r]) }
			cc.aggCols++
		case plan.AggCount:
			cc.valueOf[ai] = func(r int) int64 { return 1 }
		case plan.AggCountDistinct:
			col := fact.MustColumn(a.A).Data
			cc.valueOf[ai] = func(r int) int64 { return 0 }
			cc.distinctSlots = append(cc.distinctSlots, distinctSlot{slot: ai, col: col})
		}
	}
	cc.keySrc = make([]func(b *Batch, si, row int) uint32, len(q.GroupBy))
	for gi, g := range q.GroupBy {
		if g.Table == q.Fact {
			col := fact.MustColumn(g.Column).Data
			cc.keySrc[gi] = func(_ *Batch, _ int, r int) uint32 { return col[r] }
			cc.factGroupCols++
			continue
		}
		key := g.Table + "." + g.Column
		cc.keySrc[gi] = func(b *Batch, si int, _ int) uint32 { return b.Attrs[key][si] }
	}
	return cc
}

// consume folds one batch into the accumulator, checkpointing ctx every
// cancelCheckRows matched rows.
func (cc *cpuAggConsumer) consume(ctx context.Context, b *Batch) error {
	for si, row := range b.Rows {
		if cc.matched%cancelCheckRows == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		for gi := range cc.keySrc {
			cc.keys[gi] = cc.keySrc[gi](b, si, row)
		}
		for ai := range cc.valueOf {
			cc.aggs[ai] = cc.valueOf[ai](row)
		}
		cc.acc.add(cc.keys, cc.aggs, 1)
		for _, d := range cc.distinctSlots {
			cc.acc.addDistinct(cc.keys, d.slot, []uint32{d.col[row]})
		}
		cc.matched++
	}
	return nil
}

// charge pays the bulk hash-aggregation charge model: the shipped tuples
// stream in, each row gathers its fact fields and pays the hash-aggregation
// constants (cpuSweep.runAggregate with the full-column stream replaced by
// the tuple + gathered fields). acc and matched are passed explicitly so a
// fanned-out run can charge once over its merged accumulator.
func (cc *cpuAggConsumer) charge(cpu *baseline.CPU, shipCols int, acc *groupAcc, matched int64) {
	touchedBytes := matched * 4 * int64(shipCols+cc.aggCols+cc.factGroupCols)
	k := cpu.Config().Kernels
	if len(cc.q.GroupBy) == 0 {
		cpu.ChargeStream(float64(matched)*0.4, touchedBytes)
	} else {
		cpu.ChargeStream(float64(matched)*(k.HashCyclesPerKey+k.AggUpdateCyclesPerRow), touchedBytes)
		cpu.ChargeRandomAccesses(matched, int64(len(acc.order))*32)
	}
	if len(cc.distinctSlots) > 0 {
		var setEntries int64
		for _, r := range acc.rows {
			for _, set := range r.sets {
				setEntries += int64(len(set))
			}
		}
		for range cc.distinctSlots {
			cpu.ChargeCompute(float64(matched) * k.HashCyclesPerKey)
			cpu.ChargeRandomAccesses(matched, setEntries*16)
		}
	}
}

// ---------------------------------------------------------------------------
// CPU fact stage (the reverse crossing; rarely chosen by the cost model but
// fully supported, and exercised by the forced-placement differential
// columns).
// ---------------------------------------------------------------------------

// runCPUFact runs the dimension builds and the filter+probe fact stage with
// the CPU as the fact device. Materializing lanes gather their survivors
// into one shipment each; streaming lanes feed every chunk straight into
// the CAPE aggregation tail, whose layout and hash tables are set up once
// before the first chunk.
func (x *Placed) runCPUFact(ctx context.Context, pp *plan.PlacedPlan, db *storage.Database,
	bk *placedBreakdown, streaming bool) (*factOutput, error) {

	p := pp.Phys
	q := p.Query
	eng := x.castle.eng
	cpu := x.cpu.cpu
	camCapable := eng.Config().EnableADL

	// --- DimBuild per edge; CAPE-built dimensions ship their values arrays
	// to the CPU.
	joins := make([]dimJoin, 0, len(p.Joins))
	for _, e := range p.Joins {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		dev := pp.DimDevice(e.Dim)
		sp := x.parent.Child("prep:" + e.Dim)
		c0, u0 := eng.TotalCycles(), cpu.Cycles()
		var j dimJoin
		if dev == plan.DeviceCPU {
			j = cpuPrepareDim(cpu, q, e, db)
		} else {
			if camCapable {
				eng.SetLayout(cape.CAMMode)
			}
			d := capePrepareDim(eng, x.cat, q, e, db)
			j = dimJoin{edge: e, keys: d.keys, vals: d.attrs, fraction: 1}
			if d.totalRows > 0 {
				j.fraction = float64(len(d.keys)) / float64(d.totalRows)
			}
		}
		c1, u1 := eng.TotalCycles(), cpu.Cycles()
		bk.row("prep:"+e.Dim, dev.String(), (c1-c0)+(u1-u0), int64(len(j.keys)))
		if dev == plan.DeviceCAPE {
			bytes := int64(4 * len(j.keys) * (1 + len(e.NeedAttrs)))
			eng.ChargeStreamWrite(bytes)
			cpu.ChargeStream(0, bytes)
			c2, u2 := eng.TotalCycles(), cpu.Cycles()
			bk.row("xfer:"+e.Dim, "CAPE+CPU", (c2-c1)+(u2-u1), int64(len(j.keys)))
		}
		joins = append(joins, j)
		sp.SetInt("rows_out", int64(len(j.keys)))
		sp.End()
	}
	// Probe the most selective dimension first, exactly as CPUExec does.
	sort.SliceStable(joins, func(i, j int) bool { return joins[i].fraction < joins[j].fraction })

	// --- Fact stage on the CPU: filter + probe pass, gathering survivor
	// tuples.
	fact := db.MustTable(q.Fact)
	rows := fact.Rows()
	k := fanOut(int(x.par.Load()), rows)
	attrKeys, shipCols := shipTailCols(q)
	maxvl := eng.Config().MAXVL
	fs := &factOutput{shipCols: shipCols, parallel: ParallelStats{Tiles: k}}
	sweep := x.parent.Child("fact-sweep")
	sweepStart := cpu.Cycles()
	if !streaming {
		fs.ships = make([]*Batch, k)
	}

	// Streaming consumes each batch into the CAPE tail the moment it lands,
	// so the aggregation layout must be pinned before the first batch (the
	// CPU-side producer never touches the engine between chunks), and the
	// hash tables build once up front — probing chunk by chunk would
	// otherwise rebuild them per batch.
	if streaming {
		fs.acc = newGroupAcc(q.Aggs)
		a0 := eng.TotalCycles()
		x.setAggLayout(q)
		fs.aggCycles += eng.TotalCycles() - a0
	}

	if k == 1 {
		s := &cpuSweep{cpu: cpu, perJoin: bk.perJoin, span: sweep}
		if streaming {
			tables, err := x.buildShipTables(ctx, cpu, joins, bk)
			if err != nil {
				return nil, err
			}
			ts := &tileSweep{cat: x.cat, opts: x.castle.opts, eng: eng, acc: fs.acc}
			ch := &xferChannel{}
			src := &cpuFactSource{s: s, q: q, db: db, joins: joins, tables: tables,
				attrKeys: attrKeys, shipCols: shipCols, base: 0, end: rows, step: maxvl, ch: ch}
			var matched int64
			for {
				b, err := src.Next(ctx)
				if err != nil {
					return nil, err
				}
				if b == nil {
					break
				}
				if b.Len() > 0 {
					a0 := eng.TotalCycles()
					x.capeAggregateChunk(q, fact, b, 0, b.Len(), ts)
					fs.aggCycles += eng.TotalCycles() - a0
					matched += int64(b.Len())
				}
			}
			fs.stream = StreamStats{Batches: ch.batches, OverlapCycles: ch.credit, PeakBatchBytes: ch.peakBytes}
			bk.row("filter", "CPU", s.filterCycles, int64(rows))
			for _, e := range p.Joins {
				bk.row("join:"+e.Dim, "CPU", bk.perJoin[e.Dim], -1)
			}
			bk.row("xfer:aggregate", "CAPE+CPU", ch.xferCycles, matched)
		} else {
			sel, attrCols, err := s.runFilterJoins(ctx, q, db, joins, nil, 0, rows)
			if err != nil {
				return nil, err
			}
			x0 := cpu.Cycles()
			fs.ships[0] = gatherCPUSurvivors(cpu, sel, attrCols, attrKeys, 0, rows, shipCols)
			bk.row("filter", "CPU", s.filterCycles, int64(rows))
			for _, e := range p.Joins {
				bk.row("join:"+e.Dim, "CPU", bk.perJoin[e.Dim], -1)
			}
			bk.row("xfer:aggregate", "CAPE+CPU", cpu.Cycles()-x0, int64(len(fs.ships[0].Rows)))
		}
	} else {
		// Hash tables build once on the primary core, as in CPUExec.
		tables, err := x.buildShipTables(ctx, cpu, joins, bk)
		if err != nil {
			return nil, err
		}

		cores := cpu.Fork(k)
		sweeps := make([]*cpuSweep, k)
		for i, core := range cores {
			if x.tel != nil {
				AttachCPUTelemetry(core, x.tel)
			}
			sweeps[i] = &cpuSweep{cpu: core,
				perJoin: make(map[string]int64, len(joins)),
				span:    sweep.Child(fmt.Sprintf("core%d", i))}
		}
		var chans []*xferChannel
		var laneAccs []*groupAcc
		var laneAgg []int64
		var engMu sync.Mutex
		if streaming {
			chans = make([]*xferChannel, k)
			laneAccs = make([]*groupAcc, k)
			laneAgg = make([]int64, k)
			for i := range chans {
				chans[i] = &xferChannel{}
				laneAccs[i] = newGroupAcc(q.Aggs)
			}
		}
		laneRows := make([]int64, k)
		err = runLanes(k, func(ti int) error {
			s := sweeps[ti]
			defer s.span.End()
			base, end := ti*rows/k, (ti+1)*rows/k
			laneRows[ti] = int64(end - base)
			if !streaming {
				sel, attrCols, err := s.runFilterJoins(ctx, q, db, joins, tables, base, end)
				if err != nil {
					return err
				}
				fs.ships[ti] = gatherCPUSurvivors(s.cpu, sel, attrCols, attrKeys, base, end, shipCols)
				return nil
			}
			// The tail's engine is shared: lanes serialize chunk consumption
			// under a mutex into per-lane accumulators (merged in lane order
			// below), so the engine's additive charges and the results stay
			// deterministic.
			lts := &tileSweep{cat: x.cat, opts: x.castle.opts, eng: eng, acc: laneAccs[ti]}
			src := &cpuFactSource{s: s, q: q, db: db, joins: joins, tables: tables,
				attrKeys: attrKeys, shipCols: shipCols, base: base, end: end, step: maxvl, ch: chans[ti]}
			for {
				b, err := src.Next(ctx)
				if err != nil || b == nil {
					return err
				}
				if b.Len() > 0 {
					engMu.Lock()
					a0 := eng.TotalCycles()
					x.capeAggregateChunk(q, fact, b, 0, b.Len(), lts)
					laneAgg[ti] += eng.TotalCycles() - a0
					engMu.Unlock()
				}
			}
		})
		if err != nil {
			return nil, err
		}
		var maxRaw float64
		laneCycles := make([]int64, k)
		for i, s := range sweeps {
			laneCycles[i] = s.cpu.Cycles()
			if raw := s.cpu.RawCycles(); raw > maxRaw {
				maxRaw = raw
			}
			for d, cyj := range s.perJoin {
				bk.perJoin[d] += cyj
			}
		}
		fs.parallel = bk.lanes("CPU", laneCycles, laneRows)
		cpu.AbsorbElapsed(maxRaw)
		for _, core := range cores {
			cpu.AbsorbTraffic(core)
		}
		if streaming {
			credits := make([]int64, k)
			for i, ch := range chans {
				credits[i] = ch.credit
				fs.stream.Batches += ch.batches
				fs.stream.PeakBatchBytes += ch.peakBytes
			}
			fs.stream.OverlapCycles = overlapElapsedCredit(laneCycles, credits)
			// Merge the per-lane accumulators in fixed lane order — the same
			// consumption order the materializing tail uses.
			for i, la := range laneAccs {
				fs.acc.merge(la)
				fs.aggCycles += laneAgg[i]
			}
		}
	}
	sweep.SetInt("cycles", cpu.Cycles()-sweepStart)
	sweep.SetInt("cores", int64(k))
	sweep.End()
	return fs, nil
}

// buildShipTables builds the probe-side hash tables once on the primary
// core, emitting a "build:" row per dimension. Probe cycles accumulate
// separately (per-lane perJoin), so build rows never double-count.
func (x *Placed) buildShipTables(ctx context.Context, cpu *baseline.CPU, joins []dimJoin,
	bk *placedBreakdown) ([]joinTable, error) {

	tables := make([]joinTable, len(joins))
	for ji, j := range joins {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		b0 := cpu.Cycles()
		if len(j.edge.NeedAttrs) == 0 {
			tables[ji].semi = cpu.BuildHashSemi(j.keys)
		} else {
			tables[ji].attr = make([]*baseline.HashTable, len(j.edge.NeedAttrs))
			for ai := range j.edge.NeedAttrs {
				tables[ji].attr[ai] = cpu.BuildHashMap(j.keys, j.vals[ai])
			}
		}
		bk.row("build:"+j.edge.Dim, "CPU", cpu.Cycles()-b0, int64(len(j.keys)))
	}
	return tables, nil
}

// cpuFactSource is the CPU-side batch producer for one lane of a streaming
// mixed run: each Next runs the filter+probe pass over the lane's next
// MAXVL-row chunk, gathers the survivors as a batch, and records the
// (compute, transfer) split into the lane's double-buffered channel.
type cpuFactSource struct {
	s        *cpuSweep
	q        *plan.Query
	db       *storage.Database
	joins    []dimJoin
	tables   []joinTable
	attrKeys []string
	shipCols int

	base, end, step int

	ch *xferChannel
}

func (src *cpuFactSource) Next(ctx context.Context) (*Batch, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if src.step <= 0 || src.base >= src.end {
		return nil, nil
	}
	lo, hi := src.base, src.base+src.step
	if hi > src.end {
		hi = src.end
	}
	core := src.s.cpu
	c0 := core.Cycles()
	sel, attrCols, err := src.s.runFilterJoins(ctx, src.q, src.db, src.joins, src.tables, lo, hi)
	if err != nil {
		return nil, err
	}
	compute := core.Cycles() - c0
	x0 := core.Cycles()
	b := gatherCPUSurvivors(core, sel, attrCols, src.attrKeys, lo, hi, src.shipCols)
	xfer := core.Cycles() - x0
	src.ch.record(compute, xfer, b.ShipBytes(src.shipCols))
	src.base = hi
	return b, nil
}

// gatherCPUSurvivors collects a lane's surviving rows (and the tail's
// dimension attributes) into a batch and bills the CPU side of the
// crossing: a gather loop plus the streamed tuple bytes.
func gatherCPUSurvivors(cpu *baseline.CPU, sel *bitvec.Vector, attrCols map[string][]uint32,
	attrKeys []string, base, end, shipCols int) *Batch {

	b := NewBatch(base, attrKeys)
	collect := func(i int) { // i is range-local
		b.Rows = append(b.Rows, base+i)
		for _, key := range attrKeys {
			col := attrCols[key]
			if col == nil {
				panic("exec: shipped attribute " + key + " was not materialized by any join")
			}
			b.Attrs[key] = append(b.Attrs[key], col[i])
		}
	}
	if sel == nil {
		for i := 0; i < end-base; i++ {
			collect(i)
		}
	} else {
		for i := sel.First(); i != -1; i = sel.NextAfter(i) {
			collect(i)
		}
	}
	n := len(b.Rows)
	cpu.ChargeStreamWrite(float64(2*n), int64(4*n*shipCols))
	return b
}

// setAggLayout pins the CSB layout the CAPE aggregation tail needs: GP mode
// when a vector-vector arithmetic aggregate must run, CAM mode otherwise.
// PlacedPlan.Validate and run keep grouped vv arithmetic off this tail.
func (x *Placed) setAggLayout(q *plan.Query) {
	eng := x.castle.eng
	if !eng.Config().EnableADL {
		return
	}
	if q.HasSumMul() {
		eng.SetLayout(cape.GPMode)
	} else {
		eng.SetLayout(cape.CAMMode)
	}
}

// capeAggregateShipments runs the CAPE aggregation kernels over shipped
// survivor tuples: each lane's tuples are processed in fixed order, loaded
// into the CSB in MAXVL chunks as gathered columns, and folded with the
// exact instruction billing of the on-device Algorithm 2 loop.
func (x *Placed) capeAggregateShipments(ctx context.Context, q *plan.Query, fact *storage.Table,
	ships []*Batch, acc *groupAcc) error {

	eng := x.castle.eng
	maxvl := eng.Config().MAXVL

	x.setAggLayout(q)
	// The charged loop helpers live on tileSweep; borrow one bound to the
	// primary engine.
	ts := &tileSweep{cat: x.cat, opts: x.castle.opts, eng: eng, acc: acc}

	for _, ship := range ships {
		for lo := 0; lo < len(ship.Rows); lo += maxvl {
			if err := ctx.Err(); err != nil {
				return err
			}
			hi := lo + maxvl
			if hi > len(ship.Rows) {
				hi = len(ship.Rows)
			}
			x.capeAggregateChunk(q, fact, ship, lo, hi, ts)
		}
	}
	return nil
}

// capeAggregateChunk loads one chunk of shipped tuples into the CSB and
// aggregates it: gathered fact columns and shipped attributes become CSB
// vectors (loads bill the stream reads), then the scalar reductions or the
// literal per-group Algorithm 2 loop run with on-device billing.
func (x *Placed) capeAggregateChunk(q *plan.Query, fact *storage.Table,
	ship *Batch, lo, hi int, ts *tileSweep) {

	eng := x.castle.eng
	acc := ts.acc
	n := hi - lo
	eng.SetVL(n)
	regs := newRegAlloc(eng.Config().NumVRegs)

	gatherFact := func(name string) []uint32 {
		col := fact.MustColumn(name).Data
		out := make([]uint32, n)
		for i, row := range ship.Rows[lo:hi] {
			out[i] = col[row]
		}
		return out
	}
	loaded := make(map[string]cape.VReg)
	loadGathered := func(key string, data []uint32, table, col string) cape.VReg {
		if r, ok := loaded[key]; ok {
			return r
		}
		r := regs.fresh()
		eng.Load(r, data, colWidth(x.cat, table, col))
		loaded[key] = r
		return r
	}
	loadFact := func(name string) cape.VReg {
		if r, ok := loaded[name]; ok {
			return r
		}
		return loadGathered(name, gatherFact(name), q.Fact, name)
	}

	rowMask := eng.MaskInit(true)

	// --- Scalar tail (no GROUP BY): predicated reductions per aggregate.
	if len(q.GroupBy) == 0 {
		rows := int64(eng.MPopc(rowMask))
		if rows == 0 {
			return
		}
		vals := make([]int64, len(q.Aggs))
		for i, a := range q.Aggs {
			switch a.Kind {
			case plan.AggSumCol, plan.AggAvg:
				vals[i] = eng.RedSum(loadFact(a.A), rowMask)
			case plan.AggSumMul:
				ra, rb := loadFact(a.A), loadFact(a.B)
				tmp := regs.fresh()
				eng.MulVV(tmp, ra, rb)
				vals[i] = eng.RedSum(tmp, rowMask)
			case plan.AggSumSub:
				vals[i] = eng.RedSum(loadFact(a.A), rowMask) - eng.RedSum(loadFact(a.B), rowMask)
				eng.Scalar(1)
			case plan.AggCount:
				vals[i] = rows
			case plan.AggMin:
				v, _ := eng.RedMin(loadFact(a.A), rowMask)
				vals[i] = int64(v)
			case plan.AggMax:
				v, _ := eng.RedMax(loadFact(a.A), rowMask)
				vals[i] = int64(v)
			case plan.AggCountDistinct:
				data := gatherFact(a.A)
				r := loadGathered(a.A, data, q.Fact, a.A)
				values := distinctUnder(data, 0, rowMask)
				ts.chargeDistinctLoop(int64(len(values)), eng.RegWidth(r))
				acc.addDistinct(nil, i, values)
			}
			eng.Scalar(4)
		}
		acc.add(nil, vals, rows)
		return
	}

	// --- Grouped tail: the literal Algorithm 2 loop over the chunk.
	groupRegs := make([]cape.VReg, len(q.GroupBy))
	for i, g := range q.GroupBy {
		if g.Table == q.Fact {
			groupRegs[i] = loadFact(g.Column)
			continue
		}
		key := g.Table + "." + g.Column
		data := ship.Attrs[key][lo:hi]
		groupRegs[i] = loadGathered(key, data, g.Table, g.Column)
	}
	aggRegs := make([][2]cape.VReg, len(q.Aggs))
	distinctData := make([][]uint32, len(q.Aggs))
	for i, a := range q.Aggs {
		if a.Kind == plan.AggCountDistinct {
			distinctData[i] = gatherFact(a.A)
			aggRegs[i][0] = loadGathered(a.A, distinctData[i], q.Fact, a.A)
			continue
		}
		if a.Kind != plan.AggCount {
			aggRegs[i][0] = loadFact(a.A)
		}
		if a.Kind == plan.AggSumSub {
			aggRegs[i][1] = loadFact(a.B)
		}
	}

	remaining := rowMask
	keys := make([]uint32, len(q.GroupBy))
	aggs := make([]int64, len(q.Aggs))
	for {
		idx := eng.MFirst(remaining)
		if idx == -1 {
			break
		}
		groupMask := remaining
		for i, r := range groupRegs {
			keys[i] = eng.Extract(r, idx)
			groupMask = eng.MaskAnd(groupMask, eng.Search(r, keys[i]))
		}
		groupRows := int64(eng.MPopc(groupMask))
		for i, a := range q.Aggs {
			switch a.Kind {
			case plan.AggSumCol, plan.AggAvg:
				aggs[i] = eng.RedSum(aggRegs[i][0], groupMask)
			case plan.AggSumSub:
				aggs[i] = eng.RedSum(aggRegs[i][0], groupMask) - eng.RedSum(aggRegs[i][1], groupMask)
				eng.Scalar(1)
			case plan.AggCount:
				aggs[i] = groupRows
			case plan.AggMin:
				v, _ := eng.RedMin(aggRegs[i][0], groupMask)
				aggs[i] = int64(v)
			case plan.AggMax:
				v, _ := eng.RedMax(aggRegs[i][0], groupMask)
				aggs[i] = int64(v)
			case plan.AggCountDistinct:
				values := distinctUnder(distinctData[i], 0, groupMask)
				ts.chargeDistinctLoop(int64(len(values)), eng.RegWidth(aggRegs[i][0]))
				acc.addDistinct(keys, i, values)
				aggs[i] = 0
			}
		}
		acc.add(keys, aggs, groupRows)
		eng.Scalar(12)
		eng.CPAccess(1, int64(len(acc.order))*16)
		remaining = eng.MaskXor(remaining, groupMask)
	}
}
