package exec

// placed.go executes plans whose operator pipeline spans both devices — the
// paper's §7.2 hybrid case with per-operator granularity. The fused fact
// stage (Scan+Filter+JoinProbe) runs through its device's only fact sweep
// (Castle.sweepFact or CPUExec.sweepFact) with a sink that ships each
// partition's survivor tuples across instead of aggregating them; each
// DimBuild runs on its placed device (paying an explicit transfer when it
// feeds the other side); and the aggregation tail runs on its placed device
// over the shipped tuples — the CPU's hash aggregation, or CAPE's own
// Algorithm 2 kernels.
//
// Results are bit-identical to the single-device engines: the fact stage
// computes the same survivor set either way, survivors are consumed in
// ascending row order lane by lane, and each aggregation kernel keeps its
// device's exact arithmetic (which agree on every supported shape).

import (
	"context"
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

	// streaming selects the batch pipeline for mixed runs: the fact stage
	// hands over MAXVL-sized batches, the tail consumes each batch
	// immediately (peak memory O(K·MAXVL) instead of O(table)), and the
	// device crossing is double-buffered so interior transfers hide under
	// the next batch's compute. Results are bit-identical to materializing.
	streaming atomic.Bool

	tel    *telemetry.Telemetry
	parent *telemetry.Span

	// lastRun publishes split runs' books, and republishes the owning
	// executor's for uniform placements. Split runs report their lanes'
	// work the way the single-device executors do.
	lastRun
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

// SetStreaming toggles the batch pipeline for subsequent runs.
// Safe to call concurrently with RunContext; an in-flight run keeps the
// mode it observed at entry.
func (x *Placed) SetStreaming(on bool) { x.streaming.Store(on) }

// SetTelemetry attaches a telemetry sink and parent span for subsequent
// runs (either may be nil). Not safe to call while a run is in flight.
func (x *Placed) SetTelemetry(tel *telemetry.Telemetry, parent *telemetry.Span) {
	x.tel = tel
	x.parent = parent
	x.castle.SetTelemetry(tel, parent)
	x.cpu.SetTelemetry(tel, parent)
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
	// on the fact device — except a grouped SUM(a*b), which Validate keeps
	// off CAPE's tail. The checkpoint starts from the planned tail.
	tail := plan.DeviceCAPE
	if pp.FactDevice() == plan.DeviceCAPE || q.GroupedSumMul() {
		tail = plan.DeviceCPU
	}
	eng, cpu := x.castle.eng, x.cpu.cpu
	capeStart, cpuStart := eng.TotalCycles(), cpu.Cycles()
	bk := newBooks()
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
	countRowsScanned(x.tel, db, q, pp.FactDevice(), pp.DimDevice)
	return acc.result(q), ast, nil
}

// runUniform delegates a single-device placement to the owning executor and
// republishes its books.
func (x *Placed) runUniform(ctx context.Context, pp *plan.PlacedPlan, db *storage.Database, dev plan.Device) (*Result, error) {
	var res *Result
	var err error
	var last *lastRun
	if dev == plan.DeviceCPU {
		x.cpu.SetParallelism(int(x.par.Load()))
		x.cpu.SetStreaming(x.streaming.Load())
		res, err = x.cpu.RunContext(ctx, pp.Phys.Query, db)
		last = &x.cpu.lastRun
	} else {
		x.castle.SetParallelism(int(x.par.Load()))
		x.castle.SetStreaming(x.streaming.Load())
		res, err = x.castle.RunContext(ctx, pp.Phys, db)
		last = &x.castle.lastRun
	}
	if err != nil {
		return nil, err
	}
	x.last.Store(last.last.Load())
	return res, nil
}

// publish closes a split run's books. For streaming runs the total is the
// elapsed view — both devices' work minus the transfer cycles that hid
// under the next batch's compute — and the hidden portion appears as an
// explicit negative "xfer-overlap" credit row so the rows still partition
// TotalCycles exactly.
func (x *Placed) publish(bk *books, capeCycles, cpuCycles int64, fs *factOutput, tail plan.Device) {
	if fs.stream.OverlapCycles != 0 {
		bk.row("xfer-overlap", "CAPE+CPU", -fs.stream.OverlapCycles, -1)
	}
	total := capeCycles + cpuCycles - fs.stream.OverlapCycles
	breakdown := bk.close("CAPE+CPU", total)
	x.last.Store(&closedRun{capeCycles: capeCycles, cpuCycles: cpuCycles, perJoin: fs.perJoin,
		stream: fs.stream, parallel: bk.parallel, tail: tail, breakdown: breakdown})
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

	stream  StreamStats
	perJoin map[string]int64
}

// runTail runs the aggregation tail on dev over the fact stage's output and
// records its "aggregate" row. A CPU tail folds the survivor tuples (or
// merges the streamed lane accumulators in fixed lane order) and pays the
// bulk hash-aggregation charge once, so streamed and materialized CPU
// cycles match exactly; a CAPE tail loads each lane's shipment into the CSB
// in MAXVL chunks and aggregates each chunk with the fused sweep's kernels.
func (x *Placed) runTail(ctx context.Context, q *plan.Query, fact *storage.Table, dev plan.Device,
	fs *factOutput, bk *books) (*groupAcc, error) {

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
		ts := x.castle.tailSweep(acc)
		setAggLayout(eng, q)
		maxvl := eng.Config().MAXVL
		for _, ship := range fs.ships {
			for lo := 0; lo < ship.Len(); lo += maxvl {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				ts.aggregateShipped(q, fact, ship, lo, min(lo+maxvl, ship.Len()))
			}
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
// stage with CAPE as the fact device, through Castle's fact sweep. Each
// partition's survivors are exported as a batch: streaming lanes fold it
// into their CPU-tail consumer as it lands, materializing lanes append it
// to one shipment per lane.
func (x *Placed) runCAPEFact(ctx context.Context, pp *plan.PlacedPlan, db *storage.Database,
	bk *books, streaming bool) (*factOutput, error) {

	p := pp.Phys
	q := p.Query
	eng := x.castle.eng
	cpu := x.cpu.cpu
	cfg := eng.Config()
	if cfg.EnableADL {
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

	// --- Fact stage on CAPE: Scan+Filter+JoinProbe per partition, exporting
	// survivor tuples instead of aggregating.
	fact := db.MustTable(q.Fact)
	factRows := fact.Rows()
	k := fanOut(int(x.par.Load()), (factRows+cfg.MAXVL-1)/cfg.MAXVL)
	attrKeys, shipCols := shipTailCols(q)
	fs := &factOutput{shipCols: shipCols}
	chans, shipped := newXferChannels(k), make([]int64, k)
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
	sweep := x.parent.Child("fact-sweep")
	sweepStart := eng.TotalCycles()
	sw, err := x.castle.sweepFact(ctx, p, db, dims, k, sweep, func(s *tileSweep, lane int, pt *capePart) error {
		b := NewBatch(pt.base, attrKeys)
		e0 := s.eng.TotalCycles()
		exportSurvivors(s.eng, b, pt.rowMask, pt.base, attrKeys, pt.attrRegs, shipCols)
		chans[lane].record(pt.compute, s.eng.TotalCycles()-e0, b.ShipBytes(shipCols))
		shipped[lane] += int64(b.Len())
		if streaming {
			return fs.consumers[lane].consume(ctx, b)
		}
		fs.ships[lane].append(b)
		return nil
	})
	if err != nil {
		return nil, err
	}
	fs.perJoin = sw.perJoin
	if sw.cycles == nil {
		bk.row("filter", "CAPE", sw.filterCycles, int64(factRows))
		for _, e := range p.Joins {
			bk.row("join:"+e.Dim, "CAPE", sw.perJoin[e.Dim], -1)
		}
		bk.row("xfer:aggregate", "CAPE+CPU", chans[0].xferCycles, shipped[0])
	} else {
		// Per-tile work, including each tile's export charges, shows as
		// sweep rows with the hidden overlap credited back.
		bk.lanes("CAPE", sw.cycles, sw.rows)
	}
	if streaming {
		fs.stream = streamStats(chans, sw.cycles)
	}
	sweep.SetInt("cycles", eng.TotalCycles()-sweepStart)
	sweep.End()
	return fs, nil
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

// runCPUFact runs the dimension builds and the filter+probe fact stage
// with the CPU as the fact device, through CPUExec's fact sweep.
// Materializing lanes gather their survivors into one shipment each;
// streaming lanes feed every MAXVL-row chunk straight into the CAPE
// aggregation tail.
func (x *Placed) runCPUFact(ctx context.Context, pp *plan.PlacedPlan, db *storage.Database,
	bk *books, streaming bool) (*factOutput, error) {

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
	fs := &factOutput{shipCols: shipCols}
	chans, shipped := newXferChannels(k), make([]int64, k)
	sweep := x.parent.Child("fact-sweep")
	sweepStart := cpu.Cycles()

	// Streaming consumes each batch into the CAPE tail the moment it lands,
	// so the aggregation layout is pinned before the first batch (the
	// CPU-side producer never touches the engine between chunks). The
	// tail's engine is shared: lanes serialize chunk consumption under a
	// mutex into per-lane accumulators, merged in lane order below, so the
	// engine's additive charges and the results stay deterministic.
	step := 0
	var tails []*tileSweep
	var tailCycles []int64
	var engMu sync.Mutex
	if streaming {
		step = eng.Config().MAXVL
		a0 := eng.TotalCycles()
		setAggLayout(eng, q)
		fs.aggCycles = eng.TotalCycles() - a0
		tails, tailCycles = make([]*tileSweep, k), make([]int64, k)
		for i := range tails {
			tails[i] = x.castle.tailSweep(newGroupAcc(q.Aggs))
		}
	} else {
		fs.ships = make([]*Batch, k)
	}
	sw, builds, err := x.cpu.sweepFact(ctx, q, db, joins, k, step, sweep, func(s *cpuSweep, lane int, c *cpuChunk) error {
		x0 := s.cpu.Cycles()
		b := gatherCPUSurvivors(s.cpu, c.sel, c.attrCols, attrKeys, c.lo, c.hi, shipCols)
		chans[lane].record(c.compute, s.cpu.Cycles()-x0, b.ShipBytes(shipCols))
		shipped[lane] += int64(b.Len())
		if !streaming {
			fs.ships[lane] = b
			return nil
		}
		if b.Len() > 0 {
			engMu.Lock()
			a0 := eng.TotalCycles()
			tails[lane].aggregateShipped(q, fact, b, 0, b.Len())
			tailCycles[lane] += eng.TotalCycles() - a0
			engMu.Unlock()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	fs.perJoin = sw.perJoin
	if builds != nil {
		// Probe cycles accumulate per lane, so build rows never
		// double-count.
		for _, j := range joins {
			bk.row("build:"+j.edge.Dim, "CPU", builds[j.edge.Dim], int64(len(j.keys)))
		}
	}
	if sw.cycles == nil {
		bk.row("filter", "CPU", sw.filterCycles, int64(rows))
		for _, e := range p.Joins {
			bk.row("join:"+e.Dim, "CPU", sw.perJoin[e.Dim], -1)
		}
		bk.row("xfer:aggregate", "CAPE+CPU", chans[0].xferCycles, shipped[0])
	} else {
		bk.lanes("CPU", sw.cycles, sw.rows)
	}
	if streaming {
		fs.stream = streamStats(chans, sw.cycles)
		fs.acc = newGroupAcc(q.Aggs)
		for i, t := range tails {
			fs.acc.merge(t.acc)
			fs.aggCycles += tailCycles[i]
		}
	}
	sweep.SetInt("cycles", cpu.Cycles()-sweepStart)
	sweep.End()
	return fs, nil
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
func setAggLayout(eng *cape.Engine, q *plan.Query) {
	if !eng.Config().EnableADL {
		return
	}
	if q.HasSumMul() {
		eng.SetLayout(cape.GPMode)
	} else {
		eng.SetLayout(cape.CAMMode)
	}
}
