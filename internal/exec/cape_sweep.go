package exec

// cape_sweep.go drives the fused CAPE fact stage over one partition: Scan
// (CSB loads) -> Filter -> JoinProbe per edge -> Aggregate. tileSweep is the
// per-engine kernel context Castle.sweepFact runs each partition through;
// exec.Placed sinks the filter/join half's output into a shipment when the
// aggregation tail is placed on the CPU.

import (
	"context"
	"fmt"

	"castle/internal/bitvec"
	"castle/internal/cape"
	"castle/internal/plan"
	"castle/internal/stats"
	"castle/internal/storage"
	"castle/internal/telemetry"
)

// regAlloc hands out CSB vector registers.
type regAlloc struct {
	next  int
	max   int
	byCol map[string]cape.VReg
}

func newRegAlloc(n int) *regAlloc {
	return &regAlloc{max: n, byCol: make(map[string]cape.VReg)}
}

func (r *regAlloc) fresh() cape.VReg {
	if r.next >= r.max {
		panic(fmt.Sprintf("exec: out of CSB vector registers (%d)", r.max))
	}
	v := cape.VReg(r.next)
	r.next++
	return v
}

func (r *regAlloc) forCol(name string) (cape.VReg, bool) {
	if v, ok := r.byCol[name]; ok {
		return v, true
	}
	v := r.fresh()
	r.byCol[name] = v
	return v, false
}

// tileSweep is one engine's share of the fact sweep and its accounting:
// Castle.sweepFact runs one over the executor's own engine when serial and
// one per forked tile when parallel, each on its own goroutine. A sweep
// only reads shared state (catalog, options, storage, prepared dimensions)
// and writes its own fields, which is what makes the fan-out race-free.
type tileSweep struct {
	cat  *stats.Catalog
	opts CastleOptions
	eng  *cape.Engine
	laneBooks

	// span hosts the per-operator child spans: the "fact-sweep" span when
	// serial, this tile's "tileN" span when parallel.
	span *telemetry.Span
}

// capePart is one MAXVL fact partition after the fused Scan+Filter+JoinProbe
// kernels: its row range, the surviving rows, and the register state a sink
// aggregates or exports from.
type capePart struct {
	base, vl int
	rowMask  *bitvec.Vector
	regs     *regAlloc
	attrRegs map[string]cape.VReg // "dim.attr" -> fact-aligned vector
	load     func(string) cape.VReg
	// compute is the cycles the filter and join kernels charged.
	compute int64
}

// columnLoader returns a memoising loader that brings a column into a
// register of regs on first use; data yields the column's partition-aligned
// values.
func (s *tileSweep) columnLoader(regs *regAlloc, table string, data func(string) []uint32) func(string) cape.VReg {
	return func(name string) cape.VReg {
		r, cached := regs.forCol(name)
		if !cached {
			s.eng.Load(r, data(name), colWidth(s.cat, table, name))
		}
		return r
	}
}

// runFilterJoins executes the partition's Scan+Filter+JoinProbe operators
// (the fused fact stage up to, but not including, aggregation) and returns
// the partition with its surviving row mask and the register state the
// aggregation tail needs.
func (s *tileSweep) runFilterJoins(ctx context.Context, p *plan.Physical, db *storage.Database,
	dims []dimSide, base, vl int) (*capePart, error) {

	q := p.Query
	fact := db.MustTable(q.Fact)
	c0 := s.eng.TotalCycles()
	s.eng.SetVL(vl)
	pt := &capePart{base: base, vl: vl, regs: newRegAlloc(s.eng.Config().NumVRegs)}
	pt.load = s.columnLoader(pt.regs, q.Fact, func(name string) []uint32 {
		return fact.MustColumn(name).Data[base : base+vl]
	})
	var err error
	pt.rowMask, pt.attrRegs, err = s.runFilterJoinsWith(ctx, p, db, dims, base, vl, pt.regs, pt.load)
	pt.compute = s.eng.TotalCycles() - c0
	return pt, err
}

// runFilterJoinsWith is runFilterJoins over caller-supplied register state:
// the shared fused sweep (shared_cape.go) preloads the member union of fact
// columns into one allocator and runs each member's filter+join pipeline
// against it, so every column is loaded once per morsel regardless of how
// many member queries read it. The caller is responsible for eng.SetVL.
func (s *tileSweep) runFilterJoinsWith(ctx context.Context, p *plan.Physical, db *storage.Database,
	dims []dimSide, base, vl int, regs *regAlloc,
	loadFactCol func(string) cape.VReg) (*bitvec.Vector, map[string]cape.VReg, error) {

	q := p.Query
	eng := s.eng
	fact := db.MustTable(q.Fact)

	// --- Selections (Figure 4): per-predicate masks combined with mask ops.
	spf := s.span.Child("filter")
	before := eng.TotalCycles()
	eng.Scalar(8) // loop setup
	var rowMask *bitvec.Vector
	for _, pr := range q.FactPreds {
		m := predMask(eng, loadFactCol(pr.Column), pr)
		if rowMask == nil {
			rowMask = m
		} else {
			rowMask = eng.MaskAnd(rowMask, m)
		}
	}
	if rowMask == nil {
		rowMask = eng.MaskInit(true)
	}
	cy := eng.TotalCycles() - before
	s.filterCycles += cy
	spf.SetInt("cycles", cy)
	spf.SetInt("rows", int64(vl))
	spf.End()

	// --- Right-deep joins: filtered dimensions probe the resident fact
	// partition (Algorithm 1 with the probe side swapped, §3.2).
	attrRegs := make(map[string]cape.VReg) // "dim.attr" -> fact-aligned vector
	for di := 0; di < p.Switch; di++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		d := dims[di]
		spj := s.span.Child("join:" + d.edge.Dim)
		before := eng.TotalCycles()
		fkReg := loadFactCol(d.edge.FactFK)
		joinMask := s.probeFactWithDim(fkReg, d, regs, attrRegs)
		rowMask = eng.MaskAnd(rowMask, joinMask)
		cy := eng.TotalCycles() - before
		s.perJoin[d.edge.Dim] += cy
		spj.SetInt("cycles", cy)
		spj.SetInt("probe_keys", int64(len(d.keys)))
		spj.End()
	}

	// --- Left-deep segment: surviving intermediate rows probe
	// CSB-resident dimension partitions.
	for di := p.Switch; di < len(p.Joins); di++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		d := dims[di]
		spj := s.span.Child("join:" + d.edge.Dim)
		before := eng.TotalCycles()
		loadFactCol(d.edge.FactFK) // FK column resident for the CP to read
		rowMask = s.probeDimWithRows(fact, d, base, vl, rowMask, regs, attrRegs)
		cy := eng.TotalCycles() - before
		s.perJoin[d.edge.Dim] += cy
		spj.SetInt("cycles", cy)
		spj.SetInt("dim_rows", int64(len(d.keys)))
		spj.End()
	}
	return rowMask, attrRegs, nil
}

// runAggregate executes the partition's Aggregate operator (Algorithm 2),
// fused on the row mask runFilterJoins produced.
func (s *tileSweep) runAggregate(ctx context.Context, q *plan.Query, fact *storage.Table,
	pt *capePart, needGPArith, camCapable bool) error {

	if err := ctx.Err(); err != nil {
		return err
	}
	eng := s.eng
	spa := s.span.Child("aggregate")
	before := eng.TotalCycles()
	data := func(name string) []uint32 { return fact.MustColumn(name).Data[pt.base : pt.base+pt.vl] }
	rowMask, regs, load := pt.rowMask, pt.regs, pt.load
	if needGPArith && camCapable {
		// Bit-serial vv arithmetic requires the bitsliced layout: switch,
		// carry the row mask across with vrelayout, and reload the
		// aggregate input columns in GP layout (§5.2).
		eng.SetLayout(cape.GPMode)
		rowMask = eng.Relayout(rowMask)
		regs = newRegAlloc(eng.Config().NumVRegs)
		load = s.columnLoader(regs, q.Fact, data)
	}
	s.aggregate(q, data, rowMask, regs, pt.attrRegs, load)
	cy := eng.TotalCycles() - before
	s.aggCycles += cy
	spa.SetInt("cycles", cy)
	spa.End()
	return nil
}

// chargeFissionOverhead models disabling operator fusion (§7.4): each
// operator boundary materializes its output mask through main memory once
// per partition instead of keeping it resident in the CSB. parts is the
// number of partitions this sweep executed (a tile charges only its own
// share).
func (s *tileSweep) chargeFissionOverhead(p *plan.Physical, parts, maxvl int) {
	eng := s.eng
	boundaries := 1 + len(p.Joins) // selections | joins... | aggregation
	maskBytes := int64((maxvl + 7) / 8)
	for i := 0; i < parts*boundaries; i++ {
		eng.ChargeStreamWrite(maskBytes)
		eng.ChargeStreamRead(maskBytes)
		eng.Scalar(40) // per-sweep loop re-setup
	}
}
