package exec

// cape_aggregate.go holds the CAPE Aggregate kernels: Algorithm 2's
// per-group search loop (generalised to composite keys), the scalar
// no-GROUP-BY reductions, the one-pass bulk fast path for the group loop,
// and the COUNT(DISTINCT) nested loop.

import (
	"encoding/binary"
	"sort"

	"castle/internal/bitvec"
	"castle/internal/cape"
	"castle/internal/isa"
	"castle/internal/plan"
	"castle/internal/storage"
)

// chargeDistinctLoop bills the nested Algorithm-2-style loop that counts a
// column's distinct values under a mask on the AP: per distinct value one
// vfirst, one vextract, one search, and one mask XOR retire the value's
// rows (plus loop scalars); one final vfirst finds the exhausted mask.
func (s *tileSweep) chargeDistinctLoop(distinct int64, width int) {
	eng := s.eng
	eng.Charge(isa.OpVMFirst, 32, distinct+1)
	eng.Charge(isa.OpVExtract, 32, distinct)
	eng.Charge(isa.OpVMSeqVX, width, distinct)
	eng.Charge(isa.OpVMXor, 32, distinct)
	eng.Scalar(6 * distinct)
}

// distinctUnder gathers the distinct values of a fact column among the
// masked rows of the partition starting at base (the functional result of
// the charged loop above). The result is sorted ascending: a canonical order
// that does not depend on row order within the partition, so repeated runs
// and different partitionings hand identical value lists downstream.
func distinctUnder(col []uint32, base int, mask *bitvec.Vector) []uint32 {
	seen := make(map[uint32]struct{})
	out := make([]uint32, 0, 16)
	for i := mask.First(); i != -1; i = mask.NextAfter(i) {
		v := col[base+i]
		if _, dup := seen[v]; !dup {
			seen[v] = struct{}{}
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// aggregate runs the Aggregate operator over one CSB-resident chunk: the
// scalar reductions without GROUP BY, Algorithm 2 with one. data yields a
// fact column's chunk-aligned values and load brings it into a register;
// attrRegs holds the dimension attributes the group keys read.
func (s *tileSweep) aggregate(q *plan.Query, data func(string) []uint32, rowMask *bitvec.Vector,
	regs *regAlloc, attrRegs map[string]cape.VReg, load func(string) cape.VReg) {

	if len(q.GroupBy) == 0 {
		s.aggregateScalar(q, data, rowMask, regs, load)
	} else {
		s.aggregateGroups(q, data, rowMask, regs, attrRegs, load)
	}
}

// aggregateShipped is the CAPE aggregation tail of a split run over shipped
// survivor tuples [lo, hi) of ship: the shipped dimension attributes and
// the tuples' gathered fact fields load into the CSB (each load bills its
// stream read), and the fused sweep's own aggregation kernels run over the
// chunk with every row live.
func (s *tileSweep) aggregateShipped(q *plan.Query, fact *storage.Table, ship *Batch, lo, hi int) {
	eng := s.eng
	n := hi - lo
	eng.SetVL(n)
	regs := newRegAlloc(eng.Config().NumVRegs)
	gathered := make(map[string][]uint32)
	data := func(name string) []uint32 {
		if d, ok := gathered[name]; ok {
			return d
		}
		col := fact.MustColumn(name).Data
		d := make([]uint32, n)
		for i, row := range ship.Rows[lo:hi] {
			d[i] = col[row]
		}
		gathered[name] = d
		return d
	}
	rowMask := eng.MaskInit(true)
	attrRegs := make(map[string]cape.VReg)
	for _, g := range q.GroupBy {
		key := g.Table + "." + g.Column
		if _, loaded := attrRegs[key]; loaded || g.Table == q.Fact {
			continue
		}
		r := regs.fresh()
		eng.Load(r, ship.Attrs[key][lo:hi], colWidth(s.cat, g.Table, g.Column))
		attrRegs[key] = r
	}
	s.aggregate(q, data, rowMask, regs, attrRegs, s.columnLoader(regs, q.Fact, data))
}

// aggregateScalar handles queries without GROUP BY: per-chunk partial
// reductions merge into the CP-side accumulator.
func (s *tileSweep) aggregateScalar(q *plan.Query, data func(string) []uint32, rowMask *bitvec.Vector,
	regs *regAlloc, load func(string) cape.VReg) {

	eng := s.eng
	acc := s.acc
	rows := int64(eng.MPopc(rowMask))
	if rows == 0 {
		return
	}
	vals := make([]int64, len(q.Aggs))
	// Every SUM(a*b) reduces its product right away, so they share one
	// product register.
	product := cape.VReg(-1)
	for i, a := range q.Aggs {
		switch a.Kind {
		case plan.AggSumCol, plan.AggAvg:
			vals[i] = eng.RedSum(load(a.A), rowMask)
		case plan.AggSumMul:
			ra, rb := load(a.A), load(a.B)
			if product < 0 {
				product = regs.fresh()
			}
			eng.MulVV(product, ra, rb)
			vals[i] = eng.RedSum(product, rowMask)
		case plan.AggSumSub:
			// sum(a-b) = sum(a) - sum(b): two predicated reductions and a
			// scalar subtract, avoiding bit-serial vv subtraction.
			vals[i] = eng.RedSum(load(a.A), rowMask) - eng.RedSum(load(a.B), rowMask)
			eng.Scalar(1)
		case plan.AggCount:
			vals[i] = rows
		case plan.AggMin:
			v, _ := eng.RedMin(load(a.A), rowMask)
			vals[i] = int64(v)
		case plan.AggMax:
			v, _ := eng.RedMax(load(a.A), rowMask)
			vals[i] = int64(v)
		case plan.AggCountDistinct:
			r := load(a.A)
			values := distinctUnder(data(a.A), 0, rowMask)
			s.chargeDistinctLoop(int64(len(values)), eng.RegWidth(r))
			acc.addDistinct(nil, i, values)
		}
		eng.Scalar(4)
	}
	acc.add(nil, vals, rows)
}

// aggregateGroups is Algorithm 2 generalised to composite group keys: the
// first unprocessed row identifies a group; one search per group column
// (ANDed) recovers all of the group's rows; predicated reductions compute
// the aggregates; XOR retires the group.
func (s *tileSweep) aggregateGroups(q *plan.Query, data func(string) []uint32, rowMask *bitvec.Vector,
	regs *regAlloc, attrRegs map[string]cape.VReg, load func(string) cape.VReg) {

	eng := s.eng
	acc := s.acc

	groupRegs := make([]cape.VReg, len(q.GroupBy))
	for i, g := range q.GroupBy {
		if g.Table == q.Fact {
			groupRegs[i] = load(g.Column)
			continue
		}
		r, ok := attrRegs[g.Table+"."+g.Column]
		if !ok {
			panic("exec: group-by attribute " + g.String() + " was not materialized by any join")
		}
		groupRegs[i] = r
	}
	// aggRegs holds each aggregate's input registers; a SUM(a*b) also gets
	// one product register, reused by every group.
	aggRegs := make([][3]cape.VReg, len(q.Aggs))
	for i, a := range q.Aggs {
		if a.Kind != plan.AggCount {
			aggRegs[i][0] = load(a.A)
		}
		if a.Kind == plan.AggSumMul || a.Kind == plan.AggSumSub {
			aggRegs[i][1] = load(a.B)
		}
		if a.Kind == plan.AggSumMul {
			aggRegs[i][2] = regs.fresh()
		}
	}

	if !s.opts.NoBulkAggFastPath && s.bulkGroupLoop(q, groupRegs, aggRegs, rowMask) {
		return
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
			case plan.AggSumMul:
				eng.MulVV(aggRegs[i][2], aggRegs[i][0], aggRegs[i][1])
				aggs[i] = eng.RedSum(aggRegs[i][2], groupMask)
			case plan.AggCount:
				aggs[i] = groupRows
			case plan.AggMin:
				v, _ := eng.RedMin(aggRegs[i][0], groupMask)
				aggs[i] = int64(v)
			case plan.AggMax:
				v, _ := eng.RedMax(aggRegs[i][0], groupMask)
				aggs[i] = int64(v)
			case plan.AggCountDistinct:
				values := distinctUnder(data(a.A), 0, groupMask)
				s.chargeDistinctLoop(int64(len(values)), eng.RegWidth(aggRegs[i][0]))
				acc.addDistinct(keys, i, values)
				aggs[i] = 0
			}
		}
		acc.add(keys, aggs, groupRows)
		eng.Scalar(12) // CP-side result append/merge instructions
		// Merging into the CP-side result table is data-dependent: its
		// working set is the accumulated group set.
		eng.CPAccess(1, int64(len(acc.order))*16)
		remaining = eng.MaskXor(remaining, groupMask)
	}
}

// bulkGroupLoop is a simulator fast path for Algorithm 2: it computes
// every group's aggregates in one pass over the partition and bills the
// exact per-group instruction sequence the iterative loop would issue
// (vfirst; per group column an extract, a search and a mask AND; the
// predicated reductions, a mask XOR and the CP bookkeeping). A surviving
// row's group is its packed composite key, and groups keep the order of
// their first row — the order the loop's vfirst finds them, which the
// per-group CP working-set charge depends on. Returns false when an
// aggregate shape is unsupported, falling back to the literal loop.
func (s *tileSweep) bulkGroupLoop(q *plan.Query, groupRegs []cape.VReg, aggRegs [][3]cape.VReg,
	rowMask *bitvec.Vector) bool {

	for _, a := range q.Aggs {
		if a.Kind == plan.AggSumMul || a.Kind == plan.AggCountDistinct {
			return false // the literal loop handles these shapes
		}
	}
	eng := s.eng
	acc := s.acc
	if rowMask.First() == -1 {
		// The loop's one vfirst finds the mask empty: it never searches or
		// reduces, so no ABA width discovery runs either.
		eng.Charge(isa.OpVMFirst, 32, 1)
		return true
	}
	gdata := make([][]uint32, len(groupRegs))
	for c, r := range groupRegs {
		gdata[c] = eng.Peek(r)
	}
	adata := make([][2][]uint32, len(q.Aggs))
	for i, a := range q.Aggs {
		if a.Kind != plan.AggCount {
			adata[i][0] = eng.Peek(aggRegs[i][0])
		}
		if a.Kind == plan.AggSumSub {
			adata[i][1] = eng.Peek(aggRegs[i][1])
		}
	}

	// Group g's key is keys[g*nk:][:nk], its aggregates vals[g*na:][:na].
	nk, na := len(groupRegs), len(q.Aggs)
	groups := make(map[string]int)
	var keys []uint32
	var vals, counts []int64
	packed := make([]byte, 4*nk)
	for i := rowMask.First(); i != -1; i = rowMask.NextAfter(i) {
		for c, d := range gdata {
			binary.LittleEndian.PutUint32(packed[4*c:], d[i])
		}
		g, ok := groups[string(packed)]
		if !ok {
			g = len(counts)
			groups[string(packed)] = g
			for _, d := range gdata {
				keys = append(keys, d[i])
			}
			for ai, a := range q.Aggs {
				var init int64
				if a.Kind == plan.AggMin || a.Kind == plan.AggMax {
					init = int64(adata[ai][0][i])
				}
				vals = append(vals, init)
			}
			counts = append(counts, 0)
		}
		counts[g]++
		gv := vals[g*na:][:na]
		for ai, a := range q.Aggs {
			switch a.Kind {
			case plan.AggSumCol, plan.AggAvg:
				gv[ai] += int64(adata[ai][0][i])
			case plan.AggSumSub:
				gv[ai] += int64(adata[ai][0][i]) - int64(adata[ai][1][i])
			case plan.AggCount:
				gv[ai]++
			case plan.AggMin:
				if v := int64(adata[ai][0][i]); v < gv[ai] {
					gv[ai] = v
				}
			case plan.AggMax:
				if v := int64(adata[ai][0][i]); v > gv[ai] {
					gv[ai] = v
				}
			}
		}
	}

	// Bill the instruction stream the iterative loop would have issued.
	n := int64(len(counts))
	eng.Charge(isa.OpVMFirst, 32, n+1) // one extra probe finds the empty mask
	for _, r := range groupRegs {
		gw := 32
		if eng.Layout() == cape.GPMode {
			// GP-mode searches are bit-serial at the register's ABA
			// width; CAM-mode searches cost 3 cycles regardless, with no
			// width discovery.
			gw = eng.RegWidth(r)
		}
		eng.Charge(isa.OpVExtract, 32, n)
		eng.Charge(isa.OpVMSeqVX, gw, n)
		eng.Charge(isa.OpVMAnd, 32, n)
	}
	eng.Charge(isa.OpVMXor, 32, n)
	eng.Charge(isa.OpVMPopc, 32, n) // per-group row count
	subs := int64(0)
	for ai, a := range q.Aggs {
		switch a.Kind {
		case plan.AggSumCol, plan.AggAvg:
			eng.Charge(isa.OpVRedSum, eng.RegWidth(aggRegs[ai][0]), n)
		case plan.AggSumSub:
			eng.Charge(isa.OpVRedSum, eng.RegWidth(aggRegs[ai][0]), n)
			eng.Charge(isa.OpVRedSum, eng.RegWidth(aggRegs[ai][1]), n)
			subs++
		case plan.AggCount:
			// counted by the shared vcpop above
		case plan.AggMin:
			eng.Charge(isa.OpVRedMin, eng.RegWidth(aggRegs[ai][0]), n)
		case plan.AggMax:
			eng.Charge(isa.OpVRedMax, eng.RegWidth(aggRegs[ai][0]), n)
		}
	}

	for g := range counts {
		// The loop bills each group's scalar subtracts and bookkeeping as
		// separate instructions, each rounded on its own.
		for range subs {
			eng.Scalar(1)
		}
		acc.add(keys[g*nk:][:nk], vals[g*na:][:na], counts[g])
		eng.Scalar(12) // CP-side result append/merge instructions
		eng.CPAccess(1, int64(len(acc.order))*16)
	}
	return true
}
