package exec

// cape_join.go holds the CAPE JoinProbe kernels: the right-deep direction
// (filtered dimension keys probe the resident fact partition, Algorithm 1
// with the probe side swapped) and the left-deep direction (surviving fact
// rows probe CSB-resident dimension partitions).

import (
	"castle/internal/bitvec"
	"castle/internal/cape"
	"castle/internal/storage"
)

// mksThreshold returns the minimum probe-key batch size worth a vmks: one
// cacheline of keys. Smaller batches use vmseq.vx, since sub-cacheline
// fetches waste memory bandwidth (§6.2).
func (s *tileSweep) mksThreshold() int {
	return s.eng.Config().Mem.LineBytes / 4
}

// probeFactWithDim probes the resident fact FK column with every qualifying
// key of a filtered dimension, returning the semi-join mask and
// materializing needed attributes via bulk updates.
func (s *tileSweep) probeFactWithDim(fkReg cape.VReg, d dimSide, regs *regAlloc, attrRegs map[string]cape.VReg) *bitvec.Vector {
	eng := s.eng
	useMKS := eng.Config().EnableMKS

	// Attribute target vectors, zero-initialised per partition.
	targets := make([]cape.VReg, len(d.edge.NeedAttrs))
	for i, a := range d.edge.NeedAttrs {
		key := d.edge.Dim + "." + a
		r, ok := attrRegs[key]
		if !ok {
			r = regs.fresh()
			attrRegs[key] = r
		}
		eng.Broadcast(r, 0)
		targets[i] = r
	}

	searchKeys := func(keys []uint32) *bitvec.Vector {
		if useMKS && len(keys) >= s.mksThreshold() {
			eng.Scalar(4)
			return eng.MultiKeySearch(fkReg, keys)
		}
		eng.Scalar(int64(3 * len(keys))) // key load + loop control per vmseq.vx
		return eng.SearchBatch(fkReg, keys)
	}

	if len(d.edge.NeedAttrs) == 0 {
		return searchKeys(d.keys)
	}
	// Group-aware probing: all keys sharing an attribute tuple probe as
	// one batch, then a single predicated bulk update per attribute
	// materializes the tuple into the fact-aligned vectors.
	var join *bitvec.Vector
	for _, g := range d.groups {
		m := searchKeys(g.keys)
		for i, r := range targets {
			eng.Merge(r, m, g.attrVals[i])
		}
		if join == nil {
			join = m
		} else {
			join = eng.MaskOr(join, m)
		}
	}
	if join == nil {
		return eng.MaskInit(false)
	}
	return join
}

// probeDimWithRows implements the left-deep direction: each surviving fact
// row's foreign key probes CSB-resident partitions of the filtered
// dimension; rows without a match are cleared from the row mask, and needed
// attributes are fetched via vfirst+extract.
func (s *tileSweep) probeDimWithRows(fact *storage.Table, d dimSide, base, factVL int,
	rowMask *bitvec.Vector, regs *regAlloc, attrRegs map[string]cape.VReg) *bitvec.Vector {

	eng := s.eng
	maxvl := eng.Config().MAXVL
	fkData := fact.MustColumn(d.edge.FactFK).Data

	// Compact the surviving rows to a CP-side values array (Figure 4).
	survivors := rowMask.Indices()
	eng.Scalar(int64(2 * len(survivors))) // compaction bookkeeping
	eng.ChargeStreamWrite(int64(4 * len(survivors)))

	keyReg := regs.fresh()
	attrSrc := make([]cape.VReg, len(d.edge.NeedAttrs))
	for i := range d.edge.NeedAttrs {
		attrSrc[i] = regs.fresh()
	}
	targets := make([]cape.VReg, len(d.edge.NeedAttrs))
	for i, a := range d.edge.NeedAttrs {
		key := d.edge.Dim + "." + a
		r, ok := attrRegs[key]
		if !ok {
			r = regs.fresh()
			attrRegs[key] = r
			eng.SetVL(factVL)
			eng.Broadcast(r, 0)
		}
		targets[i] = r
	}

	matched := bitvec.New(factVL)
	rowAttr := make(map[int][]uint32, len(survivors))

	for off := 0; off < len(d.keys) || off == 0; off += maxvl {
		dvl := len(d.keys) - off
		if dvl > maxvl {
			dvl = maxvl
		}
		if dvl <= 0 {
			break
		}
		eng.SetVL(dvl)
		eng.Load(keyReg, d.keys[off:off+dvl], 0)
		for i := range attrSrc {
			eng.Load(attrSrc[i], d.attrs[i][off:off+dvl], 0)
		}
		for _, row := range survivors {
			fk := fkData[base+row]
			eng.Scalar(3)
			idx := eng.SearchFirst(keyReg, fk)
			if idx == -1 {
				continue
			}
			matched.Set(row)
			if len(attrSrc) > 0 {
				vals := make([]uint32, len(attrSrc))
				for i, r := range attrSrc {
					vals[i] = eng.Extract(r, idx)
				}
				rowAttr[row] = vals
			}
		}
	}

	eng.SetVL(factVL)
	newMask := rowMask.Clone().And(matched)
	eng.Scalar(2)

	// Materialize fetched attributes into the fact-aligned vectors with
	// single-row bulk updates.
	single := bitvec.New(factVL)
	for row, vals := range rowAttr {
		if !newMask.Get(row) {
			continue
		}
		single.Set(row)
		for i, r := range targets {
			eng.Merge(r, single, vals[i])
		}
		single.Clear(row)
	}
	return newMask
}
