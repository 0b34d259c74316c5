package optimizer

// placement.go assigns a device to every operator of a physical plan (the
// per-operator half of the paper's §7.2 deployment model). The placement
// search reuses the Figure-5 search counts for CAPE join work, mirrors both
// executors' charge models for the remaining operators, and charges an
// explicit transfer cost whenever the pipeline crosses CAPE<->CPU — so a
// selective fact pipeline can run on CAPE while a high-cardinality
// aggregation (Figure 12's crossover) lands on the CPU, instead of the
// whole query moving.

import (
	"math"

	"castle/internal/plan"
	"castle/internal/stats"
)

// CostModel calibrates the per-operator placement costs. All fields are in
// simulated cycles (of the respective device's clock; the model treats the
// two clocks as comparable, which matches the facade's cycle-denominated
// metrics). Zero values select the defaults.
type CostModel struct {
	// SearchCycles is the CAM-mode cost of one associative search (§5: a
	// 3-cycle wired-NOR compare regardless of width).
	SearchCycles float64
	// CAPEStreamBytesPerCycle / CPUStreamBytesPerCycle approximate each
	// device's streaming bandwidth in bytes per cycle (DRAM bandwidth over
	// clock), pricing column scans and values-array compaction.
	CAPEStreamBytesPerCycle float64
	CPUStreamBytesPerCycle  float64
	// CPUScanCyclesPerRow is the branchless SIMD selection-scan throughput.
	CPUScanCyclesPerRow float64
	// CPUHashCyclesPerKey / CPUAggUpdateCyclesPerRow mirror
	// baseline.Kernels' hash-join and hash-aggregation constants.
	CPUHashCyclesPerKey      float64
	CPUAggUpdateCyclesPerRow float64
	// CAPEGroupLoopCycles is Algorithm 2's per-group loop overhead within
	// one partition (vfirst + vextract + search + mask ops + CP
	// bookkeeping); CAPEReduceCycles is one predicated bit-serial reduction
	// (≈ the operand's ABA width).
	CAPEGroupLoopCycles float64
	CAPEReduceCycles    float64
	// XferFixedCycles is the fixed device-crossing penalty (mask/values
	// flush, cache handoff, kernel launch on the consumer);
	// XferBytesPerCycle prices the payload.
	XferFixedCycles   float64
	XferBytesPerCycle float64
	// Streaming prices the pre-aggregation crossing with the double-buffered
	// overlap formula instead of the raw wire cycles: with B fact batches,
	// only the drain edge (1/B of the payload) plus whatever transfer
	// exceeds the producer's compute stays on the critical path —
	// xfer = fixed + P - min(P, C_fact)·(B-1)/B, where P is the raw payload
	// cycles and C_fact the fact stage's compute estimate. Matches
	// exec.Placed's xfer-overlap credit, so EXPLAIN ANALYZE's est/act
	// divergence for "xfer" rows stays meaningful under streaming.
	Streaming bool
	// FixedEstimates prices predicates with the classic fixed-constant
	// selectivities instead of the collected statistics (Estimator.Fixed).
	// Used by the bench harness to quantify what the histograms buy; every
	// estimate is stamped "assumed".
	FixedEstimates bool
}

// DefaultCostModel returns the calibration used by the facade.
func DefaultCostModel() CostModel {
	return CostModel{
		SearchCycles:             3,
		CAPEStreamBytesPerCycle:  16,
		CPUStreamBytesPerCycle:   21,
		CPUScanCyclesPerRow:      0.5,
		CPUHashCyclesPerKey:      4,
		CPUAggUpdateCyclesPerRow: 4,
		CAPEGroupLoopCycles:      40,
		CAPEReduceCycles:         34,
		XferFixedCycles:          2000,
		XferBytesPerCycle:        16,
	}
}

func (m CostModel) withDefaults() CostModel {
	d := DefaultCostModel()
	if m.SearchCycles <= 0 {
		m.SearchCycles = d.SearchCycles
	}
	if m.CAPEStreamBytesPerCycle <= 0 {
		m.CAPEStreamBytesPerCycle = d.CAPEStreamBytesPerCycle
	}
	if m.CPUStreamBytesPerCycle <= 0 {
		m.CPUStreamBytesPerCycle = d.CPUStreamBytesPerCycle
	}
	if m.CPUScanCyclesPerRow <= 0 {
		m.CPUScanCyclesPerRow = d.CPUScanCyclesPerRow
	}
	if m.CPUHashCyclesPerKey <= 0 {
		m.CPUHashCyclesPerKey = d.CPUHashCyclesPerKey
	}
	if m.CPUAggUpdateCyclesPerRow <= 0 {
		m.CPUAggUpdateCyclesPerRow = d.CPUAggUpdateCyclesPerRow
	}
	if m.CAPEGroupLoopCycles <= 0 {
		m.CAPEGroupLoopCycles = d.CAPEGroupLoopCycles
	}
	if m.CAPEReduceCycles <= 0 {
		m.CAPEReduceCycles = d.CAPEReduceCycles
	}
	if m.XferFixedCycles <= 0 {
		m.XferFixedCycles = d.XferFixedCycles
	}
	if m.XferBytesPerCycle <= 0 {
		m.XferBytesPerCycle = d.XferBytesPerCycle
	}
	return m
}

// EdgeSearches decomposes the Figure-5 whole-query search count into one
// term per join edge, in plan order: the right-deep segment's filtered
// dimensions probing all fact partitions, then the left-deep segment's
// shrinking intermediate probing each stored dimension. The terms sum to
// Cost(q, est, maxvl, joins, switchAt) exactly — the decomposition
// placement tests pin.
func EdgeSearches(q *plan.Query, est Estimator, maxvl int, joins []plan.JoinEdge, switchAt int) []float64 {
	factRows := float64(est.Cat.MustTable(q.Fact).Rows)
	factParts := partitions(factRows, maxvl)

	out := make([]float64, len(joins))
	intermediate := factRows * est.ConjunctionSelectivity(q.FactPreds)
	for i, j := range joins[:switchAt] {
		out[i] = est.FilteredDimRows(q, j.Dim) * factParts
		intermediate *= est.JoinFraction(q, j.Dim)
	}
	for i, j := range joins[switchAt:] {
		dimRows := est.FilteredDimRows(q, j.Dim)
		out[switchAt+i] = intermediate * partitions(dimRows, maxvl)
		intermediate *= est.JoinFraction(q, j.Dim)
	}
	return out
}

// placeCtx carries the shared cardinality estimates one placement search
// needs: the per-edge search counts, survivor estimates, and column counts
// every candidate placement re-prices.
type placeCtx struct {
	p     *plan.Physical
	cat   *stats.Catalog
	est   Estimator
	m     CostModel
	maxvl int

	factRows     float64
	factParts    float64
	matched      float64 // fact rows surviving filter + all joins
	groups       float64
	edgeSearches []float64
	dimSurvivors map[string]float64
	factCols     int // distinct fact columns the sweep touches
	aggInputCols int // aggregate input columns (SumMul/SumSub count two)
	tailCols     int // columns a device-crossing before aggregation ships

	// Estimate provenance, stamped onto the placed ops by annotate.
	factSrc   stats.Source            // fact-predicate conjunction
	dimSrc    map[string]stats.Source // per-dimension conjunction
	groupsSrc stats.Source            // group-cardinality product
	tailSrc   string                  // non-empty overrides the tail ops' source ("observed")
}

func newPlaceCtx(p *plan.Physical, cat *stats.Catalog, maxvl int, m CostModel) *placeCtx {
	q := p.Query
	est := Estimator{Cat: cat, Fixed: m.FixedEstimates}
	c := &placeCtx{
		p: p, cat: cat, est: est, m: m.withDefaults(), maxvl: maxvl,
		dimSurvivors: make(map[string]float64, len(p.Joins)),
		dimSrc:       make(map[string]stats.Source, len(p.Joins)),
	}
	c.factRows = float64(cat.MustTable(q.Fact).Rows)
	c.factParts = partitions(c.factRows, maxvl)
	c.edgeSearches = EdgeSearches(q, est, maxvl, p.Joins, p.Switch)
	var factSel float64
	factSel, c.factSrc = est.ConjunctionSource(q.FactPreds)
	c.matched = c.factRows * factSel
	for _, j := range p.Joins {
		c.dimSurvivors[j.Dim] = est.FilteredDimRows(q, j.Dim)
		_, c.dimSrc[j.Dim] = est.ConjunctionSource(q.DimPreds[j.Dim])
		c.matched *= est.JoinFraction(q, j.Dim)
	}
	var groups int
	groups, c.groupsSrc = cat.GroupCardinality(q.Fact, q.GroupBy)
	c.groups = float64(groups)
	if est.Fixed {
		// The fixed-constant model consults no statistics: every estimate it
		// produces is an assumption, whatever the catalog knows.
		c.factSrc, c.groupsSrc = stats.SourceAssumed, stats.SourceAssumed
		for d := range c.dimSrc {
			c.dimSrc[d] = stats.SourceAssumed
		}
	}

	cols := make(map[string]struct{})
	for _, pr := range q.FactPreds {
		cols[pr.Column] = struct{}{}
	}
	for _, j := range q.Joins {
		cols[j.FactFK] = struct{}{}
	}
	for _, a := range q.Aggs {
		c.aggInputCols++
		if a.Kind != plan.AggCount {
			cols[a.A] = struct{}{}
		}
		if a.Kind == plan.AggSumMul || a.Kind == plan.AggSumSub {
			cols[a.B] = struct{}{}
			c.aggInputCols++
		}
	}
	for _, g := range q.GroupBy {
		if g.Table == q.Fact {
			cols[g.Column] = struct{}{}
		}
	}
	c.factCols = len(cols)
	c.tailCols = c.aggInputCols + len(q.GroupBy)
	if c.tailCols == 0 {
		c.tailCols = 1
	}
	return c
}

// dimBuildCost prices filtering one dimension and compacting its
// qualifying keys and attributes on a device.
func (c *placeCtx) dimBuildCost(e plan.JoinEdge, dev plan.Device) float64 {
	q := c.p.Query
	preds := q.DimPreds[e.Dim]
	dimRows := float64(c.cat.MustTable(e.Dim).Rows)
	survivors := c.dimSurvivors[e.Dim]
	outBytes := 4 * survivors * float64(1+len(e.NeedAttrs))
	if dev == plan.DeviceCAPE {
		if len(preds) == 0 {
			return 8 + 4*survivors // key/attr grouping scalars
		}
		dimParts := partitions(dimRows, c.maxvl)
		scanBytes := 4 * dimRows * float64(len(preds)+1+len(e.NeedAttrs))
		return scanBytes/c.m.CAPEStreamBytesPerCycle +
			c.m.SearchCycles*dimParts*float64(len(preds)) +
			3*survivors + outBytes/c.m.CAPEStreamBytesPerCycle
	}
	if len(preds) == 0 {
		return 1 + survivors // collection bookkeeping
	}
	scanBytes := 4 * dimRows * float64(len(preds))
	return c.m.CPUScanCyclesPerRow*dimRows*float64(len(preds)) +
		scanBytes/c.m.CPUStreamBytesPerCycle + survivors
}

// joinProbeCost prices one join edge on a device. CAPE prices the Figure-5
// search count; the CPU prices hash build plus probe (one probe pass per
// needed attribute re-uses the pattern, the paper's optimized baseline).
func (c *placeCtx) joinProbeCost(i int, e plan.JoinEdge, dev plan.Device) float64 {
	if dev == plan.DeviceCAPE {
		return c.m.SearchCycles * c.edgeSearches[i]
	}
	survivors := c.dimSurvivors[e.Dim]
	passes := float64(len(e.NeedAttrs))
	if passes == 0 {
		passes = 1
	}
	return c.m.CPUHashCyclesPerKey * (survivors + c.factRows*passes)
}

// scanCost prices streaming the fact sweep's columns into the device.
func (c *placeCtx) scanCost(dev plan.Device) float64 {
	bytes := 4 * c.factRows * float64(c.factCols)
	if dev == plan.DeviceCAPE {
		return bytes / c.m.CAPEStreamBytesPerCycle
	}
	return bytes / c.m.CPUStreamBytesPerCycle
}

// filterCost prices the fact selections.
func (c *placeCtx) filterCost(dev plan.Device) float64 {
	n := float64(len(c.p.Query.FactPreds))
	if dev == plan.DeviceCAPE {
		return c.m.SearchCycles * c.factParts * n
	}
	return c.m.CPUScanCyclesPerRow * c.factRows * n
}

// aggregateCost prices the aggregation tail: Algorithm 2's per-group loop
// per partition on CAPE (the Figure-12 crossover — group count is the CAPE
// killer) versus per-row hash aggregation on the CPU.
func (c *placeCtx) aggregateCost(dev plan.Device) float64 {
	q := c.p.Query
	naggs := float64(len(q.Aggs))
	if dev == plan.DeviceCAPE {
		if len(q.GroupBy) == 0 {
			return c.factParts * naggs * c.m.CAPEReduceCycles
		}
		perPart := c.groups
		if mp := c.matched / c.factParts; mp < perPart {
			perPart = mp
		}
		if perPart < 1 {
			perPart = 1
		}
		return c.factParts * perPart * (c.m.CAPEGroupLoopCycles + naggs*c.m.CAPEReduceCycles)
	}
	bytes := 4 * c.factRows * float64(c.tailCols)
	if len(q.GroupBy) == 0 {
		return 0.4*c.matched + bytes/c.m.CPUStreamBytesPerCycle
	}
	return c.matched*(c.m.CPUHashCyclesPerKey+c.m.CPUAggUpdateCyclesPerRow) +
		bytes/c.m.CPUStreamBytesPerCycle
}

// mergeCost prices folding partial group accumulators (morsel lanes and
// the device boundary).
func (c *placeCtx) mergeCost(dev plan.Device) float64 {
	if dev == plan.DeviceCAPE {
		return 12 * c.groups
	}
	return (c.m.CPUHashCyclesPerKey + c.m.CPUAggUpdateCyclesPerRow) * c.groups
}

// orderLimitCost prices the final sort on the result relation.
func (c *placeCtx) orderLimitCost() float64 {
	g := c.groups
	if g < 2 {
		return 2
	}
	return 2 * g * math.Log2(g)
}

// xferCost prices one CAPE<->CPU crossing carrying the given payload.
func (c *placeCtx) xferCost(bytes float64) float64 {
	return c.m.XferFixedCycles + bytes/c.m.XferBytesPerCycle
}

// xferAggCost prices the pre-aggregation crossing. Materializing pays the
// full wire cost. Streaming double-buffers: each of the B fact batches
// ships ~1/B of the payload, and every interior batch's transfer hides
// under the next batch's fact-stage compute — only the drain edge plus the
// un-hidden excess stays on the critical path:
//
//	xfer = fixed + P - min(P, C_fact)·(B-1)/B
//
// where P is the raw payload cycles and C_fact the fact stage's compute
// estimate (scan + filter + probes).
func (c *placeCtx) xferAggCost(bytes, factCompute float64) float64 {
	raw := bytes / c.m.XferBytesPerCycle
	if !c.m.Streaming || c.factParts <= 1 {
		return c.m.XferFixedCycles + raw
	}
	hidden := raw
	if factCompute < hidden {
		hidden = factCompute
	}
	return c.m.XferFixedCycles + raw - hidden*(c.factParts-1)/c.factParts
}

// srcName renders a source for op stamping; tailSrc ("observed", set by
// ReplaceTail) overrides the tail ops' provenance.
func (c *placeCtx) srcName(s stats.Source) string { return s.String() }

func (c *placeCtx) tailSrcName(s stats.Source) string {
	if c.tailSrc != "" {
		return c.tailSrc
	}
	return s.String()
}

// annotate fills the devices and per-operator cost annotations of a
// compiled pipeline for one candidate placement and returns its total cost.
func (c *placeCtx) annotate(pp *plan.PlacedPlan, factDev, aggDev plan.Device, dimDev map[string]plan.Device) int64 {
	q := c.p.Query
	pp.Place(factDev, aggDev, dimDev)
	ji := 0
	var factEst float64              // fact-stage compute, accumulated in op order
	scanSrc := stats.SourceHistogram // table row counts are always collected
	if c.est.Fixed {
		scanSrc = stats.SourceAssumed
	}
	for i := range pp.Ops {
		op := &pp.Ops[i]
		op.EstCycles, op.EstRows, op.XferCycles = 0, 0, 0
		switch op.Kind {
		case plan.OpDimBuild:
			e := *q.JoinFor(op.Dim)
			op.EstRows = int64(math.Round(c.dimSurvivors[op.Dim]))
			op.EstCycles = int64(math.Round(c.dimBuildCost(e, op.Device)))
			op.EstSource = c.srcName(c.dimSrc[op.Dim])
			if op.Device != factDev {
				bytes := 4 * c.dimSurvivors[op.Dim] * float64(1+len(e.NeedAttrs))
				op.XferCycles = int64(math.Round(c.xferCost(bytes)))
			}
		case plan.OpScan:
			op.EstRows = int64(c.factRows)
			op.EstCycles = int64(math.Round(c.scanCost(op.Device)))
			op.EstSource = c.srcName(scanSrc)
			factEst += float64(op.EstCycles)
		case plan.OpFilter:
			op.EstRows = int64(math.Round(c.factRows * c.est.ConjunctionSelectivity(q.FactPreds)))
			op.EstCycles = int64(math.Round(c.filterCost(op.Device)))
			op.EstSource = c.srcName(c.factSrc)
			factEst += float64(op.EstCycles)
		case plan.OpJoinProbe:
			e := c.p.Joins[ji]
			op.EstRows = int64(math.Round(c.edgeSearches[ji]))
			op.EstCycles = int64(math.Round(c.joinProbeCost(ji, e, op.Device)))
			op.EstSource = c.srcName(c.dimSrc[e.Dim])
			factEst += float64(op.EstCycles)
			ji++
		case plan.OpAggregate:
			op.EstRows = int64(c.groups)
			op.EstCycles = int64(math.Round(c.aggregateCost(op.Device)))
			op.EstSource = c.tailSrcName(c.groupsSrc)
			if op.Device != factDev {
				bytes := 4 * c.matched * float64(c.tailCols)
				op.XferCycles = int64(math.Round(c.xferAggCost(bytes, factEst)))
			}
		case plan.OpMerge:
			op.EstRows = int64(c.groups)
			op.EstCycles = int64(math.Round(c.mergeCost(op.Device)))
			op.EstSource = c.tailSrcName(c.groupsSrc)
		case plan.OpOrderLimit:
			op.EstRows = int64(c.groups)
			op.EstCycles = int64(math.Round(c.orderLimitCost()))
			op.EstSource = c.tailSrcName(c.groupsSrc)
		}
	}
	pp.EstSurvivors = int64(math.Round(c.matched))
	pp.EstGroups = int64(c.groups)
	return pp.EstCycles()
}

// PlacePlan assigns a device to every operator of a physical plan under the
// default cost model.
func PlacePlan(p *plan.Physical, cat *stats.Catalog, maxvl int) *plan.PlacedPlan {
	return PlacePlanWith(p, cat, maxvl, DefaultCostModel())
}

// PlacePlanStreaming places under the default cost model with the
// double-buffered transfer term (CostModel.Streaming): interior batch
// transfers hide under compute, so mixed placements price crossings
// cheaper and flip sooner than the materializing search would.
func PlacePlanStreaming(p *plan.Physical, cat *stats.Catalog, maxvl int) *plan.PlacedPlan {
	m := DefaultCostModel()
	m.Streaming = true
	return PlacePlanWith(p, cat, maxvl, m)
}

// PlacePlanWith enumerates every placement the executors support — the
// fused fact stage on one device, the aggregation tail on one device, each
// dimension build on either side — prices each candidate with the
// per-operator costs plus transfer charges, and returns the annotated
// minimum. Ties break toward fewer device crossings, then toward CAPE.
//
// The enumeration is tiny: 2 (fact) x 2 (agg) x 2^dims <= 64 candidates
// for SSB's at-most-four joins.
func PlacePlanWith(p *plan.Physical, cat *stats.Catalog, maxvl int, m CostModel) *plan.PlacedPlan {
	c := newPlaceCtx(p, cat, maxvl, m)
	q := p.Query

	aggDevs := []plan.Device{plan.DeviceCAPE, plan.DeviceCPU}
	if q.GroupedSumMul() {
		aggDevs = []plan.Device{plan.DeviceCPU}
	}

	best := plan.Compile(p, plan.DeviceCAPE)
	bestCost := int64(math.MaxInt64)
	bestCross := 0
	bestFact := plan.DeviceCAPE
	// comboBest tracks the cheapest candidate per (fact, agg) device
	// assignment, so the winner can carry the runner-up's estimate
	// (AltEstCycles) — the "would the placement have flipped?" baseline.
	type combo struct{ fact, agg plan.Device }
	comboBest := make(map[combo]int64, 4)
	cand := plan.Compile(p, plan.DeviceCAPE)
	for _, factDev := range []plan.Device{plan.DeviceCAPE, plan.DeviceCPU} {
		for _, aggDev := range aggDevs {
			for bits := 0; bits < 1<<len(p.Joins); bits++ {
				dimDev := make(map[string]plan.Device, len(p.Joins))
				for di, e := range p.Joins {
					if bits&(1<<di) != 0 {
						dimDev[e.Dim] = otherDevice(factDev)
					} else {
						dimDev[e.Dim] = factDev
					}
				}
				cost := c.annotate(cand, factDev, aggDev, dimDev)
				k := combo{factDev, aggDev}
				if cur, ok := comboBest[k]; !ok || cost < cur {
					comboBest[k] = cost
				}
				cross := cand.Crossings()
				better := cost < bestCost ||
					(cost == bestCost && cross < bestCross) ||
					(cost == bestCost && cross == bestCross &&
						factDev == plan.DeviceCAPE && bestFact != plan.DeviceCAPE)
				if better {
					best, cand = cand, best
					bestCost, bestCross, bestFact = cost, cross, factDev
					cand.Phys = p // reuse the swapped-out pipeline as scratch
				}
			}
		}
	}
	winner := combo{best.FactDevice(), best.AggDevice()}
	alt := int64(math.MaxInt64)
	for k, cost := range comboBest {
		if k != winner && cost < alt {
			alt = cost
		}
	}
	if alt < int64(math.MaxInt64) {
		best.AltEstCycles = alt
		best.AltFeasible = true
	}
	return best
}

func otherDevice(d plan.Device) plan.Device {
	if d == plan.DeviceCAPE {
		return plan.DeviceCPU
	}
	return plan.DeviceCAPE
}
