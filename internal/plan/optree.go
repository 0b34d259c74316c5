package plan

// optree.go is the explicit physical-operator pipeline behind per-operator
// hybrid placement: a Physical plan compiles into a linear operator tree
// (DimBuild* -> Scan -> Filter -> JoinProbe* -> Aggregate -> Merge ->
// OrderLimit) whose nodes each carry the device they are placed on. The
// optimizer fills devices and cost annotations; both executors consume the
// same tree, with exec.Placed handling plans whose operators span devices.

import (
	"errors"
	"fmt"
	"strings"
)

// Device identifies the engine an operator is placed on.
type Device int

// Devices.
const (
	DeviceCAPE Device = iota
	DeviceCPU
)

func (d Device) String() string {
	if d == DeviceCAPE {
		return "CAPE"
	}
	return "CPU"
}

// OpKind names a physical-operator pipeline stage.
type OpKind int

// Operator kinds, in the order they appear in a placed pipeline.
const (
	// OpDimBuild filters one dimension and compacts its qualifying keys and
	// attributes (CAPE: Figure 4 values arrays; CPU: selection scans feeding
	// hash-table builds).
	OpDimBuild OpKind = iota
	// OpScan streams the fact partition's columns into the executing
	// device (CSB loads on CAPE, cache-line streams on the CPU).
	OpScan
	// OpFilter evaluates the fact selection predicates into a row mask.
	OpFilter
	// OpJoinProbe probes one join edge (right-deep: the filtered dimension
	// probes the resident fact partition; left-deep: surviving rows probe
	// the dimension).
	OpJoinProbe
	// OpAggregate folds surviving rows into the group accumulator
	// (Algorithm 2 on CAPE, hash aggregation on the CPU).
	OpAggregate
	// OpMerge combines partial group accumulators (morsel-parallel lanes,
	// and the device boundary when aggregation runs off the fact device).
	OpMerge
	// OpOrderLimit applies the final ORDER BY / LIMIT on the result
	// relation (CP-side on either device).
	OpOrderLimit
)

// PipelineBreaker reports whether an operator must observe its entire
// input before emitting anything: DimBuild (the hash table / values array
// is consulted by every probe), Aggregate and Merge (a group's value is
// unknown until the last contributing row), and OrderLimit (ordering is a
// property of the whole relation). A streaming executor may not release a
// breaker's output batch-by-batch; everything downstream of the fact scan
// up to the first breaker streams.
func (k OpKind) PipelineBreaker() bool {
	switch k {
	case OpDimBuild, OpAggregate, OpMerge, OpOrderLimit:
		return true
	}
	return false
}

// Streams reports the complement of PipelineBreaker: the operator maps
// each input batch to an output batch independently (Scan, Filter,
// JoinProbe), so a streaming executor can pipeline MAXVL-sized batches
// straight through it.
func (k OpKind) Streams() bool { return !k.PipelineBreaker() }

func (k OpKind) String() string {
	switch k {
	case OpDimBuild:
		return "dimbuild"
	case OpScan:
		return "scan"
	case OpFilter:
		return "filter"
	case OpJoinProbe:
		return "joinprobe"
	case OpAggregate:
		return "aggregate"
	case OpMerge:
		return "merge"
	case OpOrderLimit:
		return "orderlimit"
	}
	return fmt.Sprintf("op(%d)", int(k))
}

// PlacedOp is one node of a placed operator pipeline.
type PlacedOp struct {
	Kind OpKind
	// Dim names the dimension for OpDimBuild / OpJoinProbe nodes.
	Dim string
	// Device is the engine this operator executes on.
	Device Device
	// EstRows is the optimizer's output-cardinality estimate (input rows
	// for OpScan/OpFilter; qualifying dimension rows for dimension nodes;
	// groups for aggregation nodes). Zero when not annotated.
	EstRows int64
	// EstCycles is the optimizer's per-operator cycle estimate on Device.
	// Zero when not annotated.
	EstCycles int64
	// XferCycles is the estimated device-transfer cost paid entering this
	// operator from a producer placed on the other device (0 when the
	// pipeline stays put). Under a streaming cost model this is the
	// overlapped (elapsed) transfer term, not the raw wire cycles.
	XferCycles int64
	// EstSource records where the cardinality behind EstRows/EstCycles came
	// from: "assumed" (fixed constants / unknown columns), "histogram"
	// (collected statistics), or "observed" (measured mid-query by the
	// adaptive checkpoint). Empty when the op is unannotated.
	EstSource string
	// Breaker marks a pipeline breaker: the operator consumes its whole
	// input before producing output, so a streaming executor materializes
	// at this node. Set by Compile from the kind's PipelineBreaker rule.
	Breaker bool
}

// PlacedPlan is a Physical plan with its operator pipeline placed onto
// devices. The fused fact stage (Scan, Filter, every JoinProbe) shares one
// device — CAPE fusion keeps row masks CSB-resident between those
// operators, so splitting inside the stage would materialize every mask
// through memory — and the aggregation tail (Aggregate, Merge, OrderLimit)
// shares another; each DimBuild may sit on either side, paying a transfer
// when it feeds a fact stage on the other device.
type PlacedPlan struct {
	Phys *Physical
	Ops  []PlacedOp
	// AltEstCycles is the estimated total of the best placement the search
	// rejected (the cheapest candidate with a different fact/agg device
	// assignment). Zero when the pipeline was not placed by a search.
	// Comparing it against measured cycles tells whether the placement
	// decision would have flipped under perfect information.
	AltEstCycles int64
	// AltFeasible distinguishes "no alternative exists" from "alternative
	// costs zero": false when the search space collapsed to a single
	// (fact, agg) device assignment (grouped SUM(a*b) force-places the tail
	// on the CPU) or the pipeline was never placed by a search. Would-flip
	// telemetry must not count plans whose placement could not have gone the
	// other way.
	AltFeasible bool
	// EstSurvivors is the estimated fact-stage survivor count (rows reaching
	// the aggregation tail) the placement was priced with; the adaptive
	// checkpoint compares it against the observed count. Zero when
	// unannotated.
	EstSurvivors int64
	// EstGroups is the estimated result-group cardinality.
	EstGroups int64
}

// Compile builds the unplaced operator pipeline for a physical plan, every
// node on dev. Ops follow execution order: one DimBuild per join edge (plan
// order), Scan, Filter (when the query has fact predicates), one JoinProbe
// per edge, Aggregate, Merge, and OrderLimit (when the query orders or
// limits).
func Compile(p *Physical, dev Device) *PlacedPlan {
	q := p.Query
	pp := &PlacedPlan{Phys: p}
	for _, e := range p.Joins {
		pp.Ops = append(pp.Ops, PlacedOp{Kind: OpDimBuild, Dim: e.Dim, Device: dev})
	}
	pp.Ops = append(pp.Ops, PlacedOp{Kind: OpScan, Device: dev})
	if len(q.FactPreds) > 0 {
		pp.Ops = append(pp.Ops, PlacedOp{Kind: OpFilter, Device: dev})
	}
	for _, e := range p.Joins {
		pp.Ops = append(pp.Ops, PlacedOp{Kind: OpJoinProbe, Dim: e.Dim, Device: dev})
	}
	pp.Ops = append(pp.Ops, PlacedOp{Kind: OpAggregate, Device: dev})
	pp.Ops = append(pp.Ops, PlacedOp{Kind: OpMerge, Device: dev})
	if len(q.OrderBy) > 0 || q.Limit > 0 {
		pp.Ops = append(pp.Ops, PlacedOp{Kind: OpOrderLimit, Device: dev})
	}
	for i := range pp.Ops {
		pp.Ops[i].Breaker = pp.Ops[i].Kind.PipelineBreaker()
	}
	return pp
}

// Place sets the devices of a compiled pipeline: the fused fact stage on
// factDev, the aggregation tail on aggDev, and each DimBuild per dimDev
// (dimensions absent from the map follow factDev).
func (pp *PlacedPlan) Place(factDev, aggDev Device, dimDev map[string]Device) *PlacedPlan {
	for i := range pp.Ops {
		op := &pp.Ops[i]
		switch op.Kind {
		case OpDimBuild:
			if d, ok := dimDev[op.Dim]; ok {
				op.Device = d
			} else {
				op.Device = factDev
			}
		case OpScan, OpFilter, OpJoinProbe:
			op.Device = factDev
		case OpAggregate, OpMerge, OpOrderLimit:
			op.Device = aggDev
		}
	}
	return pp
}

// ErrUnsupported marks a placement that asks a device to run an operator
// shape it cannot execute.
var ErrUnsupported = errors.New("plan: unsupported on device")

// Validate checks the placement constraints Compile/Place maintain by
// construction — the fused fact stage on one device and the aggregation
// tail on one device — and rejects, with an error wrapping ErrUnsupported,
// a split plan that asks CAPE to aggregate a grouped SUM(a*b): with the
// adaptive data layout CAPE's tail runs vv arithmetic in GP mode, where
// Algorithm 2's CAM-mode searches cannot run, and a plan does not know the
// engine's layout. A plan wholly on CAPE is left to the engine, which runs
// the shape unless its adaptive data layout pins the aggregation to CAM
// mode.
func (pp *PlacedPlan) Validate() error {
	if _, uniform := pp.Uniform(); !uniform && pp.AggDevice() == DeviceCAPE && pp.Phys.Query.GroupedSumMul() {
		return fmt.Errorf("%w: CAPE cannot aggregate shipped SUM(a*b) tuples under GROUP BY; place the tail on the CPU", ErrUnsupported)
	}
	factSet, aggSet := false, false
	var factDev, aggDev Device
	for _, op := range pp.Ops {
		switch op.Kind {
		case OpScan, OpFilter, OpJoinProbe:
			if factSet && op.Device != factDev {
				return fmt.Errorf("plan: fused fact stage split across devices (%s on %s, want %s)",
					op.Kind, op.Device, factDev)
			}
			factDev, factSet = op.Device, true
		case OpAggregate, OpMerge, OpOrderLimit:
			if aggSet && op.Device != aggDev {
				return fmt.Errorf("plan: aggregation tail split across devices (%s on %s, want %s)",
					op.Kind, op.Device, aggDev)
			}
			aggDev, aggSet = op.Device, true
		}
	}
	return nil
}

// FactDevice returns the device of the fused fact stage.
func (pp *PlacedPlan) FactDevice() Device {
	for _, op := range pp.Ops {
		if op.Kind == OpScan {
			return op.Device
		}
	}
	return DeviceCAPE
}

// AggDevice returns the device of the aggregation tail.
func (pp *PlacedPlan) AggDevice() Device {
	for _, op := range pp.Ops {
		if op.Kind == OpAggregate {
			return op.Device
		}
	}
	return pp.FactDevice()
}

// DimDevice returns the device building a dimension (the fact device for
// unknown names).
func (pp *PlacedPlan) DimDevice(dim string) Device {
	for _, op := range pp.Ops {
		if op.Kind == OpDimBuild && op.Dim == dim {
			return op.Device
		}
	}
	return pp.FactDevice()
}

// Uniform reports whether every operator sits on one device, and which.
func (pp *PlacedPlan) Uniform() (Device, bool) {
	if len(pp.Ops) == 0 {
		return DeviceCAPE, true
	}
	d := pp.Ops[0].Device
	for _, op := range pp.Ops[1:] {
		if op.Device != d {
			return d, false
		}
	}
	return d, true
}

// Mixed reports whether the placement spans both devices.
func (pp *PlacedPlan) Mixed() bool {
	_, uniform := pp.Uniform()
	return !uniform
}

// EstCycles sums the per-operator cycle and transfer estimates (zero when
// the pipeline is unannotated).
func (pp *PlacedPlan) EstCycles() int64 {
	var n int64
	for _, op := range pp.Ops {
		n += op.EstCycles + op.XferCycles
	}
	return n
}

// OpEstimate is one annotated operator projected onto the breakdown-row
// vocabulary both executors emit, so predictions can sit next to measured
// cycles in an EXPLAIN ANALYZE table.
type OpEstimate struct {
	// Row is the breakdown row name ("prep:date", "filter", "join:part",
	// "xfer:aggregate", ...).
	Row string
	// Kind is the dominant operator kind behind the row.
	Kind OpKind
	// Device is the engine the row is placed on.
	Device Device
	// Cycles is the predicted cycle count; Rows the predicted cardinality.
	Cycles int64
	Rows   int64
	// EstSource is the provenance of the estimate (assumed|histogram|
	// observed); empty when the pipeline was annotated before sources were
	// tracked.
	EstSource string
}

// Estimates projects the annotated pipeline onto breakdown rows: one
// "prep:<dim>" per dimension build (plus "xfer:<dim>" when it crosses to
// the fact device), Scan and Filter folded into the "filter" row both
// executors charge streaming against, one "join:<dim>" per probe,
// "xfer:aggregate" for a tail crossing, and Aggregate/Merge/OrderLimit
// folded into "aggregate". Rows the executors emit without a model price
// ("overhead", per-tile sweeps) have no estimate. Estimates that round to
// zero are reported as true zeros — flooring them at 1 used to make the
// symmetric-ratio divergence telemetry print finite-but-meaningless ratios
// for zero-cardinality operators; consumers must guard zero denominators
// instead (an estimated row is one with a non-empty EstSource, not one
// with Cycles > 0).
func (pp *PlacedPlan) Estimates() []OpEstimate {
	var out []OpEstimate
	var filter, agg OpEstimate
	for _, op := range pp.Ops {
		switch op.Kind {
		case OpDimBuild:
			out = append(out, OpEstimate{
				Row: "prep:" + op.Dim, Kind: OpDimBuild, Device: op.Device,
				Cycles: op.EstCycles, Rows: op.EstRows, EstSource: op.EstSource,
			})
			if op.XferCycles > 0 {
				out = append(out, OpEstimate{
					Row: "xfer:" + op.Dim, Kind: OpDimBuild, Device: op.Device,
					Cycles: op.XferCycles, Rows: op.EstRows, EstSource: op.EstSource,
				})
			}
		case OpScan:
			filter = OpEstimate{Row: "filter", Kind: OpFilter, Device: op.Device,
				Cycles: filter.Cycles + op.EstCycles, Rows: op.EstRows,
				EstSource: op.EstSource}
		case OpFilter:
			filter.Cycles += op.EstCycles
			filter.Device = op.Device
			if op.EstSource != "" {
				filter.EstSource = op.EstSource
			}
		case OpJoinProbe:
			out = append(out, OpEstimate{
				Row: "join:" + op.Dim, Kind: OpJoinProbe, Device: op.Device,
				Cycles: op.EstCycles, Rows: op.EstRows, EstSource: op.EstSource,
			})
		case OpAggregate:
			agg.Row, agg.Kind, agg.Device = "aggregate", OpAggregate, op.Device
			agg.Cycles += op.EstCycles
			agg.Rows = op.EstRows
			agg.EstSource = op.EstSource
			if op.XferCycles > 0 {
				out = append(out, OpEstimate{
					Row: "xfer:aggregate", Kind: OpAggregate, Device: op.Device,
					Cycles: op.XferCycles, Rows: op.EstRows, EstSource: op.EstSource,
				})
			}
		case OpMerge, OpOrderLimit:
			agg.Cycles += op.EstCycles
		}
	}
	if filter.Row != "" {
		out = append(out, filter)
	}
	if agg.Row != "" {
		out = append(out, agg)
	}
	return out
}

// EstimateMap returns the Estimates keyed by breakdown row name (the form
// telemetry.Breakdown.ApplyEstimates consumes). Zero-cycle estimates are
// dropped — legacy consumers treat Cycles > 0 as "has estimate"; use
// EstimateCells to see true zeros and sources.
func (pp *PlacedPlan) EstimateMap() map[string]int64 {
	ests := pp.Estimates()
	out := make(map[string]int64, len(ests))
	for _, e := range ests {
		if e.Cycles > 0 {
			out[e.Row] = e.Cycles
		}
	}
	return out
}

// EstCell is one breakdown row's estimate with provenance — the form
// telemetry.Breakdown.ApplyEstimateCells consumes. Unlike EstimateMap,
// a zero-cycle cell survives: "estimated at zero" and "not estimated" are
// different facts, and the divergence telemetry needs to tell them apart.
type EstCell struct {
	Cycles int64
	Rows   int64
	Source string
}

// EstimateCells returns the Estimates keyed by breakdown row name,
// preserving true-zero estimates and per-row sources.
func (pp *PlacedPlan) EstimateCells() map[string]EstCell {
	ests := pp.Estimates()
	out := make(map[string]EstCell, len(ests))
	for _, e := range ests {
		src := e.EstSource
		if src == "" {
			src = "assumed"
		}
		out[e.Row] = EstCell{Cycles: e.Cycles, Rows: e.Rows, Source: src}
	}
	return out
}

// Crossings counts the device transfers the placement pays: one per
// DimBuild feeding a fact stage on the other device, plus one when the
// aggregation tail leaves the fact device.
func (pp *PlacedPlan) Crossings() int {
	fact, agg := pp.FactDevice(), pp.AggDevice()
	n := 0
	for _, op := range pp.Ops {
		if op.Kind == OpDimBuild && op.Device != fact {
			n++
		}
	}
	if agg != fact {
		n++
	}
	return n
}

// String renders the placed operator tree (the \explain surface and the
// golden-test snapshot form): one aligned line per operator with its
// device, probe direction, and cost annotations.
func (pp *PlacedPlan) String() string {
	var b strings.Builder
	kind := "uniform"
	if pp.Mixed() {
		kind = "mixed"
	}
	fmt.Fprintf(&b, "placed plan (%s, %s shape, est %d cycles):\n",
		kind, pp.Phys.Shape(), pp.EstCycles())
	for _, op := range pp.Ops {
		name := op.Kind.String()
		switch op.Kind {
		case OpDimBuild, OpJoinProbe:
			name += "[" + op.Dim + "]"
		case OpScan:
			name += "[" + pp.Phys.Query.Fact + "]"
		}
		fmt.Fprintf(&b, "  %-22s %-4s", name, op.Device)
		if op.Kind == OpJoinProbe {
			dir := "dim-probes-fact"
			for i, e := range pp.Phys.Joins {
				if e.Dim == op.Dim && i >= pp.Phys.Switch {
					dir = "rows-probe-dim"
				}
			}
			fmt.Fprintf(&b, " %-16s", dir)
		} else {
			fmt.Fprintf(&b, " %-16s", "")
		}
		if op.EstRows > 0 || op.EstCycles > 0 {
			fmt.Fprintf(&b, " rows~%-10d cycles~%d", op.EstRows, op.EstCycles)
		}
		if op.XferCycles > 0 {
			fmt.Fprintf(&b, " +xfer~%d", op.XferCycles)
		}
		b.WriteByte('\n')
	}
	return strings.TrimRight(b.String(), "\n")
}
