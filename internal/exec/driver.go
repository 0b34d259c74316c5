package exec

// driver.go is the one execution path above the engines. Every query —
// forced onto one device, routed whole-query by the §7.2 crossovers, or
// placed per operator — arrives as a plan.PlacedPlan, runs through Placed
// on fresh engines, and leaves as one Outcome whose accounting is assembled
// the same way whatever the placement.

import (
	"context"
	"sync"

	"castle/internal/baseline"
	"castle/internal/cape"
	"castle/internal/isa"
	"castle/internal/plan"
	"castle/internal/stats"
	"castle/internal/storage"
	"castle/internal/telemetry"
)

// Device names an execution engine. It aliases plan.Device so whole-query
// routing decisions and per-operator placements speak the same vocabulary.
type Device = plan.Device

// Devices.
const (
	DeviceCAPE = plan.DeviceCAPE
	DeviceCPU  = plan.DeviceCPU
)

// RunOptions configure one Execute call.
type RunOptions struct {
	// CAPE is the CAPE design point.
	CAPE cape.Config
	// Catalog supplies ABA bitwidths and dimension statistics.
	Catalog *stats.Catalog
	// Fusion enables CAPE operator fusion (§7.4); false runs the ablation.
	Fusion bool
	// Parallelism is the fact-stage fan-out degree (tiles or cores).
	Parallelism int
	// Streaming runs the pull-based batch pipeline.
	Streaming bool
	// Adaptive, when non-nil, runs the mid-query re-placement checkpoint;
	// the fact stage then materializes, so Streaming does not apply.
	Adaptive *AdaptiveOptions
	// Telemetry receives the engines' cycle counters, and Span hosts the
	// operator spans (either may be nil).
	Telemetry *telemetry.Telemetry
	Span      *telemetry.Span
}

// Outcome is the closed accounting of one Execute call.
type Outcome struct {
	Result *Result
	// Device names the engines the run occupied: "CAPE", "CPU" or
	// "CAPE+CPU".
	Device string
	// Cycles is the elapsed total: both devices' work minus the transfer
	// cycles streaming hid under compute. The breakdown rows sum to it.
	Cycles     int64
	CAPECycles int64
	CPUCycles  int64
	// Seconds is simulated wall time and BytesMoved DRAM traffic, summed
	// over both engines.
	Seconds    float64
	BytesMoved int64
	// ClassShare gives the CAPE engine's Figure 7 class shares (nil when
	// CAPE did no work).
	ClassShare map[string]float64
	Breakdown  *telemetry.Breakdown
	Parallel   ParallelStats
	Stream     StreamStats
	// Adaptive carries the checkpoint's accounting for adaptive runs.
	Adaptive *AdaptiveStats
	// Engine and CPU are the engines the run used, for callers that report
	// their detailed statistics.
	Engine *cape.Engine
	CPU    *baseline.CPU
}

// Execute runs a placed plan on fresh engines and closes its accounting.
// Engines a static placement never touches get no telemetry hook.
func Execute(ctx context.Context, pp *plan.PlacedPlan, db *storage.Database, o RunOptions) (*Outcome, error) {
	eng := cape.New(o.CAPE)
	cpu := baseline.New(baseline.DefaultConfig())
	if o.Adaptive != nil || usesDevice(pp, DeviceCAPE) {
		AttachEngineTelemetry(eng, o.Telemetry)
	}
	if o.Adaptive != nil || usesDevice(pp, DeviceCPU) {
		AttachCPUTelemetry(cpu, o.Telemetry)
	}
	x := NewPlaced(NewCastle(eng, o.Catalog, CastleOptions{Fusion: o.Fusion}), NewCPUExec(cpu), o.Catalog)
	x.SetParallelism(o.Parallelism)
	x.SetStreaming(o.Streaming)
	x.SetTelemetry(o.Telemetry, o.Span)

	out := &Outcome{Engine: eng, CPU: cpu}
	var err error
	if o.Adaptive != nil {
		var ast AdaptiveStats
		out.Result, ast, err = x.RunAdaptiveContext(ctx, pp, db, *o.Adaptive)
		out.Adaptive = &ast
	} else {
		out.Result, err = x.RunContext(ctx, pp, db)
	}
	if err != nil {
		return nil, err
	}
	b := x.last.Load()
	out.Device = occupied(pp, b.tail)
	out.CAPECycles, out.CPUCycles = b.capeCycles, b.cpuCycles
	out.Cycles = b.capeCycles + b.cpuCycles - b.stream.OverlapCycles
	st := eng.Stats()
	out.Seconds = st.Seconds(o.CAPE.ClockHz) + cpu.Seconds()
	out.BytesMoved = eng.Mem().BytesMoved() + cpu.Mem().BytesMoved()
	if st.TotalCycles() > 0 {
		share := st.ClassShare()
		out.ClassShare = make(map[string]float64, isa.NumClasses)
		for c := isa.Class(0); c < isa.NumClasses; c++ {
			out.ClassShare[c.String()] = share[c]
		}
	}
	out.Breakdown = b.breakdown
	out.Parallel = b.parallel
	out.Stream = b.stream
	o.Span.SetInt("cycles", out.Cycles)
	o.Span.SetStr("device", out.Device)
	return out, nil
}

// SharedOutcome is the closed accounting of one fused shared-scan group.
type SharedOutcome struct {
	// Members align with the plans passed to ExecuteShared.
	Members []SharedMemberResult
	Stats   SharedStats
	// BytesMoved is the group engine's DRAM traffic and ClockHz its clock.
	BytesMoved int64
	ClockHz    float64
}

// ExecuteShared runs the member plans as one fused fact sweep on a fresh
// engine of dev (see RunSharedCAPE and RunSharedCPU). A CAPE group runs on
// design point cfg, sizes its ABA bitwidths from cat and fuses its
// operators when fusion is set; tel (may be nil) receives the engine's
// cycle counters.
func ExecuteShared(ctx context.Context, dev Device, plans []*plan.Physical, db *storage.Database,
	cfg cape.Config, cat *stats.Catalog, fusion bool, tel *telemetry.Telemetry) (*SharedOutcome, error) {

	var members []SharedMemberResult
	var st SharedStats
	var err error
	if dev == DeviceCPU {
		cpu := baseline.New(baseline.DefaultConfig())
		AttachCPUTelemetry(cpu, tel)
		members, st, err = RunSharedCPU(ctx, cpu, plans, db)
		return &SharedOutcome{members, st, cpu.Mem().BytesMoved(), cpu.Config().ClockHz}, err
	}
	eng := cape.New(cfg)
	AttachEngineTelemetry(eng, tel)
	members, st, err = RunSharedCAPE(ctx, eng, cat, CastleOptions{Fusion: fusion}, plans, db)
	return &SharedOutcome{members, st, eng.Mem().BytesMoved(), cfg.ClockHz}, err
}

// usesDevice reports whether any operator of pp is placed on dev.
func usesDevice(pp *plan.PlacedPlan, dev Device) bool {
	for _, op := range pp.Ops {
		if op.Device == dev {
			return true
		}
	}
	return false
}

// occupied names the engines a run used: every operator where pp placed it,
// except the aggregation tail, which ran on tail.
func occupied(pp *plan.PlacedPlan, tail Device) string {
	for _, op := range pp.Ops {
		switch op.Kind {
		case plan.OpAggregate, plan.OpMerge, plan.OpOrderLimit:
		default:
			if op.Device != tail {
				return "CAPE+CPU"
			}
		}
	}
	return tail.String()
}

// fanOut clamps a requested fan-out degree to [1, units]: never more lanes
// than there are morsels (or rows) to run on them.
func fanOut(k, units int) int {
	if k > units {
		k = units
	}
	if k < 1 {
		k = 1
	}
	return k
}

// runLanes runs fn for lanes 0..k-1 — inline when k is 1, one goroutine per
// lane otherwise — and returns the first error in lane order.
func runLanes(k int, fn func(lane int) error) error {
	if k == 1 {
		return fn(0)
	}
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			errs[lane] = fn(lane)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// overlapHidden is the lane work hidden under the critical lane of a
// fan-out: the sum of the lanes' cycles minus the largest.
func overlapHidden(cycles []int64) int64 {
	var sum, max int64
	for _, cy := range cycles {
		sum += cy
		if cy > max {
			max = cy
		}
	}
	return sum - max
}

// estimateGroups predicts the number of result groups: the product of the
// group columns' distinct counts, capped by the fact cardinality.
func estimateGroups(q *plan.Query, cat *stats.Catalog) int {
	if len(q.GroupBy) == 0 {
		return 1
	}
	groups := 1
	for _, g := range q.GroupBy {
		if cs, ok := cat.Column(g.Table, g.Column); ok && cs.Distinct > 0 {
			if groups > 1<<30/cs.Distinct {
				groups = 1 << 30
				break
			}
			groups *= cs.Distinct
		}
	}
	if rows := cat.MustTable(q.Fact).Rows; groups > rows {
		groups = rows
	}
	return groups
}

// DecideDevice applies the paper's deployment model to a whole query: "CAPE
// being closely integrated in a tiled architecture along other cores allows
// for a software architecture in which such decisions are made dynamically"
// (§7.2). The heuristics come straight from the microbenchmark crossovers:
//
//   - aggregations with more than ~5,000 estimated groups run on the CPU
//     (Figure 12: "such aggregates are better evaluated on the CPU");
//   - joins whose filtered probe side exceeds ~250K rows run on the CPU
//     (Figure 11: parity near 250K-row dimensions);
//   - a grouped SUM(a*b) runs on the CPU when cfg's adaptive data layout
//     keeps CAPE's aggregation in CAM mode (see Castle.RunContext);
//   - everything else runs on CAPE.
//
// Zero thresholds select the paper's crossover defaults. The serving layer
// routes with it before acquiring a CAPE tile or CPU slot.
func DecideDevice(p *plan.Physical, cat *stats.Catalog, cfg cape.Config, groupThreshold, dimThreshold int) Device {
	if groupThreshold <= 0 {
		groupThreshold = 5000
	}
	if dimThreshold <= 0 {
		dimThreshold = 250_000
	}
	q := p.Query
	if (cfg.EnableADL && q.GroupedSumMul()) || estimateGroups(q, cat) > groupThreshold {
		return DeviceCPU
	}
	for _, j := range q.Joins {
		// Filtered probe-side size (right-deep direction probes with the
		// filtered dimension).
		total := float64(cat.MustTable(j.Dim).Rows)
		sel := 1.0
		for _, pr := range q.DimPreds[j.Dim] {
			sel *= predSelectivity(cat, pr)
		}
		if int(total*sel) > dimThreshold {
			return DeviceCPU
		}
	}
	return DeviceCAPE
}

// predSelectivity is the routing heuristic's selectivity estimate from the
// catalog's summary statistics.
func predSelectivity(cat *stats.Catalog, p plan.Predicate) float64 {
	if p.Never {
		return 0
	}
	cs, ok := cat.Column(p.Table, p.Column)
	if !ok {
		return 1
	}
	switch p.Op {
	case plan.PredEQ:
		return cs.EqSelectivity()
	case plan.PredNE:
		return 1 - cs.EqSelectivity()
	case plan.PredLT, plan.PredLE:
		return cs.RangeSelectivity(cs.Min, p.Value)
	case plan.PredGT, plan.PredGE:
		return cs.RangeSelectivity(p.Value, cs.Max)
	case plan.PredBetween:
		return cs.RangeSelectivity(p.Lo, p.Hi)
	case plan.PredIn:
		return cs.InSelectivity(len(p.Values))
	}
	return 1
}
