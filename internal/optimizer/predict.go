package optimizer

// predict.go exposes the placement cost model as a prediction surface for
// executions whose device was forced (DeviceCAPE, DeviceCPU, whole-query
// hybrid routing): the same per-operator annotations the placement search
// prices become the "est" half of EXPLAIN ANALYZE's predicted-vs-actual
// columns and the flight recorder's misestimate telemetry.

import (
	"castle/internal/plan"
	"castle/internal/stats"
)

// PredictUniform compiles p with every operator on dev and annotates it
// with the default cost model's per-operator estimates. The returned plan's
// AltEstCycles carries the other device's uniform total, so callers can
// tell when the measured run overtook the road not taken. When the other
// device cannot run the query at all — a grouped SUM(a*b) tail is rejected
// by CAPE's aggregation kernel — there is no road not taken: AltFeasible
// stays false and AltEstCycles zero, so would-flip telemetry cannot count
// an un-flippable plan.
func PredictUniform(p *plan.Physical, cat *stats.Catalog, maxvl int, dev plan.Device) *plan.PlacedPlan {
	c := newPlaceCtx(p, cat, maxvl, DefaultCostModel())
	pp := plan.Compile(p, dev)
	c.annotate(pp, dev, dev, nil)
	if otherDevice(dev) == plan.DeviceCAPE && p.Query.GroupedSumMul() {
		return pp
	}
	alt := plan.Compile(p, otherDevice(dev))
	pp.AltEstCycles = c.annotate(alt, otherDevice(dev), otherDevice(dev), nil)
	pp.AltFeasible = true
	return pp
}

// SharedEstimate prices a fused multi-query group run (plan.SharedScan):
// the fact sweep's column stream is charged once over the union of member
// columns, each member keeps its own compute (filter, probes, aggregation,
// dimension prep), and the shared term is attributed pro-rata with a
// largest-remainder split so MemberCycles sums to GroupCycles exactly —
// the predicted twin of the executors' shared-sweep attribution.
type SharedEstimate struct {
	// GroupCycles is the predicted total for the fused run.
	GroupCycles int64
	// SharedScanCycles is the fused column-stream term, charged once.
	SharedScanCycles int64
	// MemberCycles is each member's attributed share; sums to GroupCycles.
	MemberCycles []int64
}

// PredictShared prices the member plans as one fused sweep on dev. Each
// member's exclusive cost is its uniform single-device estimate minus its
// own fact-scan stream (which the fusion deduplicates), floored at zero;
// the shared stream is priced once over the union of member fact columns.
func PredictShared(plans []*plan.Physical, cat *stats.Catalog, maxvl int, dev plan.Device) (SharedEstimate, error) {
	ss, err := plan.NewSharedScan(plans)
	if err != nil {
		return SharedEstimate{}, err
	}
	n := len(plans)
	exclusive := make([]int64, n)
	for i, p := range plans {
		c := newPlaceCtx(p, cat, maxvl, DefaultCostModel())
		pp := plan.Compile(p, dev)
		total := c.annotate(pp, dev, dev, nil)
		e := total - int64(c.scanCost(dev))
		if e < 0 {
			e = 0
		}
		exclusive[i] = e
	}

	m := DefaultCostModel().withDefaults()
	rate := m.CPUStreamBytesPerCycle
	if dev == plan.DeviceCAPE {
		rate = m.CAPEStreamBytesPerCycle
	}
	factRows := float64(cat.MustTable(ss.Fact).Rows)
	shared := int64(4 * factRows * float64(len(ss.SharedColumns())) / rate)

	est := SharedEstimate{SharedScanCycles: shared, MemberCycles: make([]int64, n)}
	for i, e := range exclusive {
		s := shared / int64(n)
		if int64(i) < shared%int64(n) {
			s++
		}
		est.MemberCycles[i] = e + s
		est.GroupCycles += e + s
	}
	return est, nil
}
