package optimizer

// replace.go is the adaptive half of statistics-driven placement: once the
// fact stage has actually run, the executor knows the true survivor count,
// and the aggregation tail — which has not executed yet — can be re-placed
// with that observation instead of the histogram estimate. The re-placement
// search only re-prices the tail candidates (the fact stage and dimension
// builds are sunk cost, identical across candidates), so comparing whole-
// pipeline totals picks the same winner as comparing tails alone.

import (
	"math"

	"castle/internal/plan"
	"castle/internal/stats"
)

// ReplaceTail re-runs the placement search for the unexecuted aggregation
// tail of an already-started pipeline, with the fact stage's observed
// survivor count substituted for the estimate. The fact stage and dimension
// devices are pinned to what already executed; only the tail's device is
// reconsidered (CAPE stays excluded for grouped SUM(a*b) tails, which its
// aggregation kernel rejects). Returns a freshly annotated plan whose tail
// ops carry EstSource "observed", and whether the tail device changed.
func ReplaceTail(pp *plan.PlacedPlan, cat *stats.Catalog, maxvl int, m CostModel, observed int64) (*plan.PlacedPlan, bool) {
	q := pp.Phys.Query
	c := newPlaceCtx(pp.Phys, cat, maxvl, m)
	c.tailSrc = stats.SourceObserved.String()
	if observed < 0 {
		observed = 0
	}
	c.matched = float64(observed)
	// A group needs at least one surviving row, so the observed survivor
	// count caps the group estimate too (but never below 1 — the empty
	// grouping still emits its scalar row).
	if g := float64(observed); len(q.GroupBy) > 0 && c.groups > g {
		if g < 1 {
			g = 1
		}
		c.groups = g
	}

	factDev := pp.FactDevice()
	curAgg := pp.AggDevice()
	dimDev := make(map[string]plan.Device, len(pp.Phys.Joins))
	for _, op := range pp.Ops {
		if op.Kind == plan.OpDimBuild {
			dimDev[op.Dim] = op.Device
		}
	}

	aggDevs := []plan.Device{curAgg, otherDevice(curAgg)}
	if q.GroupedSumMul() {
		aggDevs = []plan.Device{plan.DeviceCPU}
	}

	var best *plan.PlacedPlan
	bestCost, altCost := int64(math.MaxInt64), int64(math.MaxInt64)
	for _, aggDev := range aggDevs {
		cand := plan.Compile(pp.Phys, factDev)
		cost := c.annotate(cand, factDev, aggDev, dimDev)
		// Strict < with the incumbent tail device tried first: equal-cost
		// candidates keep the tail where the original search put it.
		if cost < bestCost {
			if best != nil && bestCost < altCost {
				altCost = bestCost
			}
			best, bestCost = cand, cost
		} else if cost < altCost {
			altCost = cost
		}
	}
	if altCost < int64(math.MaxInt64) {
		best.AltEstCycles = altCost
		best.AltFeasible = true
	}
	return best, best.AggDevice() != curAgg
}
