package optimizer

import (
	"testing"

	"castle/internal/plan"
	"castle/internal/ssb"
)

// TestReplaceTailKeepsDevicesOnAccurateEstimate: when the observed survivor
// count matches what the original search priced, re-placement keeps the tail
// wherever losing the cap cannot help the other side. An observation is
// ground truth, so ReplaceTail caps the group estimate at the observed
// survivor count — an inference the static search refuses to stack on two
// estimates — which can only make CAPE's per-group tail cheaper. Scalar
// queries (no grouping, cap is a no-op) and CAPE-tailed queries must
// therefore keep their devices exactly; CPU-tailed grouped queries are
// allowed to flip toward CAPE (see TestReplaceTailFlipsOnCollapsedSurvivors)
// but the decision must be deterministic and stable once re-placed.
func TestReplaceTailKeepsDevicesOnAccurateEstimate(t *testing.T) {
	m := DefaultCostModel()
	for num := 1; num <= 13; num++ {
		p, cat := ssbPhysical(t, num)
		pp := PlacePlan(p, cat, 32768)
		np, changed := ReplaceTail(pp, cat, 32768, m, pp.EstSurvivors)
		flight := ssb.Queries()[num-1].Flight
		scalar := len(p.Query.GroupBy) == 0
		if (scalar || pp.AggDevice() == plan.DeviceCAPE) &&
			(changed || np.AggDevice() != pp.AggDevice()) {
			t.Errorf("%s: accurate observation moved the tail %s -> %s",
				flight, pp.AggDevice(), np.AggDevice())
		}
		// Re-placing the re-placed plan with the same observation is a fixed
		// point: the decision depends on the observation, not the incumbent.
		np2, changed2 := ReplaceTail(np, cat, 32768, m, pp.EstSurvivors)
		if changed2 || np2.AggDevice() != np.AggDevice() {
			t.Errorf("%s: re-placement not a fixed point (%s -> %s)",
				flight, np.AggDevice(), np2.AggDevice())
		}
	}
}

// TestReplaceTailFlipsOnCollapsedSurvivors: an SSB query whose original
// placement sent the aggregation tail to the CPU (high estimated group
// cardinality) must flip the tail back to CAPE when the observation says
// almost nothing survived — a near-empty tail is exactly where CAPE's
// per-group loop wins. The fact and dimension devices stay pinned: only the
// tail is unexecuted.
func TestReplaceTailFlipsOnCollapsedSurvivors(t *testing.T) {
	m := DefaultCostModel()
	flipped := false
	for num := 1; num <= 13; num++ {
		p, cat := ssbPhysical(t, num)
		pp := PlacePlan(p, cat, 32768)
		if pp.AggDevice() != plan.DeviceCPU || p.Query.GroupedSumMul() {
			continue
		}
		np, changed := ReplaceTail(pp, cat, 32768, m, 1)
		if np.FactDevice() != pp.FactDevice() {
			t.Fatalf("query %d: re-placement moved the executed fact stage %s -> %s",
				num, pp.FactDevice(), np.FactDevice())
		}
		for _, op := range np.Ops {
			if op.Kind == plan.OpDimBuild && op.Device != pp.DimDevice(op.Dim) {
				t.Fatalf("query %d: re-placement moved dim %s", num, op.Dim)
			}
		}
		if changed && np.AggDevice() == plan.DeviceCAPE {
			flipped = true
		}
	}
	if !flipped {
		t.Error("no CPU-tailed SSB query flipped to CAPE on a collapsed observation")
	}
}

// TestReplaceTailObservedProvenance: the re-placed plan's tail rows carry
// EstSource "observed" while the already-executed fact stage keeps its
// histogram provenance — EXPLAIN ANALYZE's est-src column tells the two
// halves apart.
func TestReplaceTailObservedProvenance(t *testing.T) {
	p, cat := ssbPhysical(t, 4) // Q2.1: grouped, three joins
	pp := PlacePlan(p, cat, 32768)
	np, _ := ReplaceTail(pp, cat, 32768, DefaultCostModel(), 17)
	for _, op := range np.Ops {
		switch op.Kind {
		case plan.OpAggregate, plan.OpMerge, plan.OpOrderLimit:
			if op.EstSource != "observed" {
				t.Errorf("tail op %s source %q, want observed", op.Kind, op.EstSource)
			}
		case plan.OpScan, plan.OpFilter, plan.OpJoinProbe:
			if op.EstSource != "histogram" {
				t.Errorf("fact op %s source %q, want histogram", op.Kind, op.EstSource)
			}
		}
	}
	if np.EstSurvivors != 17 {
		t.Errorf("re-placed plan EstSurvivors = %d, want the observation 17", np.EstSurvivors)
	}
}

// TestReplaceTailGroupedSumMulStaysOnCPU: the CAPE aggregation kernel
// rejects grouped SUM(a*b), so no observation — however favorable to CAPE —
// may move that tail. With a single candidate there is also no runner-up:
// AltFeasible must stay false so would-flip telemetry skips the plan.
func TestReplaceTailGroupedSumMulStaysOnCPU(t *testing.T) {
	db, cat := ssbEnv(t)
	q := bindSQL(t, db, `
		SELECT d_year, SUM(lo_extendedprice * lo_discount) AS revenue
		FROM lineorder, date
		WHERE lo_orderdate = d_datekey AND d_year = 1993
		GROUP BY d_year`)
	p, err := Optimize(q, cat, 32768)
	if err != nil {
		t.Fatal(err)
	}
	pp := PlacePlan(p, cat, 32768)
	for _, observed := range []int64{0, 1, 1 << 40} {
		np, changed := ReplaceTail(pp, cat, 32768, DefaultCostModel(), observed)
		if changed || np.AggDevice() != plan.DeviceCPU {
			t.Fatalf("observed=%d moved a grouped SUM(a*b) tail to %s", observed, np.AggDevice())
		}
		if np.AltFeasible || np.AltEstCycles != 0 {
			t.Fatalf("observed=%d: single-candidate re-placement reported a runner-up (%d)",
				observed, np.AltEstCycles)
		}
	}
}

// TestReplaceTailRunnerUp: with both tail devices in play the re-placed plan
// reports the loser as AltEstCycles, never cheaper than the winner.
func TestReplaceTailRunnerUp(t *testing.T) {
	p, cat := ssbPhysical(t, 4)
	pp := PlacePlan(p, cat, 32768)
	for _, observed := range []int64{0, 100, pp.EstSurvivors, 1 << 30} {
		np, _ := ReplaceTail(pp, cat, 32768, DefaultCostModel(), observed)
		if !np.AltFeasible || np.AltEstCycles <= 0 {
			t.Fatalf("observed=%d: two-candidate re-placement has no runner-up", observed)
		}
		if np.AltEstCycles < np.EstCycles() {
			t.Fatalf("observed=%d: runner-up %d beats winner %d",
				observed, np.AltEstCycles, np.EstCycles())
		}
	}
}

// TestReplaceTailClampsNegativeObservation: a negative survivor count (a
// caller bug) clamps to zero instead of poisoning the cost model, and the
// group estimate keeps its ≥1 floor (the empty grouping still emits a row).
func TestReplaceTailClampsNegativeObservation(t *testing.T) {
	p, cat := ssbPhysical(t, 4)
	pp := PlacePlan(p, cat, 32768)
	np, _ := ReplaceTail(pp, cat, 32768, DefaultCostModel(), -5)
	if np.EstSurvivors != 0 {
		t.Fatalf("negative observation produced EstSurvivors %d, want 0", np.EstSurvivors)
	}
	if np.EstGroups < 1 {
		t.Fatalf("group estimate collapsed to %d, want >= 1", np.EstGroups)
	}
}
