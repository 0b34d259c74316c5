package exec

// adaptive.go adds the mid-query re-placement checkpoint to the placed
// executor. An adaptive run is the materializing split pipeline of
// placed.go — dimension builds on their placed devices, the fused
// Scan+Filter+JoinProbe sweep on the fact device, survivors gathered into
// one ship batch per lane — that pauses before the aggregation tail: the
// observed survivor count is compared against the optimizer's
// estimate, and if the symmetric ratio exceeds the threshold the caller's
// replan hook re-runs the placement search for the unexecuted aggregation
// tail with the observed cardinality. The tail then runs on whichever
// device won — the ship path already handles either direction, and both
// tails consume identical survivor batches in identical order, so
// adaptation can change cycle counts but never answers.

import (
	"context"

	"castle/internal/plan"
	"castle/internal/storage"
	"castle/internal/telemetry"
)

// DefaultAdaptiveThreshold is the symmetric divergence ratio above which
// the checkpoint re-plans the tail: 2 means the observed survivor count
// must be off by more than 2x in either direction before the placement
// search re-runs. Small misestimates never flip the Figure-12 crossover,
// so re-planning under the threshold would be pure overhead.
const DefaultAdaptiveThreshold = 2.0

// AdaptiveOptions configures one adaptive run.
type AdaptiveOptions struct {
	// EstSurvivors is the planner's fact-stage survivor estimate the
	// checkpoint compares against (plan.PlacedPlan.EstSurvivors).
	EstSurvivors int64
	// Replan maps the observed survivor count to the aggregation tail's
	// device — typically a closure over optimizer.ReplaceTail. Nil keeps
	// the planned tail device (checkpoint fires are still reported).
	Replan func(observed int64) plan.Device
}

// AdaptiveStats reports what the checkpoint saw and did.
type AdaptiveStats struct {
	// EstSurvivors / Observed are the compared cardinalities.
	EstSurvivors int64
	Observed     int64
	// DivergencePct is the symmetric ratio as a percentage (100 = exact)
	// when defined; 0 when exactly one side was zero (no finite ratio —
	// see telemetry.DivergencePct).
	DivergencePct float64
	// Fired reports whether the divergence exceeded the threshold (or was
	// a zero-vs-nonzero split, which always fires).
	Fired bool
	// Replaced reports whether the tail actually moved to a different
	// device than planned.
	Replaced bool
	// TailDevice is where the aggregation tail ultimately ran.
	TailDevice plan.Device
}

// RunAdaptiveContext executes pp with the mid-query re-placement
// checkpoint. The fact stage always materializes its survivor batches (the
// checkpoint needs the complete observed count before the tail commits to
// a device), so streaming mode does not apply to adaptive runs. Uniform
// placements run the split pipeline too, so the tail can still move.
func (x *Placed) RunAdaptiveContext(ctx context.Context, pp *plan.PlacedPlan, db *storage.Database,
	opts AdaptiveOptions) (*Result, AdaptiveStats, error) {

	return x.run(ctx, pp, db, &opts)
}

// checkpoint compares the observed survivor count in the materialized ship
// batches against the planner's estimate; past the threshold it asks the
// replan hook for the tail's device. It returns the device the tail runs on
// (never CAPE for a grouped SUM(a*b), whatever the hook answers) and records
// the decision in st, whose TailDevice holds the planned device on entry.
func (st *AdaptiveStats) checkpoint(opts AdaptiveOptions, q *plan.Query, ships []*Batch) plan.Device {
	planned := st.TailDevice
	for _, b := range ships {
		st.Observed += int64(len(b.Rows))
	}
	var defined bool
	st.DivergencePct, defined = telemetry.DivergencePct(st.EstSurvivors, st.Observed)
	// A zero-vs-nonzero split has no finite ratio but is by definition a
	// gross misestimate: it always fires.
	st.Fired = !defined || st.DivergencePct > 100*DefaultAdaptiveThreshold
	tail := planned
	if st.Fired && opts.Replan != nil {
		tail = opts.Replan(st.Observed)
	}
	if tail == plan.DeviceCAPE && q.GroupedSumMul() {
		tail = plan.DeviceCPU
	}
	st.Replaced = tail != planned
	st.TailDevice = tail
	return tail
}
