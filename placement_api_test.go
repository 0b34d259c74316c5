package castle_test

// placement_api_test.go covers the public surface of per-operator hybrid
// placement: Options.Placement, the combined two-device metrics, and what a
// prepared per-operator statement exposes and reports.

import (
	"context"
	"strings"
	"testing"

	castle "castle"
)

// TestPublicAPIPerOperatorPlacement runs a grouping-heavy SSB flight under
// per-operator placement and checks the result matches the forced
// single-device engines, the placement mixes devices, and the breakdown
// partitions the combined cycle total.
func TestPublicAPIPerOperatorPlacement(t *testing.T) {
	db := castle.GenerateSSB(0.01, 7)
	q := castle.SSBQueries()[7] // Q3.2: selective filter, city-level groups
	want, _, err := db.QueryWith(q.SQL, castle.Options{Device: castle.DeviceCAPE})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{0, 4} {
		rows, m, err := db.QueryWith(q.SQL, castle.Options{
			Device:      castle.DeviceHybrid,
			Placement:   castle.PlacementPerOperator,
			Parallelism: par,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(rows.Data) != len(want.Data) {
			t.Fatalf("par=%d: %d rows, single-device run returned %d", par, len(rows.Data), len(want.Data))
		}
		for i := range rows.Data {
			for j := range rows.Data[i] {
				if rows.Data[i][j] != want.Data[i][j] {
					t.Fatalf("par=%d row %d col %d: %q vs %q", par, i, j, rows.Data[i][j], want.Data[i][j])
				}
			}
		}
		if m.DeviceUsed != "CAPE+CPU" {
			t.Fatalf("par=%d: DeviceUsed = %q, want CAPE+CPU (mixed placement expected on %s)", par, m.DeviceUsed, q.Flight)
		}
		if !strings.Contains(m.Plan, "placed plan (mixed") {
			t.Fatalf("par=%d: Plan does not describe a mixed placed pipeline:\n%s", par, m.Plan)
		}
		if m.Breakdown == nil || m.Breakdown.SumCycles() != m.Cycles {
			t.Fatalf("par=%d: breakdown rows must partition Cycles exactly", par)
		}
		sawXfer := false
		for _, op := range m.Breakdown.Operators {
			if strings.HasPrefix(op.Operator, "xfer:") {
				sawXfer = true
			}
			if op.Device == "" {
				t.Fatalf("par=%d: operator %q carries no device", par, op.Operator)
			}
		}
		if !sawXfer {
			t.Fatalf("par=%d: mixed run published no xfer: rows", par)
		}
	}
}

// TestPublicAPIPreparePlacement checks a prepared per-operator statement:
// it leases its fact stage's device, and its run reports the placed tree
// with per-operator devices — uniform CAPE for the grand-aggregate flights,
// mixed with a CPU aggregate for the grouping-heavy ones.
func TestPublicAPIPreparePlacement(t *testing.T) {
	db := castle.GenerateSSB(0.01, 7)
	run := func(q castle.SSBQuery) *castle.Metrics {
		t.Helper()
		st, err := db.Prepare(q.SQL, castle.Options{Device: castle.DeviceHybrid, Placement: castle.PlacementPerOperator})
		if err != nil {
			t.Fatal(err)
		}
		if st.Device() != castle.DeviceCAPE || st.Fact() != "lineorder" {
			t.Fatalf("%s: fact stage %s on %v, want lineorder on CAPE", q.Flight, st.Fact(), st.Device())
		}
		_, m, err := st.Run(context.Background(), 1)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m := run(castle.SSBQueries()[0]) // Q1.1
	if m.DeviceUsed != "CAPE" {
		t.Fatalf("Q1.1 should place uniform CAPE, ran on %s", m.DeviceUsed)
	}
	if !strings.Contains(m.Plan, "uniform") || !strings.Contains(m.Plan, "scan[lineorder]") {
		t.Fatalf("Q1.1 tree malformed:\n%s", m.Plan)
	}
	m = run(castle.SSBQueries()[7]) // Q3.2
	if m.DeviceUsed != "CAPE+CPU" || !strings.Contains(m.Plan, "placed plan (mixed") {
		t.Fatalf("Q3.2 should mix with the fact stage on CAPE, ran on %s:\n%s", m.DeviceUsed, m.Plan)
	}
	if m.EstCycles <= 0 {
		t.Fatal("EstCycles missing")
	}
	if !strings.Contains(m.Plan, "aggregate") || !strings.Contains(m.Plan, "CPU") {
		t.Fatalf("Q3.2 tree should show a CPU aggregate:\n%s", m.Plan)
	}
}

// TestPublicAPIPlacementValidation pins option parsing and validation.
func TestPublicAPIPlacementValidation(t *testing.T) {
	if p, err := castle.ParsePlacement("per-operator"); err != nil || p != castle.PlacementPerOperator {
		t.Fatalf("ParsePlacement(per-operator) = %v, %v", p, err)
	}
	if p, err := castle.ParsePlacement(""); err != nil || p != castle.PlacementWholeQuery {
		t.Fatalf("ParsePlacement(\"\") = %v, %v", p, err)
	}
	if _, err := castle.ParsePlacement("sideways"); err == nil {
		t.Fatal("ParsePlacement should reject unknown modes")
	}
	db := demoDB(t)
	if _, _, err := db.QueryWith("SELECT SUM(o_amount) FROM orders", castle.Options{Placement: castle.Placement(99)}); err == nil {
		t.Fatal("QueryWith should reject out-of-range Placement")
	}
	// Placement is ignored on forced-device runs: this must not error.
	if _, _, err := db.QueryWith("SELECT SUM(o_amount) FROM orders", castle.Options{
		Device: castle.DeviceCPU, Placement: castle.PlacementPerOperator,
	}); err != nil {
		t.Fatal(err)
	}
}
