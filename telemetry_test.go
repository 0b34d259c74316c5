package castle_test

import (
	"encoding/json"
	"strings"
	"testing"

	castle "castle"
	"castle/internal/telemetry"
)

// TestQueryWithTelemetry drives the public facade end to end on a fixed
// SSB query and checks the acceptance properties: the span tree covers
// parse/bind/optimize/execute with per-join children, the Chrome export is
// valid JSON, the Prometheus export carries the run's counters, and the
// EXPLAIN ANALYZE breakdown reconciles with the reported cycle total.
func TestQueryWithTelemetry(t *testing.T) {
	db := castle.GenerateSSB(0.005, 1)
	qsql := castle.SSBQueries()[3].SQL // Q2.1: three joins, grouped

	tel := castle.NewTelemetry()
	rows, m, err := db.QueryWith(qsql, castle.Options{Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) == 0 {
		t.Fatal("no result rows")
	}

	// Breakdown reconciliation: operator cycles partition Metrics.Cycles.
	if m.Breakdown == nil {
		t.Fatal("Metrics.Breakdown missing")
	}
	if m.Breakdown.SumCycles() != m.Breakdown.TotalCycles || m.Breakdown.TotalCycles != m.Cycles {
		t.Fatalf("breakdown sum=%d total=%d metrics cycles=%d",
			m.Breakdown.SumCycles(), m.Breakdown.TotalCycles, m.Cycles)
	}
	table := m.Breakdown.Format()
	for _, want := range []string{"operator", "filter", "aggregate", "total (CAPE)"} {
		if !strings.Contains(table, want) {
			t.Fatalf("EXPLAIN ANALYZE table missing %q:\n%s", want, table)
		}
	}

	// Chrome export: valid JSON whose span names cover the lifecycle.
	var b strings.Builder
	if err := tel.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("invalid Chrome trace: %v", err)
	}
	seen := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		seen[ev.Name] = true
	}
	for _, want := range []string{"query", "parse", "bind", "optimize", "execute", "fact-sweep"} {
		if !seen[want] {
			t.Fatalf("trace missing %q span; have %v", want, seen)
		}
	}
	joins := 0
	for name := range seen {
		if strings.HasPrefix(name, "join:") {
			joins++
		}
	}
	if joins == 0 {
		t.Fatal("trace has no per-join spans")
	}

	// Prometheus export: the run's counters are present.
	b.Reset()
	if err := tel.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	prom := b.String()
	for _, want := range []string{
		`castle_queries_total{device="cape"} 1`,
		"castle_csb_cycles_total",
		"castle_rows_scanned_total",
		"castle_plan_shape_total",
		"castle_query_cycles_count 1",
	} {
		if !strings.Contains(prom, want) {
			t.Fatalf("Prometheus export missing %q:\n%s", want, prom)
		}
	}

	// A second query accumulates into the same registry.
	if _, _, err := db.QueryWith(qsql, castle.Options{Telemetry: tel, Device: castle.DeviceCPU}); err != nil {
		t.Fatal(err)
	}
	b.Reset()
	if err := tel.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `castle_queries_total{device="cpu"} 1`) {
		t.Fatalf("second run not counted:\n%s", b.String())
	}
}

// TestRowsScannedOncePerRun: every execution path records
// castle_rows_scanned_total exactly once per run — the fact rows under the
// fact device, and each dimension's rows under the device that built it.
// Q3.1's per-operator placement at this scale builds date on the CPU and
// sweeps the fact table on CAPE, so split and adaptive runs count on both
// devices.
func TestRowsScannedOncePerRun(t *testing.T) {
	db := castle.GenerateSSB(0.01, 20260704)
	q := castle.SSBQueries()[6] // Q3.1
	perOp := castle.Options{Device: castle.DeviceHybrid, Placement: castle.PlacementPerOperator}
	adaptive := perOp
	adaptive.AdaptivePlacement = true
	for _, tc := range []struct {
		name string
		opt  castle.Options
	}{
		{"cape", castle.Options{Device: castle.DeviceCAPE}},
		{"cpu", castle.Options{Device: castle.DeviceCPU}},
		{"per-operator", perOp},
		{"per-operator+adaptive", adaptive},
	} {
		tel := castle.NewTelemetry()
		opt := tc.opt
		opt.Telemetry = tel
		_, m, err := db.QueryWith(q.SQL, opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		// The serial breakdown names where each scan ran: the filter row
		// sweeps the fact table, each prep row filters one dimension.
		want := map[string]int64{}
		for _, o := range m.Breakdown.Operators {
			dev := strings.ToLower(o.Device)
			if o.Operator == "filter" {
				want[dev] += int64(db.RowCount("lineorder"))
			} else if dim, ok := strings.CutPrefix(o.Operator, "prep:"); ok {
				want[dev] += int64(db.RowCount(dim))
			}
		}
		if tc.opt.Placement == castle.PlacementPerOperator && (want["cape"] == 0 || want["cpu"] == 0) {
			t.Fatalf("%s: expected a split placement, breakdown:\n%s", tc.name, m.Breakdown.Format())
		}
		for _, dev := range []string{"cape", "cpu"} {
			got := tel.Metrics().CounterValue(telemetry.MetricRowsScanned, telemetry.L("device", dev))
			if got != want[dev] {
				t.Errorf("%s: %s{device=%q} = %d, want %d", tc.name, telemetry.MetricRowsScanned, dev, got, want[dev])
			}
		}
	}
}

// TestExplainAnalyzeFacade checks the convenience wrapper renders a table
// for every device.
func TestExplainAnalyzeFacade(t *testing.T) {
	db := castle.GenerateSSB(0.005, 1)
	qsql := castle.SSBQueries()[0].SQL
	for _, dev := range []castle.Device{castle.DeviceCAPE, castle.DeviceCPU, castle.DeviceHybrid} {
		_, m, table, err := db.ExplainAnalyze(qsql, castle.Options{Device: dev})
		if err != nil {
			t.Fatalf("device %v: %v", dev, err)
		}
		if !strings.Contains(table, "total ("+m.DeviceUsed+")") {
			t.Fatalf("device %v: breakdown table wrong:\n%s", dev, table)
		}
		if m.Breakdown.SumCycles() != m.Cycles {
			t.Fatalf("device %v: breakdown does not reconcile (%d != %d)",
				dev, m.Breakdown.SumCycles(), m.Cycles)
		}
	}
}

// TestTelemetryNilIsDefault: queries without a sink behave exactly as
// before (results identical, breakdown still attached to metrics).
func TestTelemetryNilIsDefault(t *testing.T) {
	db := demoDB(t)
	qsql := `SELECT c_region, SUM(o_amount) FROM orders, customers
		WHERE o_customer = c_id GROUP BY c_region ORDER BY c_region`
	r1, m1, err := db.QueryWith(qsql, castle.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, m2, err := db.QueryWith(qsql, castle.Options{Telemetry: castle.NewTelemetry()})
	if err != nil {
		t.Fatal(err)
	}
	if m1.Cycles != m2.Cycles {
		t.Fatalf("telemetry changed the simulation: %d vs %d cycles", m1.Cycles, m2.Cycles)
	}
	if len(r1.Data) != len(r2.Data) {
		t.Fatal("telemetry changed the result")
	}
}
