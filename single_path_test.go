package castle_test

// single_path_test.go covers behaviour that every execution path now
// shares: shapes a device cannot run are rejected with a typed error,
// options apply whichever device the hybrid router picks, per-operator runs
// report their fan-out, and fused shared-scan members keep their estimate
// provenance in the flight record.

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	castle "castle"
)

const groupedSumMulSQL = `SELECT d_year, SUM(lo_extendedprice * lo_discount)
FROM lineorder, date WHERE lo_orderdate = d_datekey GROUP BY d_year`

func TestGroupedSumMulRejectedOnCAPE(t *testing.T) {
	db := castle.GenerateSSB(0.01, 20260704)
	if _, _, err := db.QueryWith(groupedSumMulSQL, castle.Options{Device: castle.DeviceCAPE}); !errors.Is(err, castle.ErrUnsupported) {
		t.Fatalf("forced CAPE: want ErrUnsupported, got %v", err)
	}
	want, _, err := db.QueryWith(groupedSumMulSQL, castle.Options{Device: castle.DeviceCPU})
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []castle.Options{
		{Device: castle.DeviceHybrid},
		{Device: castle.DeviceHybrid, Placement: castle.PlacementPerOperator},
		{Device: castle.DeviceHybrid, Placement: castle.PlacementPerOperator, Streaming: true},
		{Device: castle.DeviceHybrid, Placement: castle.PlacementPerOperator, AdaptivePlacement: true},
	} {
		rows, m, err := db.QueryWith(groupedSumMulSQL, opt)
		if err != nil {
			t.Fatalf("%+v: %v", opt, err)
		}
		if !reflect.DeepEqual(rows.Data, want.Data) {
			t.Fatalf("%+v: answer diverged from the CPU\ngot:  %v\nwant: %v", opt, rows.Data, want.Data)
		}
		if opt.Placement == castle.PlacementWholeQuery && m.DeviceUsed != "CPU" {
			t.Fatalf("whole-query hybrid ran on %s, want CPU", m.DeviceUsed)
		}
	}
	if dev, err := db.Route(groupedSumMulSQL, castle.Options{Device: castle.DeviceHybrid}); err != nil || dev != castle.DeviceCPU {
		t.Fatalf("Route = %v, %v; want CPU", dev, err)
	}

	// Unmodified CAPE (no adaptive data layout) aggregates the shape in one
	// layout, so forced CAPE answers and the router keeps it there.
	for _, dev := range []castle.Device{castle.DeviceCAPE, castle.DeviceHybrid} {
		rows, m, err := db.QueryWith(groupedSumMulSQL, castle.Options{Device: dev, DisableEnhancements: true})
		if err != nil {
			t.Fatalf("%v without enhancements: %v", dev, err)
		}
		if m.DeviceUsed != "CAPE" || !reflect.DeepEqual(rows.Data, want.Data) {
			t.Fatalf("%v without enhancements ran on %s\ngot:  %v\nwant: %v", dev, m.DeviceUsed, rows.Data, want.Data)
		}
	}
	if dev, err := db.Route(groupedSumMulSQL, castle.Options{Device: castle.DeviceHybrid, DisableEnhancements: true}); err != nil || dev != castle.DeviceCAPE {
		t.Fatalf("Route without enhancements = %v, %v; want CAPE", dev, err)
	}
}

// TestGroupedSumMulManyGroupsWithoutADL: unmodified CAPE aggregates a
// grouped SUM(a*b) with one product register per aggregate, so a group
// count past the CSB register file answers like the CPU, and the product
// register changes no cycle count.
func TestGroupedSumMulManyGroupsWithoutADL(t *testing.T) {
	db := castle.GenerateSSB(0.01, 1)
	noADL := castle.Options{Device: castle.DeviceCAPE, DisableEnhancements: true}
	for _, tc := range []struct {
		group  string
		groups int
	}{{"d_yearmonthnum", 84}, {"lo_quantity", 50}} {
		q := "SELECT " + tc.group + ", SUM(lo_extendedprice * lo_discount) FROM lineorder, date " +
			"WHERE lo_orderdate = d_datekey GROUP BY " + tc.group
		want, _, err := db.QueryWith(q, castle.Options{Device: castle.DeviceCPU})
		if err != nil {
			t.Fatal(err)
		}
		got, m, err := db.QueryWith(q, noADL)
		if err != nil {
			t.Fatalf("GROUP BY %s: %v", tc.group, err)
		}
		if m.DeviceUsed != "CAPE" || len(got.Data) != tc.groups || !reflect.DeepEqual(got.Data, want.Data) {
			t.Fatalf("GROUP BY %s on %s: %d groups, want %d matching the CPU\ngot:  %v\nwant: %v",
				tc.group, m.DeviceUsed, len(got.Data), tc.groups, got.Data, want.Data)
		}
	}
	_, m, err := db.QueryWith(groupedSumMulSQL, noADL)
	if err != nil {
		t.Fatal(err)
	}
	if m.Cycles != 287480 {
		t.Fatalf("GROUP BY d_year: %d cycles, want 287480", m.Cycles)
	}
}

// TestScalarSumMulManyAggregates: a scalar query's SUM(a*b) aggregates
// share one product register, so more of them than the CSB has registers
// answer like the CPU on forced CAPE and on the hybrid router's CAPE pick,
// and sharing the register changes no cycle count.
func TestScalarSumMulManyAggregates(t *testing.T) {
	db := castle.GenerateSSB(0.01, 1)
	query := func(copies int) string {
		sums := make([]string, copies)
		for i := range sums {
			sums[i] = "SUM(lo_extendedprice * lo_discount)"
		}
		return "SELECT " + strings.Join(sums, ", ") + " FROM lineorder WHERE lo_quantity < 25"
	}
	q := query(31)
	want, _, err := db.QueryWith(q, castle.Options{Device: castle.DeviceCPU})
	if err != nil {
		t.Fatal(err)
	}
	for _, dev := range []castle.Device{castle.DeviceCAPE, castle.DeviceHybrid} {
		got, m, err := db.QueryWith(q, castle.Options{Device: dev})
		if err != nil {
			t.Fatalf("%v: %v", dev, err)
		}
		if m.DeviceUsed != "CAPE" || !reflect.DeepEqual(got.Data, want.Data) {
			t.Fatalf("%v ran on %s\ngot:  %v\nwant: %v", dev, m.DeviceUsed, got.Data, want.Data)
		}
	}
	_, m, err := db.QueryWith(query(30), castle.Options{Device: castle.DeviceCAPE})
	if err != nil {
		t.Fatal(err)
	}
	if m.Cycles != 54248 {
		t.Fatalf("30 copies: %d cycles, want 54248", m.Cycles)
	}
}

// TestHybridHonoursDisableFusion: a hybrid run the router sends to CAPE
// must run the same fusion ablation a forced CAPE run does, and every
// per-operator run whose fact stage sweeps on CAPE pays for it too.
func TestHybridHonoursDisableFusion(t *testing.T) {
	db := castle.GenerateSSB(0.01, 20260704)
	queries := castle.SSBQueries()
	run := func(q string, opt castle.Options) *castle.Metrics {
		t.Helper()
		_, m, err := db.QueryWith(q, opt)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	q11 := queries[0].SQL // Q1.1: a scalar aggregate the router keeps on CAPE
	fused := run(q11, castle.Options{Device: castle.DeviceCAPE})
	forced := run(q11, castle.Options{Device: castle.DeviceCAPE, DisableFusion: true})
	hybrid := run(q11, castle.Options{Device: castle.DeviceHybrid, DisableFusion: true})
	if hybrid.DeviceUsed != "CAPE" {
		t.Fatalf("hybrid routed Q1.1 to %s, want CAPE", hybrid.DeviceUsed)
	}
	if forced.Cycles == fused.Cycles {
		t.Fatalf("DisableFusion changed nothing on forced CAPE (%d cycles)", forced.Cycles)
	}
	if hybrid.Cycles != forced.Cycles {
		t.Fatalf("hybrid with DisableFusion ran %d cycles, forced CAPE %d", hybrid.Cycles, forced.Cycles)
	}

	// Per-operator runs: Q1.1 stays wholly on CAPE, Q3.1 splits (fact stage
	// on CAPE, tail on the CPU), and adaptive runs always take the split
	// pipeline. The ablation charges the same fission overhead a forced
	// CAPE sweep of the same plan pays.
	for _, q := range []castle.SSBQuery{queries[0], queries[6]} {
		penalty := run(q.SQL, castle.Options{Device: castle.DeviceCAPE, DisableFusion: true}).Cycles -
			run(q.SQL, castle.Options{Device: castle.DeviceCAPE}).Cycles
		for _, opt := range []castle.Options{
			{Device: castle.DeviceHybrid, Placement: castle.PlacementPerOperator},
			{Device: castle.DeviceHybrid, Placement: castle.PlacementPerOperator, Streaming: true},
			{Device: castle.DeviceHybrid, Placement: castle.PlacementPerOperator, AdaptivePlacement: true},
			{Device: castle.DeviceHybrid, Placement: castle.PlacementPerOperator, AdaptivePlacement: true, Parallelism: 2, MAXVL: 8192},
		} {
			on := run(q.SQL, opt)
			opt.DisableFusion = true
			off := run(q.SQL, opt)
			if opt.Parallelism > 1 {
				if off.Cycles <= on.Cycles {
					t.Fatalf("%s %+v: DisableFusion ran %d cycles, fused %d", q.Flight, opt, off.Cycles, on.Cycles)
				}
				continue
			}
			if got := off.Cycles - on.Cycles; got != penalty {
				t.Fatalf("%s %+v (%s): DisableFusion cost %d cycles, forced CAPE %d", q.Flight, opt, on.DeviceUsed, got, penalty)
			}
		}
	}
}

// TestPerOperatorReportsParallel: per-operator runs fill Metrics.Parallel
// like every other path, mixed placements included.
func TestPerOperatorReportsParallel(t *testing.T) {
	db := castle.GenerateSSB(0.01, 20260704)
	mixed := 0
	for _, q := range castle.SSBQueries() {
		_, m, err := db.QueryWith(q.SQL, castle.Options{Device: castle.DeviceHybrid,
			Placement: castle.PlacementPerOperator, Parallelism: 4, MAXVL: 8192})
		if err != nil {
			t.Fatalf("%s: %v", q.Flight, err)
		}
		ps := m.Parallel
		if ps.Tiles < 2 || len(ps.TileCycles) != ps.Tiles || ps.ElapsedCycles != m.Cycles || ps.WorkCycles < ps.ElapsedCycles {
			t.Fatalf("%s (%s): parallel stats %+v for %d cycles", q.Flight, m.DeviceUsed, ps, m.Cycles)
		}
		if m.DeviceUsed == "CAPE+CPU" {
			mixed++
		}
	}
	if mixed == 0 {
		t.Fatal("no SSB query placed mixed; the mixed-run profile went untested")
	}
}

// TestSharedGroupFlightOpsCarryEstSource: fused members' flight records
// carry the same per-operator estimate provenance solo runs do.
func TestSharedGroupFlightOpsCarryEstSource(t *testing.T) {
	db := castle.GenerateSSB(0.01, 20260807)
	queries := castle.SSBQueries()
	sqls := []string{queries[3].SQL, queries[6].SQL, queries[10].SQL}
	for _, dev := range []castle.Device{castle.DeviceCAPE, castle.DeviceCPU} {
		tel := castle.NewTelemetry()
		_, mets, err := db.QueryGroup(sqls, castle.Options{Device: dev, ScanSharing: true, Telemetry: tel})
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range mets {
			if m.GroupSize < 2 {
				t.Fatalf("%s member %d ran solo", dev, i)
			}
			rec, ok := tel.Flight().Get(m.FlightSeq)
			if !ok {
				t.Fatalf("%s member %d: no flight record", dev, i)
			}
			sources := 0
			for _, op := range rec.Ops {
				if op.EstSource != "" {
					sources++
				}
			}
			if sources == 0 {
				t.Fatalf("%s member %d: no flight op carries an estimate source: %+v", dev, i, rec.Ops)
			}
		}
	}
}
