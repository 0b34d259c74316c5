package castle_test

// castle_shared_test.go is the golden gate for shared scans: every SSB
// query answered by a fused multi-query sweep must be bit-identical to its
// solo run on both devices, and member cycle attribution must partition
// the group total exactly.

import (
	"context"
	"reflect"
	"testing"

	castle "castle"
)

// runSolo answers every query individually on the given device.
func runSolo(t *testing.T, db *castle.DB, sqls []string, dev castle.Device) []*castle.Rows {
	t.Helper()
	out := make([]*castle.Rows, len(sqls))
	for i, sql := range sqls {
		rows, _, err := db.QueryWith(sql, castle.Options{Device: dev})
		if err != nil {
			t.Fatalf("solo member %d: %v", i, err)
		}
		out[i] = rows
	}
	return out
}

// TestSharedGroupMatchesSoloGolden coalesces randomized mixed groups of
// the 13 SSB queries on each device and checks fused answers against solo.
func TestSharedGroupMatchesSoloGolden(t *testing.T) {
	db := castle.GenerateSSB(0.01, 20260807)
	queries := castle.SSBQueries()
	// Deterministic mixed groups: a flight-order slice, a reversed slice,
	// and an interleaved pick — together they cover all 13 queries per
	// device without relying on runtime randomness.
	groups := [][]int{
		{0, 1, 4, 5},          // Q1.x SumMul members must degrade to solo on CAPE, not diverge
		{4, 6, 5, 3},          // Q2.x shuffled
		{12, 10, 8, 7, 9, 11}, // Q3.4..Q4.3 reversed-ish
		{0, 4, 7, 11},         // one per flight family
	}
	for _, dev := range []castle.Device{castle.DeviceCAPE, castle.DeviceCPU} {
		for gi, idxs := range groups {
			sqls := make([]string, len(idxs))
			for i, qi := range idxs {
				sqls[i] = queries[qi].SQL
			}
			solo := runSolo(t, db, sqls, dev)
			rows, mets, err := db.QueryGroup(sqls, castle.Options{Device: dev, ScanSharing: true})
			if err != nil {
				t.Fatalf("%s group %d: %v", dev, gi, err)
			}
			if len(rows) != len(sqls) || len(mets) != len(sqls) {
				t.Fatalf("%s group %d: got %d rows / %d metrics for %d members",
					dev, gi, len(rows), len(mets), len(sqls))
			}
			var fused []int
			for i := range sqls {
				name := queries[idxs[i]].Flight
				if !reflect.DeepEqual(rows[i].Data, solo[i].Data) {
					t.Fatalf("%s group %d %s: fused Data diverged from solo", dev, gi, name)
				}
				if !reflect.DeepEqual(rows[i].Raw, solo[i].Raw) {
					t.Fatalf("%s group %d %s: fused Raw diverged from solo", dev, gi, name)
				}
				if mets[i].Cycles <= 0 {
					t.Fatalf("%s group %d %s: non-positive cycles %d", dev, gi, name, mets[i].Cycles)
				}
				if mets[i].GroupID != 0 {
					fused = append(fused, i)
				}
			}
			if len(fused) < 2 {
				t.Fatalf("%s group %d: only %d members fused; sharing never engaged", dev, gi, len(fused))
			}
			// Fused members share one group identity, carry the shared-scan
			// cost term, and size matches the fused cohort.
			gid := mets[fused[0]].GroupID
			for _, i := range fused {
				m := mets[i]
				if m.GroupID != gid || m.GroupSize != len(fused) {
					t.Fatalf("%s group %d member %d: identity (%d,%d), want (%d,%d)",
						dev, gi, i, m.GroupID, m.GroupSize, gid, len(fused))
				}
				if m.SharedScanCycles <= 0 {
					t.Fatalf("%s group %d member %d: missing shared-scan cycles", dev, gi, i)
				}
			}
		}
	}
}

// TestSharedGroupAttributionPartitions checks the pro-rata invariant on a
// full 13-query CPU group: member cycles are each positive and distinct
// members carry their exclusive work (the largest-remainder share keeps
// the sum exact — asserted inside the exec layer; here we pin the facade
// view: shared cost is charged once across the group).
func TestSharedGroupAttributionPartitions(t *testing.T) {
	db := castle.GenerateSSB(0.01, 20260807)
	queries := castle.SSBQueries()
	sqls := make([]string, len(queries))
	for i, q := range queries {
		sqls[i] = q.SQL
	}
	_, mets, err := db.QueryGroup(sqls, castle.Options{Device: castle.DeviceCPU, ScanSharing: true})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	shared := mets[0].SharedScanCycles
	for i, m := range mets {
		if m.GroupSize != len(queries) {
			t.Fatalf("member %d: group size %d, want %d", i, m.GroupSize, len(queries))
		}
		if m.SharedScanCycles != shared {
			t.Fatalf("member %d: shared-scan cycles %d, want %d (one fused sweep for all)",
				i, m.SharedScanCycles, shared)
		}
		total += m.Cycles
	}
	if total <= 0 {
		t.Fatalf("group total %d", total)
	}
	// The fused sweep is charged once across the whole group: its cost must
	// be a strict minority of the members' attributed total, not once per
	// member.
	if shared <= 0 || shared >= total {
		t.Fatalf("shared-scan term %d out of range (group total %d)", shared, total)
	}
}

// TestSharedGroupRunsMixedPlansSolo: fusion keys on the compiled plan, so a
// per-operator member whose placement spans both devices runs solo with
// its placed plan — same rows, cycles and plan as running it alone — while
// members whose whole plan runs on one device fuse, whatever options they
// were prepared with.
func TestSharedGroupRunsMixedPlansSolo(t *testing.T) {
	db := castle.GenerateSSB(0.01, 7)
	queries := castle.SSBQueries()
	perOp := castle.Options{Device: castle.DeviceHybrid, Placement: castle.PlacementPerOperator}
	mixed := queries[7] // Q3.2: CAPE fact stage, CPU aggregation
	solo, soloM, err := db.QueryWith(mixed.SQL, perOp)
	if err != nil {
		t.Fatal(err)
	}
	if soloM.DeviceUsed != "CAPE+CPU" {
		t.Fatalf("%s placed on %s alone, want CAPE+CPU", mixed.Flight, soloM.DeviceUsed)
	}
	checkSolo := func(rows *castle.Rows, m *castle.Metrics) {
		t.Helper()
		if m.GroupID != 0 || m.DeviceUsed != "CAPE+CPU" || m.Cycles != soloM.Cycles || m.Plan != soloM.Plan {
			t.Fatalf("mixed member: group %d on %s, %d cycles (alone: %d)\n%s",
				m.GroupID, m.DeviceUsed, m.Cycles, soloM.Cycles, m.Plan)
		}
		if !reflect.DeepEqual(rows.Data, solo.Data) {
			t.Fatal("mixed member's rows diverged from its solo run")
		}
	}

	perOp.ScanSharing = true
	rows, mets, err := db.QueryGroup([]string{queries[6].SQL, mixed.SQL, queries[8].SQL}, perOp)
	if err != nil {
		t.Fatal(err)
	}
	checkSolo(rows[1], mets[1])

	prepare := func(sql string, opt castle.Options) *castle.Stmt {
		t.Helper()
		st, err := db.Prepare(sql, opt)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	capeShared := castle.Options{Device: castle.DeviceCAPE, ScanSharing: true}
	stmts := []*castle.Stmt{
		prepare(queries[3].SQL, capeShared),
		prepare(mixed.SQL, perOp),
		prepare(queries[6].SQL, capeShared),
	}
	rows, mets, err = db.QueryGroupContext(context.Background(), stmts, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkSolo(rows[1], mets[1])
	if mets[0].GroupSize != 2 || mets[2].GroupID != mets[0].GroupID {
		t.Fatalf("uniform CAPE members did not fuse: groups (%d, %d), sizes (%d, %d)",
			mets[0].GroupID, mets[2].GroupID, mets[0].GroupSize, mets[2].GroupSize)
	}
}
