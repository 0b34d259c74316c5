package server

// prepare_test.go pins the one-compile-per-request contract: the server
// prepares each request once and leases, routes and runs from that
// statement, so a statement repeated five times costs one plan-cache miss
// and four hits on every routing path.

import (
	"context"
	"reflect"
	"testing"

	"castle"
	"castle/internal/telemetry"
)

func TestOnePlanCacheLookupPerRequest(t *testing.T) {
	sharedDB(t) // fills reference
	queries := castle.SSBQueries()
	for _, tc := range []struct {
		name   string
		cfg    Config
		query  castle.SSBQuery
		device string // Response.Device every request must report
	}{
		{"hybrid-cape", Config{}, queries[0], "CAPE"},
		{"hybrid-cpu", Config{}, queries[3], "CPU"},
		{"per-operator", Config{Placement: "per-operator"}, queries[7], "CAPE+CPU"},
		{"cape", Config{Device: "cape"}, queries[3], "CAPE"},
		{"cpu", Config{Device: "cpu"}, queries[0], "CPU"},
		{"scan-sharing", Config{ScanSharing: true}, queries[3], "CPU"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// A fresh database per configuration: the plan cache is the DB's.
			db := castle.GenerateSSB(0.01, 20260805)
			cfg := tc.cfg
			cfg.QueueDepth, cfg.CAPETiles, cfg.CPUSlots = 8, 1, 1
			s, err := New(db, nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for i := 0; i < 5; i++ {
				resp, err := s.Do(context.Background(), Request{SQL: tc.query.SQL})
				if err != nil {
					t.Fatalf("request %d: %v", i, err)
				}
				if resp.Device != tc.device || !reflect.DeepEqual(resp.Rows, reference[tc.query.Num]) {
					t.Fatalf("request %d ran on %s, want %s with the reference rows", i, resp.Device, tc.device)
				}
			}
			if st := db.PlanCacheStats(); st.Hits != 4 || st.Misses != 1 || st.Entries != 1 {
				t.Fatalf("plan cache after 5 requests: %+v, want 4 hits, 1 miss, 1 entry", st)
			}
			reg := s.Telemetry().Metrics()
			hits, misses := reg.CounterValue(telemetry.MetricPlanCacheHits), reg.CounterValue(telemetry.MetricPlanCacheMisses)
			if hits != 4 || misses != 1 {
				t.Fatalf("/metrics counts %d hits and %d misses, want 4 and 1", hits, misses)
			}
		})
	}
}
