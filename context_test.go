package castle_test

// context_test.go exercises the serving-facing facade additions: context
// cancellation through QueryContext, device validation, the prepared-plan
// cache, the device a prepared statement resolves, and catalog safety
// under concurrent queries.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	castle "castle"
)

func TestQueryContextPreCanceled(t *testing.T) {
	db := demoDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, dev := range []castle.Device{castle.DeviceCAPE, castle.DeviceCPU, castle.DeviceHybrid} {
		_, _, err := db.QueryContext(ctx, "SELECT SUM(o_amount) FROM orders", castle.Options{Device: dev})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("device %v: want context.Canceled, got %v", dev, err)
		}
	}
	// The DB stays usable after cancellations.
	if _, err := db.Query("SELECT SUM(o_amount) FROM orders"); err != nil {
		t.Fatalf("post-cancel query: %v", err)
	}
}

func TestQueryContextDeadline(t *testing.T) {
	db := castle.GenerateSSB(0.01, 7)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, _, err := db.QueryContext(ctx, castle.SSBQueries()[0].SQL, castle.Options{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
}

func TestQueryWithRejectsUnknownDevice(t *testing.T) {
	db := demoDB(t)
	for _, bad := range []castle.Device{castle.Device(-1), castle.Device(3), castle.Device(99)} {
		if _, _, err := db.QueryWith("SELECT SUM(o_amount) FROM orders", castle.Options{Device: bad}); err == nil {
			t.Fatalf("device %d accepted", int(bad))
		}
	}
	if _, err := db.Prepare("SELECT SUM(o_amount) FROM orders", castle.Options{Device: castle.Device(7)}); err == nil {
		t.Fatal("Prepare accepted an out-of-range device")
	}
}

func TestParseDevice(t *testing.T) {
	for s, want := range map[string]castle.Device{
		"cape": castle.DeviceCAPE, "CPU": castle.DeviceCPU, " hybrid ": castle.DeviceHybrid,
	} {
		got, err := castle.ParseDevice(s)
		if err != nil || got != want {
			t.Fatalf("ParseDevice(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := castle.ParseDevice("gpu"); err == nil {
		t.Fatal("ParseDevice accepted gpu")
	}
}

func TestPlanCacheHitsAcrossQueries(t *testing.T) {
	db := castle.GenerateSSB(0.01, 7)
	queries := castle.SSBQueries()[:3]

	var cold []*castle.Rows
	for _, q := range queries {
		rows, _, err := db.QueryWith(q.SQL, castle.Options{})
		if err != nil {
			t.Fatalf("cold %s: %v", q.Flight, err)
		}
		cold = append(cold, rows)
	}
	st := db.PlanCacheStats()
	if st.Hits != 0 || st.Misses < int64(len(queries)) || st.Entries < len(queries) {
		t.Fatalf("after cold runs: %+v", st)
	}

	for i, q := range queries {
		rows, _, err := db.QueryWith(q.SQL, castle.Options{})
		if err != nil {
			t.Fatalf("warm %s: %v", q.Flight, err)
		}
		if !reflect.DeepEqual(rows.Data, cold[i].Data) {
			t.Fatalf("%s: cached plan changed the result\ncold=%v\nwarm=%v",
				q.Flight, cold[i].Data, rows.Data)
		}
	}
	if st = db.PlanCacheStats(); st.Hits < int64(len(queries)) {
		t.Fatalf("after warm runs: %+v", st)
	}
}

func TestPlanCacheInvalidatedByDDLAndImport(t *testing.T) {
	db := demoDB(t)
	const q = "SELECT SUM(o_amount) FROM orders"
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	if st := db.PlanCacheStats(); st.Hits == 0 {
		t.Fatalf("no warm hit before mutation: %+v", st)
	}

	// CreateTable stales every cached plan.
	db.CreateTable("extra").Int("x", []uint32{1})
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	st := db.PlanCacheStats()
	if st.Flushes == 0 {
		t.Fatalf("CreateTable did not flush the plan cache: %+v", st)
	}

	// ImportCSV does too.
	dir := t.TempDir()
	csv := filepath.Join(dir, "t.csv")
	if err := os.WriteFile(csv, []byte("a,b\n1,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	flushesBefore := st.Flushes
	if err := db.ImportCSV("imported", csv); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	if st = db.PlanCacheStats(); st.Flushes <= flushesBefore {
		t.Fatalf("ImportCSV did not flush the plan cache: %+v", st)
	}
}

func TestPlanCacheDisabled(t *testing.T) {
	db := demoDB(t)
	const q = "SELECT SUM(o_amount) FROM orders"
	opt := castle.Options{DisablePlanCache: true}
	for i := 0; i < 3; i++ {
		if _, _, err := db.QueryWith(q, opt); err != nil {
			t.Fatal(err)
		}
	}
	st := db.PlanCacheStats()
	if st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("DisablePlanCache still touched the cache: %+v", st)
	}
}

func TestPrepareResolvesDevice(t *testing.T) {
	db := castle.GenerateSSB(0.01, 7)
	prepare := func(sql string, dev castle.Device) *castle.Stmt {
		t.Helper()
		st, err := db.Prepare(sql, castle.Options{Device: dev})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	// Q1.1 (one join, one group) must route to CAPE; Q2.1 (~7000 estimated
	// groups) crosses the Figure 12 threshold and routes to the CPU, where
	// it then runs.
	if dev := prepare(castle.SSBQueries()[0].SQL, castle.DeviceHybrid).Device(); dev != castle.DeviceCAPE {
		t.Fatalf("Q1.1: %v", dev)
	}
	st := prepare(castle.SSBQueries()[3].SQL, castle.DeviceHybrid)
	if st.Device() != castle.DeviceCPU || st.Fact() != "lineorder" {
		t.Fatalf("Q2.1: device %v, fact %q", st.Device(), st.Fact())
	}
	if _, m, err := st.Run(context.Background(), 1); err != nil || m.DeviceUsed != "CPU" {
		t.Fatalf("Q2.1 ran on %v: %v", m, err)
	}
	// Forced devices pass through untouched.
	for _, dev := range []castle.Device{castle.DeviceCAPE, castle.DeviceCPU} {
		if got := prepare("SELECT SUM(lo_revenue) FROM lineorder", dev).Device(); got != dev {
			t.Fatalf("passthrough %v: %v", dev, got)
		}
	}
}

func TestConcurrentQueriesShareCatalog(t *testing.T) {
	db := castle.GenerateSSB(0.01, 7)
	const goroutines = 8
	want, err := db.Query(castle.SSBQueries()[0].SQL)
	if err != nil {
		t.Fatal(err)
	}

	// Force the catalog dirty again so the concurrent queries race on the
	// collect-once decision as well as the plan cache.
	db.CreateTable("scratch").Int("v", []uint32{1, 2, 3})

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			opt := castle.Options{Device: castle.Device(g % 3)}
			rows, _, err := db.QueryWith(castle.SSBQueries()[0].SQL, opt)
			if err != nil {
				errs <- fmt.Errorf("goroutine %d: %w", g, err)
				return
			}
			if !reflect.DeepEqual(rows.Data, want.Data) {
				errs <- fmt.Errorf("goroutine %d: rows diverged: %v vs %v", g, rows.Data, want.Data)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestStmtRunsConcurrently: one prepared statement serves any number of
// concurrent runs, each answering like QueryContext and committing its own
// flight record. Run with -race.
func TestStmtRunsConcurrently(t *testing.T) {
	db := castle.GenerateSSB(0.01, 7)
	tel := castle.NewTelemetry()
	for _, opt := range []castle.Options{
		{Device: castle.DeviceHybrid, Telemetry: tel},
		{Device: castle.DeviceHybrid, Placement: castle.PlacementPerOperator, AdaptivePlacement: true, Telemetry: tel},
	} {
		q := castle.SSBQueries()[6].SQL // Q3.1
		want, wantM, err := db.QueryWith(q, opt)
		if err != nil {
			t.Fatal(err)
		}
		st, err := db.Prepare(q, opt)
		if err != nil {
			t.Fatal(err)
		}
		before := tel.Flight().Total()
		const runs = 4
		var wg sync.WaitGroup
		errs := make(chan error, runs)
		for g := 0; g < runs; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rows, m, err := st.Run(context.Background(), 1+g%2)
				switch {
				case err != nil:
					errs <- err
				case !reflect.DeepEqual(rows.Data, want.Data) || m.DeviceUsed != wantM.DeviceUsed:
					errs <- fmt.Errorf("run %d on %s diverged from QueryWith on %s", g, m.DeviceUsed, wantM.DeviceUsed)
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		if got := tel.Flight().Total() - before; got != runs {
			t.Fatalf("%d runs committed %d flight records", runs, got)
		}
	}
}
