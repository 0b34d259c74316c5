package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"castle"
	"castle/internal/telemetry"
)

var (
	testOnce sync.Once
	testDB   *castle.DB
	// reference holds single-threaded results for every SSB query, the
	// ground truth concurrent executions must reproduce.
	reference map[int][][]string
)

func sharedDB(t *testing.T) *castle.DB {
	t.Helper()
	testOnce.Do(func() {
		testDB = castle.GenerateSSB(0.01, 20260805)
		reference = make(map[int][][]string)
		for _, q := range castle.SSBQueries() {
			rows, _, err := testDB.QueryWith(q.SQL, castle.Options{Device: castle.DeviceHybrid})
			if err != nil {
				panic(fmt.Sprintf("reference %s: %v", q.Flight, err))
			}
			reference[q.Num] = rows.Data
		}
	})
	return testDB
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(sharedDB(t), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestServerConcurrentLoad is the acceptance load test: 8 concurrent
// clients x 50 mixed SSB queries against a running server, every result
// checked against the single-threaded reference. Run with -race.
func TestServerConcurrentLoad(t *testing.T) {
	s := newTestServer(t, Config{QueueDepth: 512, CAPETiles: 2, CPUSlots: 2})
	queries := castle.SSBQueries()

	const clients, perClient = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				q := queries[(c*perClient+i)%len(queries)]
				resp, err := s.Do(context.Background(), Request{SQL: q.SQL})
				if err != nil {
					errs <- fmt.Errorf("client %d req %d (%s): %w", c, i, q.Flight, err)
					continue
				}
				if !reflect.DeepEqual(resp.Rows, reference[q.Num]) {
					errs <- fmt.Errorf("client %d req %d (%s): rows diverged from reference", c, i, q.Flight)
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	reg := s.Telemetry().Metrics()
	if got := reg.CounterValue(telemetry.MetricServerRequests, telemetry.L("status", "ok")); got != clients*perClient {
		t.Fatalf("ok requests counter = %d, want %d", got, clients*perClient)
	}
	if st := s.DB().PlanCacheStats(); st.Hits == 0 {
		t.Fatalf("load ran without plan-cache hits: %+v", st)
	}

	// The flight recorder must have committed every request exactly once
	// (no records lost under concurrency) and retain a full, untorn ring.
	fr := s.Telemetry().Flight()
	if fr.Total() != clients*perClient {
		t.Fatalf("flight recorder total = %d, want %d", fr.Total(), clients*perClient)
	}
	snap := fr.Snapshot()
	wantLen := fr.Cap()
	if clients*perClient < wantLen {
		wantLen = clients * perClient
	}
	if len(snap) != wantLen {
		t.Fatalf("flight snapshot len = %d, want %d", len(snap), wantLen)
	}
	for _, r := range snap {
		if r.Status != "ok" {
			t.Fatalf("flight record #%d status = %q: %+v", r.Seq, r.Status, r)
		}
		if r.SQL == "" || r.Fingerprint == "" || r.Cycles <= 0 || r.WallMicros <= 0 {
			t.Fatalf("flight record #%d incomplete: %+v", r.Seq, r)
		}
		// Server-amended records carry the four lifecycle phases and they
		// partition the end-to-end wall time exactly.
		for _, name := range []string{"queue", "lease", "exec", "serialize"} {
			if r.PhaseMicros(name) < 0 {
				t.Fatalf("flight record #%d phase %s negative: %+v", r.Seq, name, r.Phases)
			}
		}
		if len(r.Phases) != 4 {
			t.Fatalf("flight record #%d has %d phases, want 4: %+v", r.Seq, len(r.Phases), r.Phases)
		}
		if got := r.SumPhaseMicros(); got != r.WallMicros {
			t.Fatalf("flight record #%d phases sum to %dµs, wall is %dµs", r.Seq, got, r.WallMicros)
		}
		if len(r.Ops) == 0 {
			t.Fatalf("flight record #%d has no operator table", r.Seq)
		}
	}
}

// TestServerResponseTimings pins the latency-attribution contract: the
// response's phase timings and the flight record's phases both partition
// the reported wall time, and the client-observed latency is never less
// than the wall time the server attributed.
func TestServerResponseTimings(t *testing.T) {
	s := newTestServer(t, Config{QueueDepth: 16, CAPETiles: 1, CPUSlots: 1})
	for _, q := range castle.SSBQueries() {
		t0 := time.Now()
		resp, err := s.Do(context.Background(), Request{SQL: q.SQL})
		observed := time.Since(t0).Microseconds()
		if err != nil {
			t.Fatalf("%s: %v", q.Flight, err)
		}
		tm := resp.TimingsMicros
		sum := tm.QueueMicros + tm.LeaseMicros + tm.ExecMicros + tm.SerializeMicros
		if sum != resp.WallMicros {
			t.Fatalf("%s: timings sum %dµs != wall %dµs (%+v)", q.Flight, sum, resp.WallMicros, tm)
		}
		if resp.WallMicros > observed {
			t.Fatalf("%s: server wall %dµs exceeds client-observed %dµs", q.Flight, resp.WallMicros, observed)
		}
		if tm.ExecMicros <= 0 {
			t.Fatalf("%s: exec phase is empty: %+v", q.Flight, tm)
		}
		if resp.FlightSeq == 0 {
			t.Fatalf("%s: response carries no flight sequence", q.Flight)
		}
		rec, ok := s.Telemetry().Flight().Get(resp.FlightSeq)
		if !ok {
			t.Fatalf("%s: flight record #%d missing", q.Flight, resp.FlightSeq)
		}
		if rec.SumPhaseMicros() != rec.WallMicros || rec.WallMicros != resp.WallMicros {
			t.Fatalf("%s: flight phases %dµs / wall %dµs vs response wall %dµs",
				q.Flight, rec.SumPhaseMicros(), rec.WallMicros, resp.WallMicros)
		}
		// Predicted-vs-actual: the record and every priced operator carry
		// both sides of the contract.
		if rec.EstCycles <= 0 || resp.EstCycles != rec.EstCycles {
			t.Fatalf("%s: est cycles record=%d response=%d", q.Flight, rec.EstCycles, resp.EstCycles)
		}
		var priced int
		for _, op := range rec.Ops {
			if op.EstCycles > 0 && op.Cycles > 0 {
				priced++
			}
		}
		if priced == 0 {
			t.Fatalf("%s: no operator carries predicted and actual cycles: %+v", q.Flight, rec.Ops)
		}
	}
	// The misestimate telemetry populated alongside the records.
	reg := s.Telemetry().Metrics()
	found := false
	for _, kind := range []string{"filter", "joinprobe", "aggregate", "dimbuild"} {
		for _, dev := range []string{"cape", "cpu"} {
			for _, src := range []string{"assumed", "histogram", "observed"} {
				if h := reg.Histogram(telemetry.MetricEstimateDivergence, "",
					telemetry.L("kind", kind), telemetry.L("device", dev),
					telemetry.L("source", src)); h.Count() > 0 {
					found = true
				}
			}
		}
	}
	if !found {
		t.Fatal("estimate-divergence histograms never populated")
	}
}

// pinPools checks out every execution resource so admitted tasks block in
// the scheduler, making overload and deadline behavior deterministic.
func pinPools(t *testing.T, s *Server) (release func()) {
	t.Helper()
	relCAPE, err := s.sched.Acquire(context.Background(), castle.DeviceCAPE)
	if err != nil {
		t.Fatal(err)
	}
	relCPU, err := s.sched.Acquire(context.Background(), castle.DeviceCPU)
	if err != nil {
		t.Fatal(err)
	}
	return func() { relCAPE(); relCPU() }
}

func TestServerShedsWhenOverloaded(t *testing.T) {
	s := newTestServer(t, Config{QueueDepth: 1, CAPETiles: 1, CPUSlots: 1})
	q := castle.SSBQueries()[0].SQL
	release := pinPools(t, s)

	// With both resources pinned, the 2 workers stall on their first tasks
	// and the queue holds 1 more: a burst of 8 admits at most 3 (fewer when
	// sends race ahead of worker dequeues) and sheds the rest immediately.
	const burst = 8
	var wg sync.WaitGroup
	var ok, shed, other int64
	var mu sync.Mutex
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Do(context.Background(), Request{SQL: q})
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				ok++
			case errors.Is(err, ErrOverloaded):
				shed++
			default:
				other++
			}
		}()
	}
	// Release the pools once every non-admitted request has been shed.
	reg := s.Telemetry().Metrics()
	for deadline := time.Now().Add(5 * time.Second); ; {
		if reg.CounterValue(telemetry.MetricServerShed, telemetry.L("reason", "queue_full")) >= burst-3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sheds never reached %d", burst-3)
		}
		time.Sleep(time.Millisecond)
	}
	release()
	wg.Wait()
	if other != 0 || ok < 1 || ok > 3 || ok+shed != burst {
		t.Fatalf("burst outcomes: ok=%d shed=%d other=%d (want 1..3 admitted, rest shed)", ok, shed, other)
	}
	if got := reg.CounterValue(telemetry.MetricServerShed, telemetry.L("reason", "queue_full")); got != shed {
		t.Fatalf("shed counter = %d, want %d", got, shed)
	}
}

func TestServerRequestTimeout(t *testing.T) {
	s := newTestServer(t, Config{QueueDepth: 8, CAPETiles: 1, CPUSlots: 1})
	release := pinPools(t, s)
	defer release()

	// With the pools pinned, the request's 1ms deadline expires while it
	// waits for a CAPE tile.
	_, err := s.Do(context.Background(), Request{SQL: castle.SSBQueries()[0].SQL, TimeoutMillis: 1})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	reg := s.Telemetry().Metrics()
	if got := reg.CounterValue(telemetry.MetricServerRequests, telemetry.L("status", "deadline")); got == 0 {
		t.Fatal("deadline outcome not counted")
	}
	// The server keeps serving once resources free up.
	release()
	if _, err := s.Do(context.Background(), Request{SQL: castle.SSBQueries()[0].SQL}); err != nil {
		t.Fatalf("post-timeout request: %v", err)
	}
}

func TestServerGracefulDrain(t *testing.T) {
	s := newTestServer(t, Config{QueueDepth: 64, CAPETiles: 1, CPUSlots: 1})
	q := castle.SSBQueries()[0].SQL

	const inflight = 12
	var wg sync.WaitGroup
	errs := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Do(context.Background(), Request{SQL: q}); err != nil {
				errs <- err
			}
		}()
	}
	// Give the burst a moment to be admitted, then drain.
	time.Sleep(20 * time.Millisecond)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		// Admitted requests must complete; only requests that raced Close
		// may see ErrClosed, and nothing else is acceptable.
		if !errors.Is(err, ErrClosed) {
			t.Errorf("drain dropped a request: %v", err)
		}
	}
	if _, err := s.Do(context.Background(), Request{SQL: q}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close Do: want ErrClosed, got %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	s := newTestServer(t, Config{})
	if _, err := s.Do(context.Background(), Request{SQL: "   "}); !errors.Is(err, ErrEmptySQL) {
		t.Fatalf("empty sql: %v", err)
	}
	if _, err := s.Do(context.Background(), Request{SQL: "SELECT 1", Device: "gpu"}); err == nil {
		t.Fatal("unknown device accepted")
	}
	if _, err := s.Do(context.Background(), Request{SQL: "SELECT FROM WHERE"}); err == nil {
		t.Fatal("unparseable sql accepted")
	}
}

func TestSchedulerSerializesPerDevice(t *testing.T) {
	reg := telemetry.NewRegistry()
	sched := NewScheduler(1, 1, reg)
	release, err := sched.Acquire(context.Background(), castle.DeviceCAPE)
	if err != nil {
		t.Fatal(err)
	}
	// Second CAPE acquire must block until release; a CPU acquire must not.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := sched.Acquire(ctx, castle.DeviceCAPE); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("second CAPE acquire: want DeadlineExceeded, got %v", err)
	}
	cpuRelease, err := sched.Acquire(context.Background(), castle.DeviceCPU)
	if err != nil {
		t.Fatalf("CPU acquire blocked by CAPE tile: %v", err)
	}
	cpuRelease()
	release()
	release() // idempotent
	if r2, err := sched.Acquire(context.Background(), castle.DeviceCAPE); err != nil {
		t.Fatalf("acquire after release: %v", err)
	} else {
		r2()
	}
	if _, err := sched.Acquire(context.Background(), castle.DeviceHybrid); err == nil {
		t.Fatal("hybrid acquire must fail: no pool")
	}
}

func TestHTTPEndpoints(t *testing.T) {
	s := newTestServer(t, Config{QueueDepth: 16, CAPETiles: 1, CPUSlots: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	q := castle.SSBQueries()[0]
	body, _ := json.Marshal(Request{SQL: q.SQL})
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /query = %d", resp.StatusCode)
	}
	var qr Response
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !reflect.DeepEqual(qr.Rows, reference[q.Num]) || qr.RowCount != len(reference[q.Num]) {
		t.Fatalf("HTTP rows diverged from reference: %+v", qr)
	}

	// Metrics must expose the server families after one request.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		telemetry.MetricServerRequests, telemetry.MetricServerQueueDepth,
		telemetry.MetricServerLatency, telemetry.MetricServerTilesBusy,
		telemetry.MetricQueries, telemetry.MetricPlanCacheMisses,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}

	// Liveness.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz = %d", resp.StatusCode)
	}

	// Error mapping: bad JSON and GET /query are client errors.
	resp, _ = http.Post(ts.URL+"/query", "application/json", strings.NewReader("{"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON = %d", resp.StatusCode)
	}
	resp, _ = http.Get(ts.URL + "/query")
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query = %d", resp.StatusCode)
	}

	// Draining servers answer 503 on both /query and /healthz.
	s.Close()
	resp, _ = http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST /query after Close = %d", resp.StatusCode)
	}
	resp, _ = http.Get(ts.URL + "/healthz")
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("GET /healthz after Close = %d", resp.StatusCode)
	}
}

// TestDebugQueriesEndpoints drives the flight-recorder HTTP surface: the
// list, the per-query detail, and the downloadable Chrome trace.
func TestDebugQueriesEndpoints(t *testing.T) {
	s := newTestServer(t, Config{QueueDepth: 16, CAPETiles: 1, CPUSlots: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	q := castle.SSBQueries()[3]
	body, _ := json.Marshal(Request{SQL: q.SQL})
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var qr Response
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if qr.FlightSeq == 0 {
		t.Fatal("query response carries no flight sequence")
	}

	// List: the record we just ran must be the newest entry.
	resp, err = http.Get(ts.URL + "/debug/queries")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Capacity int `json:"capacity"`
		Total    int `json:"total"`
		Queries  []struct {
			Seq        uint64                  `json:"seq"`
			SQL        string                  `json:"sql"`
			Status     string                  `json:"status"`
			WallMicros int64                   `json:"wall_micros"`
			Phases     []telemetry.FlightPhase `json:"phases"`
		} `json:"queries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if list.Capacity != telemetry.DefaultFlightCapacity || list.Total < 1 || len(list.Queries) < 1 {
		t.Fatalf("list: %+v", list)
	}
	newest := list.Queries[0]
	if newest.Seq != qr.FlightSeq || newest.Status != "ok" || newest.SQL != q.SQL {
		t.Fatalf("newest record: %+v, want seq %d", newest, qr.FlightSeq)
	}
	var phaseSum int64
	for _, p := range newest.Phases {
		if p.Micros < 0 {
			t.Fatalf("negative phase: %+v", newest.Phases)
		}
		phaseSum += p.Micros
	}
	if len(newest.Phases) != 4 || phaseSum != newest.WallMicros {
		t.Fatalf("phases %+v sum %dµs, wall %dµs", newest.Phases, phaseSum, newest.WallMicros)
	}

	// Detail: the full record, with operator table.
	resp, err = http.Get(fmt.Sprintf("%s/debug/queries/%d", ts.URL, qr.FlightSeq))
	if err != nil {
		t.Fatal(err)
	}
	var rec telemetry.FlightRecord
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rec.Seq != qr.FlightSeq || len(rec.Ops) == 0 || rec.EstCycles <= 0 {
		t.Fatalf("detail: %+v", rec)
	}

	// Trace: a downloadable, well-formed Chrome trace.
	resp, err = http.Get(fmt.Sprintf("%s/debug/queries/%d/trace", ts.URL, qr.FlightSeq))
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("Content-Disposition"); !strings.Contains(got, "attachment") {
		t.Fatalf("trace Content-Disposition = %q", got)
	}
	var trace struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	resp.Body.Close()
	if len(trace.TraceEvents) < 5 {
		t.Fatalf("trace has %d events, want the query, its phases and operators", len(trace.TraceEvents))
	}

	// Error mapping: missing and malformed sequence numbers.
	resp, _ = http.Get(ts.URL + "/debug/queries/999999")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing record = %d, want 404", resp.StatusCode)
	}
	resp, _ = http.Get(ts.URL + "/debug/queries/nonsense")
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad seq = %d, want 400", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/debug/queries", nil)
	resp, _ = http.DefaultClient.Do(req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE /debug/queries = %d, want 405", resp.StatusCode)
	}
}

// TestServerSlowQueryLog pins the -slow-query-ms surface: with a zero
// threshold every query is slow, so each completion must append one line
// with phase attribution to the configured writer.
func TestServerSlowQueryLog(t *testing.T) {
	var buf syncBuffer
	s := newTestServer(t, Config{
		QueueDepth: 16, CAPETiles: 1, CPUSlots: 1,
		SlowQueryMillis: 1, SlowQueryLog: &buf,
	})
	// Tight threshold: SSB executions at SF 0.01 may finish under 1ms, so
	// force slowness deterministically by logging at the smallest allowed
	// threshold and accepting zero lines only if every query beat it.
	q := castle.SSBQueries()[7]
	resp, err := s.Do(context.Background(), Request{SQL: q.SQL})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if resp.WallMicros >= 1000 && !strings.Contains(out, "slow query") {
		t.Fatalf("query took %dµs but no slow-query line was logged: %q", resp.WallMicros, out)
	}
	if out != "" {
		for _, want := range []string{"seq=", "queue=", "exec=", "sql=", "SELECT"} {
			if !strings.Contains(out, want) {
				t.Fatalf("slow-query line missing %q: %q", want, out)
			}
		}
	}
	reg := s.Telemetry().Metrics()
	if got := reg.CounterValue(telemetry.MetricServerSlowQueries); (got > 0) != (out != "") {
		t.Fatalf("slow counter %d disagrees with log output %q", got, out)
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer (the slow-query logger writes
// from worker goroutines).
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestServerPerOperatorPlacement submits SSB queries with per-operator
// placement: results must match the whole-query reference, a grouping-heavy
// flight must report the mixed CAPE+CPU device, and unknown placements must
// be rejected up front.
func TestServerPerOperatorPlacement(t *testing.T) {
	s := newTestServer(t, Config{QueueDepth: 32, CAPETiles: 1, CPUSlots: 1})

	for _, q := range castle.SSBQueries() {
		resp, err := s.Do(context.Background(), Request{SQL: q.SQL, Placement: "per-operator"})
		if err != nil {
			t.Fatalf("%s: %v", q.Flight, err)
		}
		if !reflect.DeepEqual(resp.Rows, reference[q.Num]) {
			t.Errorf("%s: per-operator rows diverged from reference", q.Flight)
		}
		if q.Flight == "Q3.2" && resp.Device != "CAPE+CPU" {
			t.Errorf("%s: device = %q, want CAPE+CPU under per-operator placement", q.Flight, resp.Device)
		}
	}

	if _, err := s.Do(context.Background(), Request{SQL: castle.SSBQueries()[0].SQL, Placement: "diagonal"}); err == nil {
		t.Fatal("unknown placement accepted")
	}
}

// TestUnsupportedShapeAnswers400 sends the one aggregate shape CAPE cannot
// run — a grouped SUM(a*b) — forced onto CAPE: the service must answer a
// client error and keep serving, and the hybrid router must answer it on
// the CPU.
func TestUnsupportedShapeAnswers400(t *testing.T) {
	s := newTestServer(t, Config{QueueDepth: 16, CAPETiles: 1, CPUSlots: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const sql = `SELECT d_year, SUM(lo_extendedprice * lo_discount) FROM lineorder, date
WHERE lo_orderdate = d_datekey GROUP BY d_year`
	post := func(device string) (*http.Response, Response) {
		t.Helper()
		body, _ := json.Marshal(Request{SQL: sql, Device: device})
		resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var qr Response
		_ = json.NewDecoder(resp.Body).Decode(&qr)
		return resp, qr
	}
	if resp, _ := post("cape"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("grouped SUM(a*b) on CAPE = %d, want 400", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz after rejection = %d", resp.StatusCode)
	}
	resp, qr := post("hybrid")
	if resp.StatusCode != http.StatusOK || qr.Device != "CPU" || qr.RowCount == 0 {
		t.Fatalf("grouped SUM(a*b) on hybrid = %d device=%s rows=%d, want 200 on CPU",
			resp.StatusCode, qr.Device, qr.RowCount)
	}
}

// TestOversizedBodyAnswers413 posts a 2 MiB body: the service must answer
// 413 with the JSON error envelope and keep serving.
func TestOversizedBodyAnswers413(t *testing.T) {
	s := newTestServer(t, Config{QueueDepth: 16, CAPETiles: 1, CPUSlots: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	big := `{"sql":"SELECT ` + strings.Repeat("x", 2<<20) + `"}`
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	var eb errorBody
	decErr := json.NewDecoder(resp.Body).Decode(&eb)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || decErr != nil || eb.Error == "" {
		t.Fatalf("2 MiB body = %d %+v (decode: %v), want 413 with an error body", resp.StatusCode, eb, decErr)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz after 413 = %d", resp.StatusCode)
	}
	body, _ := json.Marshal(Request{SQL: castle.SSBQueries()[0].SQL})
	resp, err = http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /query after 413 = %d", resp.StatusCode)
	}
}
