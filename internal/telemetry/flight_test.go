package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestFlightRecorderRingWraps(t *testing.T) {
	f := NewFlightRecorder(4)
	for i := 1; i <= 10; i++ {
		seq := f.Record(FlightRecord{SQL: fmt.Sprintf("q%d", i), Cycles: int64(i)})
		if seq != uint64(i) {
			t.Fatalf("record %d assigned seq %d", i, seq)
		}
	}
	if f.Len() != 4 || f.Cap() != 4 {
		t.Fatalf("len=%d cap=%d, want 4/4", f.Len(), f.Cap())
	}
	if f.Total() != 10 {
		t.Fatalf("total=%d, want 10", f.Total())
	}
	snap := f.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot len=%d, want 4", len(snap))
	}
	// Newest first: 10, 9, 8, 7.
	for i, want := range []uint64{10, 9, 8, 7} {
		if snap[i].Seq != want || snap[i].SQL != fmt.Sprintf("q%d", want) {
			t.Fatalf("snapshot[%d] = seq %d sql %q, want seq %d", i, snap[i].Seq, snap[i].SQL, want)
		}
	}
	// Evicted records are gone; retained ones are reachable by seq.
	if _, ok := f.Get(3); ok {
		t.Fatal("evicted record #3 still reachable")
	}
	if rec, ok := f.Get(8); !ok || rec.SQL != "q8" {
		t.Fatalf("Get(8) = %+v, %v", rec, ok)
	}
}

func TestFlightRecorderAmend(t *testing.T) {
	f := NewFlightRecorder(2)
	seq := f.Record(FlightRecord{SQL: "q", Phases: []FlightPhase{{Name: "total", Micros: 5}}})
	ok := f.Amend(seq, func(r *FlightRecord) {
		r.WallMicros = 42
		r.Phases = []FlightPhase{{Name: "queue", Micros: 30}, {Name: "exec", Micros: 12}}
		r.Seq = 999 // recorder must not let amendments corrupt identity
	})
	if !ok {
		t.Fatal("amend missed a live record")
	}
	rec, ok := f.Get(seq)
	if !ok || rec.Seq != seq || rec.WallMicros != 42 {
		t.Fatalf("amended record: %+v, %v", rec, ok)
	}
	if rec.SumPhaseMicros() != 42 || rec.PhaseMicros("queue") != 30 {
		t.Fatalf("amended phases: %+v", rec.Phases)
	}
	if f.Amend(seq+100, func(r *FlightRecord) {}) {
		t.Fatal("amend found a record that was never committed")
	}
	// Snapshots are deep copies: mutating one must not reach the ring.
	snap := f.Snapshot()
	snap[0].Phases[0].Micros = -1
	if rec, _ := f.Get(seq); rec.Phases[0].Micros != 30 {
		t.Fatal("snapshot aliases ring storage")
	}
}

// TestFlightRecorderConcurrent hammers the recorder from many goroutines
// (run with -race): every record must be committed exactly once, sequence
// numbers must be dense, and no snapshot may observe a torn record.
func TestFlightRecorderConcurrent(t *testing.T) {
	const writers, perWriter = 8, 200
	f := NewFlightRecorder(64)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				seq := f.Record(FlightRecord{
					SQL:    fmt.Sprintf("w%d-i%d", w, i),
					Cycles: 7,
					Phases: []FlightPhase{{Name: "prepare", Micros: 1}, {Name: "execute", Micros: 6}},
				})
				f.Amend(seq, func(r *FlightRecord) { r.WallMicros = 7 })
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	// Concurrent readers: every observed record must be internally
	// consistent (never torn across fields).
	for alive := true; alive; {
		select {
		case <-done:
			alive = false
		default:
		}
		for _, r := range f.Snapshot() {
			if r.Seq == 0 || r.Cycles != 7 || len(r.Phases) != 2 || r.SumPhaseMicros() != 7 {
				t.Fatalf("torn record observed: %+v", r)
			}
		}
	}
	if f.Total() != writers*perWriter {
		t.Fatalf("total=%d, want %d (records lost or double-counted)", f.Total(), writers*perWriter)
	}
	if f.Len() != 64 {
		t.Fatalf("len=%d, want full ring of 64", f.Len())
	}
	seen := map[uint64]bool{}
	for _, r := range f.Snapshot() {
		if seen[r.Seq] {
			t.Fatalf("duplicate seq %d in snapshot", r.Seq)
		}
		seen[r.Seq] = true
		if r.WallMicros != 7 {
			t.Fatalf("record %d missed its amendment: %+v", r.Seq, r)
		}
	}
}

func TestFlightRecordChromeTrace(t *testing.T) {
	rec := FlightRecord{
		Seq: 3, SQL: "SELECT 1", Fingerprint: FingerprintSQL("SELECT 1"),
		Start: time.Now(), WallMicros: 100, Status: "ok", Device: "CAPE",
		Cycles: 90, EstCycles: 80,
		Phases: []FlightPhase{
			{Name: "queue", Micros: 10}, {Name: "lease", Micros: 5},
			{Name: "exec", Micros: 80}, {Name: "serialize", Micros: 5},
		},
		Ops: []FlightOp{
			{Operator: "prep:date", Device: "CAPE", EstCycles: 20, Cycles: 30, Rows: 365},
			{Operator: "filter", Device: "CAPE", EstCycles: 60, Cycles: 60, Rows: 60000},
		},
	}
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			TID  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	// 1 query slice + 4 phase slices + 2 operator slices.
	if len(trace.TraceEvents) != 7 {
		t.Fatalf("trace has %d events, want 7", len(trace.TraceEvents))
	}
	var phaseSum, opSum float64
	for _, e := range trace.TraceEvents {
		switch e.TID {
		case 2:
			phaseSum += e.Dur
		case 3:
			opSum += e.Dur
			if e.TS < 15 || e.TS+e.Dur > 95.001 {
				t.Fatalf("operator slice %q [%f, %f] escapes the exec phase [15, 95]", e.Name, e.TS, e.TS+e.Dur)
			}
		}
	}
	if phaseSum != 100 {
		t.Fatalf("phase slices sum to %f µs, want 100", phaseSum)
	}
	if opSum < 79.999 || opSum > 80.001 {
		t.Fatalf("operator slices sum to %f µs, want the 80µs exec phase", opSum)
	}
}

func TestFlightRecordFormat(t *testing.T) {
	rec := FlightRecord{
		Seq: 1, SQL: "SELECT 1", Status: "ok", Device: "CAPE",
		WallMicros: 1000, Cycles: 90, EstCycles: 80, AltEstCycles: 200,
		Phases: []FlightPhase{{Name: "exec", Micros: 1000}},
		Ops:    []FlightOp{{Operator: "filter", Device: "CAPE", EstCycles: 60, Cycles: 60, Rows: 5}},
	}
	out := rec.Format()
	for _, want := range []string{"query #1 [ok]", "alt_est=200", "phases:", "exec=1.000ms", "est/act", "filter"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format() missing %q:\n%s", want, out)
		}
	}
}

func TestFingerprintSQL(t *testing.T) {
	a := FingerprintSQL("SELECT 1")
	if b := FingerprintSQL("  SELECT 1  \n"); a != b {
		t.Fatalf("fingerprint not whitespace-insensitive: %s vs %s", a, b)
	}
	if len(a) != 16 {
		t.Fatalf("fingerprint %q is not 16 hex digits", a)
	}
	if a == FingerprintSQL("SELECT 2") {
		t.Fatal("distinct statements collided")
	}
}

func TestFlightRecorderNilSafe(t *testing.T) {
	var f *FlightRecorder
	if seq := f.Record(FlightRecord{}); seq != 0 {
		t.Fatalf("nil Record = %d", seq)
	}
	if f.Amend(1, func(*FlightRecord) {}) || f.Len() != 0 || f.Cap() != 0 || f.Total() != 0 {
		t.Fatal("nil recorder is not a no-op")
	}
	if _, ok := f.Get(1); ok || f.Snapshot() != nil {
		t.Fatal("nil recorder returned data")
	}
}

// TestRecordFailure: a failed statement's record carries its SQL, error and
// one "total" phase, with context errors told apart; nil records nothing.
func TestRecordFailure(t *testing.T) {
	var none *Telemetry
	none.RecordFailure("SELECT 1", time.Now(), errors.New("boom"))

	tel := New()
	start := time.Now()
	for _, tc := range []struct {
		err    error
		status string
	}{
		{errors.New("parse error"), "error"},
		{fmt.Errorf("lease: %w", context.DeadlineExceeded), "deadline"},
		{context.Canceled, "canceled"},
	} {
		tel.RecordFailure(" SELECT 1 ", start, tc.err)
		rec := tel.Flight().Snapshot()[0]
		if rec.Status != tc.status || rec.Error != tc.err.Error() || rec.SQL != " SELECT 1 " ||
			rec.Fingerprint != FingerprintSQL("SELECT 1") || !rec.Start.Equal(start) {
			t.Fatalf("%v: record %+v", tc.err, rec)
		}
		if len(rec.Phases) != 1 || rec.Phases[0].Name != "total" || rec.SumPhaseMicros() != rec.WallMicros {
			t.Fatalf("%v: phases %+v, wall %dµs", tc.err, rec.Phases, rec.WallMicros)
		}
	}
	if n := tel.Flight().Total(); n != 3 {
		t.Fatalf("%d records, want 3", n)
	}
}
