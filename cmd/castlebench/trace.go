package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// recorder keeps the traced run's spans in memory until the run ends. Spans
// are recorded from the benchmark's side of each call into a layer, so the
// program under test carries no instrumentation of its own.
type recorder struct {
	mu     sync.Mutex
	epoch  time.Time
	nextID int
	spans  []span
}

// span is one timed interval. Spans of one request share a root; Parent is 0
// for the root itself.
type span struct {
	Name   string
	ID     int
	Parent int
	Root   int
	Start  time.Time
	Dur    time.Duration
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// newID reserves a span ID, so a parent's children can be recorded before
// the parent itself ends.
func (r *recorder) newID() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	return r.nextID
}

// record stores a finished span under a reserved ID.
func (r *recorder) record(id, parent, root int, name string, start time.Time, dur time.Duration) {
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Root: root, Start: start, Dur: dur})
	r.mu.Unlock()
}

// call times fn as a child span of parent and returns its duration.
func (r *recorder) call(parent, root int, name string, fn func()) time.Duration {
	id := r.newID()
	start := time.Now()
	fn()
	d := time.Since(start)
	r.record(id, parent, root, name, start, d)
	return d
}

// selfTimes returns, per span name, each span's self time in microseconds:
// its duration minus the part its children cover.
func (r *recorder) selfTimes() map[string][]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	child := make(map[int]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.Dur
		}
	}
	out := make(map[string][]float64)
	for _, s := range r.spans {
		out[s.Name] = append(out[s.Name], float64((s.Dur-child[s.ID]).Nanoseconds())/1e3)
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (load it in
// Perfetto or chrome://tracing); each request's spans share one track.
func (r *recorder) writeChrome(w io.Writer) error {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	type event struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		TS   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		PID  int     `json:"pid"`
		TID  int     `json:"tid"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.Name, Cat: "castlebench", Ph: "X",
			TS:  float64(s.Start.Sub(r.epoch).Nanoseconds()) / 1e3,
			Dur: float64(s.Dur.Nanoseconds()) / 1e3,
			PID: 1, TID: s.Root,
		}
	}
	return json.NewEncoder(w).Encode(struct {
		DisplayTimeUnit string  `json:"displayTimeUnit"`
		TraceEvents     []event `json:"traceEvents"`
	}{"ms", events})
}
