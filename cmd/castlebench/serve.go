package main

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"time"

	"castle/internal/server"
)

// serveShape is the traffic of one serve workload.
type serveShape struct {
	rate float64 // offered rate, req/s
	// weights per SSB template (paper order); nil is uniform.
	weights []int
}

// shapeOf gives each serve workload an offered rate well below its capacity
// (about a third of it on the two-core reference machine). Closer to
// saturation, queueing turns every slowdown of a shared machine into a
// much larger swing in p99.
func shapeOf(w string) serveShape {
	if w == serveHot {
		// The skewed tenant mix of the shared-scan experiments: three hot
		// dashboard statements (Q1.1, Q2.1, Q3.2) dominate arrivals.
		return serveShape{rate: 75, weights: []int{4, 1, 1, 8, 1, 1, 1, 6, 1, 1, 1, 1, 1}}
	}
	return serveShape{rate: 50}
}

// outcome is one served request as the client saw it.
type outcome struct {
	s       *stmt
	due     time.Time
	done    time.Time
	httpDur time.Duration // ServeHTTP call
	status  int
	resp    server.Response
	right   bool // the rows equal the oracle-checked answer
}

// latency is from due time to answer, in ms.
func (o *outcome) latency() float64 { return ms(o.done.Sub(o.due)) }

// serveOne sends one request through the server's HTTP handler in process:
// a recorder stands in for the network, so the time measured is Castle's
// and not the loopback stack's. A zero due time means "due now".
func (r *run) serveOne(h http.Handler, s *stmt, due time.Time) outcome {
	req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(r.bodies[s]))
	rec := httptest.NewRecorder()
	start := time.Now()
	h.ServeHTTP(rec, req)
	done := time.Now()
	if due.IsZero() {
		due = start
	}
	o := outcome{s: s, due: due, done: done, httpDur: done.Sub(start), status: rec.Code}
	if rec.Code == http.StatusOK && json.Unmarshal(rec.Body.Bytes(), &o.resp) == nil {
		o.right = slices.EqualFunc(o.resp.Rows, s.rows, slices.Equal[[]string])
	}
	return o
}

// checkServed counts one served request; shed and failed requests count as
// failures like wrong answers.
func (r *run) checkServed(s *stmt, o outcome) {
	r.attempted++
	switch {
	case o.status != http.StatusOK:
		r.fail("%s: HTTP %d", s.Flight, o.status)
	case !o.right:
		r.wrongAnswer("%s: wrong answer", s.Flight)
	}
}

// phase is one open-loop interval at the workload's offered rate.
type phase struct {
	start time.Time
	d     time.Duration
	outs  []outcome
	late  []float64     // generator lateness per request, ms
	wall  time.Duration // first due time to last answer
	cpu   time.Duration // process CPU time over wall
}

// latencies returns the answered requests' latencies and the number shed.
func (p *phase) latencies() (lat []float64, shed int) {
	for i := range p.outs {
		o := &p.outs[i]
		switch {
		case o.status == http.StatusTooManyRequests:
			shed++
		case o.status == http.StatusOK && o.right:
			lat = append(lat, o.latency())
		}
	}
	return lat, shed
}

// backlog counts the requests still unanswered when the schedule ended.
func (p *phase) backlog() int {
	n := 0
	for i := range p.outs {
		if p.outs[i].done.After(p.start.Add(p.d)) {
			n++
		}
	}
	return n
}

// servePhase offers the workload's mix at its rate for d from one
// generator. Statements are drawn before the clock starts, so the generator
// does nothing but keep time; each request runs on its own goroutine. When
// rec is non-nil every request is traced.
func (r *run) servePhase(d time.Duration, seed uint64, rec *recorder) *phase {
	sched := poissonSchedule(seed, shapeOf(r.cfg.workload).rate, d)
	pick := r.servePicker(seed)
	stmts := make([]*stmt, len(sched))
	for i := range stmts {
		stmts[i] = pick()
	}
	p := &phase{d: d, outs: make([]outcome, len(sched))}
	cpu0 := processCPU()
	p.start = time.Now()
	p.late = openLoop(p.start, sched, func(i int, due time.Time) {
		var root int
		if rec != nil {
			root = rec.newID()
		}
		p.outs[i] = r.serveOne(r.env.h, stmts[i], due)
		if rec != nil {
			traceServed(rec, root, &p.outs[i])
		}
	})
	p.wall, p.cpu = time.Since(p.start), processCPU()-cpu0
	return p
}

// servePicker sends the templates in the workload's proportions, in
// shuffled passes over the weighted list.
func (r *run) servePicker(seed uint64) func() *stmt {
	var items []*stmt
	w := shapeOf(r.cfg.workload).weights
	for i, t := range r.or.templates {
		n := 1
		if w != nil {
			n = w[i]
		}
		for j := 0; j < n; j++ {
			items = append(items, t)
		}
	}
	return shuffledPasses(rand.New(rand.NewPCG(seed, 0x9E11)), items)
}

// traceServed records a served request as a ServeHTTP span whose children
// are the server's own queue/lease/exec/serialize phases. Those phases
// telescope to the server's wall time, so the parent's self time is the
// HTTP decode and encode around it. The children are laid out from the
// span's start; the server does not report where inside the call they fall.
func traceServed(rec *recorder, root int, o *outcome) {
	start := o.done.Add(-o.httpDur)
	rec.record(root, 0, root, "server.ServeHTTP", start, o.httpDur)
	if o.status != http.StatusOK {
		return
	}
	tm := o.resp.TimingsMicros
	at := start
	for _, ph := range []struct {
		name string
		us   int64
	}{{"server.queue", tm.QueueMicros}, {"server.lease", tm.LeaseMicros},
		{"server.exec", tm.ExecMicros}, {"server.serialize", tm.SerializeMicros}} {
		d := time.Duration(ph.us) * time.Microsecond
		rec.record(rec.newID(), root, root, ph.name, at, d)
		at = at.Add(d)
	}
}

// phaseSeed gives each phase of a run its own arrival stream.
func (r *run) phaseSeed(k int) uint64 { return r.cfg.seed*1_000_003 + uint64(k) }

// countPhase adds a phase's requests to the run's totals.
func (r *run) countPhase(p *phase) {
	for i := range p.outs {
		r.checkServed(p.outs[i].s, p.outs[i])
	}
}

// measureServe offers the fixed rate for the whole window. Its capacity,
// queries_per_s, comes from the same phase by the utilization law: the
// requests answered per second of process CPU time, times the cores. Every
// part of serving a request is CPU work in this process, so that is the
// rate at which the server would run out of cores.
func (r *run) measureServe() {
	p := r.servePhase(r.cfg.window, r.phaseSeed(0), nil)
	r.countPhase(p)
	lat, shed := p.latencies()
	r.reportReads(lat)
	late := summarize(p.late)
	r.notef("offered %.0f req/s for %.0fs: %d requests, %d shed, %d still unanswered at the end; generator lateness p99 %.3f ms",
		shapeOf(r.cfg.workload).rate, p.d.Seconds(), len(p.outs), shed, p.backlog(), late.P99)
	if late.P99 > 0.1*r.metrics["p99_ms"] {
		r.notef("WARNING: generator lateness p99 is above 10%% of p99_ms: the generator shares the cores with the server")
	}
	r.metrics["queries_per_s"] = float64(len(lat)) * float64(runtime.GOMAXPROCS(0)) / p.cpu.Seconds()
	r.notef("queries_per_s: %d answers in %.2f CPU-seconds on %d cores (%.0f%% busy)",
		len(lat), p.cpu.Seconds(), runtime.GOMAXPROCS(0),
		100*p.cpu.Seconds()/(p.wall.Seconds()*float64(runtime.GOMAXPROCS(0))))
}
