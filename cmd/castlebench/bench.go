package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"castle"
	"castle/internal/server"
	"castle/internal/storage"
)

// Workload names.
const (
	simCape     = "sim-cape"
	adhocIngest = "adhoc-ingest"
	serveMix    = "serve-mix"
	serveHot    = "serve-hot"
)

var workloadNames = []string{simCape, adhocIngest, serveMix, serveHot}

const (
	// setupRepeats is how many times an untraced run sets up; setup_s is
	// the median. The traced run, which does not report setup_s, sets up
	// once.
	setupRepeats = 3
	// writeEvery is the ad-hoc client's re-import period.
	writeEvery = 500 * time.Millisecond
	// writeProbes is how many import-then-read stalls the workloads without
	// writes of their own measure after their window.
	writeProbes = 7
	// sweepReps is how often the traced run replays each template on each
	// device through both the facade and the decomposed layer calls.
	sweepReps = 2
)

func isServe(w string) bool { return w == serveMix || w == serveHot }

// config is one run's settings.
type config struct {
	workload string
	seed     uint64
	sf       float64
	window   time.Duration // how long the run measures
	trace    bool
	traceDir string // where the traced run writes its Chrome trace
	workDir  string // scratch files (the CSV the ad-hoc client imports)
}

// run is the state and result of one workload run.
type run struct {
	cfg    config
	ctx    context.Context
	or     *oracle
	env    *env
	csv    string
	bodies map[*stmt][]byte // request bodies of the serve workloads

	attempted, failed int
	wrong             int      // failures that were wrong answers or cycle counts
	problems          []string // first few failures, for the report

	metrics map[string]float64
	notes   []string // human-readable detail printed before the result
}

// env is the system under test: the database and, for the serve
// workloads, the server in front of it.
type env struct {
	db  *castle.DB
	srv *server.Server
	h   http.Handler
}

func (e *env) close() {
	if e.srv != nil {
		e.srv.Close()
	}
}

func (r *run) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail counts one failed operation and keeps its reason.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 10 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// wrongAnswer counts a failed operation whose output was wrong.
func (r *run) wrongAnswer(format string, args ...any) {
	r.wrong++
	r.fail(format, args...)
}

// readOptions is the facade configuration of the closed-loop workloads.
func readOptions(w string) castle.Options {
	if w == simCape {
		return castle.Options{Device: castle.DeviceCAPE, Parallelism: 1}
	}
	return castle.Options{Device: castle.DeviceCPU}
}

// serverConfig sizes the server of the serve workloads, the same on both so
// scan sharing is the only difference between them: two CAPE tiles, two
// CPU slots, one tile per query. On two cores an elastic two-tile lease
// made a CAPE query's time depend on whether the other tile happened to be
// idle, which more than doubled p99's spread across seeds.
func serverConfig(w string) server.Config {
	cfg := server.Config{CAPETiles: 2, CPUSlots: 2, MaxTilesPerQuery: 1}
	if w == serveHot {
		cfg.ScanSharing, cfg.CoalesceWindow, cfg.MaxGroupSize = true, 2*time.Millisecond, 8
	}
	return cfg
}

// bench runs one workload end to end: oracle, repeated setup, the
// measured window (or the traced run) and the checks.
func bench(ctx context.Context, cfg config) (*run, error) {
	r := &run{cfg: cfg, ctx: ctx, metrics: make(map[string]float64)}
	var err error
	if r.or, err = newOracle(cfg.sf); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	if cfg.workload == adhocIngest {
		if err := r.or.addPool(cfg.seed); err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
	}
	if isServe(cfg.workload) {
		r.bodies = make(map[*stmt][]byte, len(r.or.templates))
		for _, t := range r.or.templates {
			r.bodies[t], _ = json.Marshal(server.Request{SQL: t.SQL})
		}
	}
	r.csv = filepath.Join(cfg.workDir, "date.csv")
	if err := writeCSV(r.csv, r.or.store.MustTable("date")); err != nil {
		return nil, err
	}

	setups := make([]float64, setupRepeats)
	if cfg.trace {
		setups = setups[:1]
	}
	for i := range setups {
		if r.env != nil {
			r.env.close()
		}
		start := time.Now()
		if r.env, err = r.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups[i] = time.Since(start).Seconds()
	}
	defer r.env.close()
	r.metrics["setup_s"] = median(setups)
	r.notef("setup_s: median of %d setups %.3f", len(setups), setups)

	speedup, err := r.or.simCheck(ctx, r.env.db)
	if err != nil {
		return nil, fmt.Errorf("simulated-cycle check: %w", err)
	}
	r.metrics["sim_speedup_geomean"] = speedup

	if cfg.trace {
		return r, r.traced()
	}
	r.measure()
	return r, nil
}

// setup builds the system under test the way a deployment would: generate
// the data, collect statistics, warm the plan cache with one pass of the
// templates and, for the serve workloads, start the server first so the
// pass goes through it. Answers are not checked here; oracle time stays out
// of setup_s.
func (r *run) setup() (*env, error) {
	e := &env{db: castle.GenerateSSB(r.cfg.sf, dataSeed)}
	e.db.RefreshStats()
	if !isServe(r.cfg.workload) {
		opt := readOptions(r.cfg.workload)
		for _, t := range r.or.templates {
			if _, _, err := e.db.QueryContext(r.ctx, t.SQL, opt); err != nil {
				return nil, fmt.Errorf("%s: %w", t.Flight, err)
			}
		}
		return e, nil
	}
	srv, err := server.New(e.db, nil, serverConfig(r.cfg.workload))
	if err != nil {
		return nil, err
	}
	e.srv, e.h = srv, srv.Handler()
	for _, t := range r.or.templates {
		if o := r.serveOne(e.h, t, time.Time{}); o.status != http.StatusOK {
			e.close()
			return nil, fmt.Errorf("%s: HTTP %d", t.Flight, o.status)
		}
	}
	return e, nil
}

// measure is the untraced run that gives the end-to-end metrics.
func (r *run) measure() {
	runtime.GC()
	heap := startHeapSampler()
	if isServe(r.cfg.workload) {
		r.measureServe()
	} else {
		r.measureClosed()
	}
	r.metrics["heap_p95_mb"] = heap.finish()
	if r.cfg.workload != adhocIngest {
		r.metrics["write_stall_p50_ms"] = median(r.writeProbes())
	}
	r.metrics["ok_frac"] = 1 - float64(r.failed)/float64(r.attempted)
}

// writeProbes measures how long an import stalls the next read for the
// workloads that do not write during their window: re-import the date
// table, then send one read through the workload's own read path. The
// system is idle while it does, because DB.ImportCSV must not race with
// queries. Every probe reads the same statement, so the median moves with
// the import and not with which statement a probe happened to read.
func (r *run) writeProbes() []float64 {
	var out []float64
	s := r.or.templates[0]
	for i := 0; i < writeProbes; i++ {
		start := time.Now()
		r.facadeWrite()
		if isServe(r.cfg.workload) {
			r.checkServed(s, r.serveOne(r.env.h, s, time.Time{}))
		} else {
			r.readFacade(s)
		}
		out = append(out, ms(time.Since(start)))
	}
	return out
}

// readFacade sends one read through the facade and checks it: the answer
// must equal the oracle's, and the simulated cycles must equal what the
// same statement cost before.
func (r *run) readFacade(s *stmt) {
	opt := readOptions(r.cfg.workload)
	rows, m, err := r.env.db.QueryContext(r.ctx, s.SQL, opt)
	r.attempted++
	switch {
	case err != nil:
		r.fail("%s: %v", s.Flight, err)
	case canonRaw(rows.Raw) != s.want:
		r.wrongAnswer("%s: wrong answer", s.Flight)
	case !sameCycles(s, opt.Device, m.Cycles):
		r.wrongAnswer("%s: %d simulated cycles, expected %d", s.Flight, m.Cycles, expectedCycles(s, opt.Device))
	}
}

func expectedCycles(s *stmt, dev castle.Device) int64 {
	if dev == castle.DeviceCAPE {
		return s.capeCycles
	}
	return s.cpuCycles
}

// sameCycles checks a statement's simulated cycles on one device against
// the first count seen for it, recording that count when there is none.
func sameCycles(s *stmt, dev castle.Device, got int64) bool {
	p := &s.cpuCycles
	if dev == castle.DeviceCAPE {
		p = &s.capeCycles
	}
	if *p == 0 {
		*p = got
	}
	return *p == got
}

// writeCSV writes a table with a header row, string columns decoded: the
// inverse of storage.ReadCSV, so an import restores identical contents.
func writeCSV(path string, t *storage.Table) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	cols := t.Columns()
	for i, c := range cols {
		if i > 0 {
			w.WriteByte(',')
		}
		w.WriteString(c.Name)
	}
	w.WriteByte('\n')
	for row := 0; row < t.Rows(); row++ {
		for i, c := range cols {
			if i > 0 {
				w.WriteByte(',')
			}
			if c.Dict != nil {
				w.WriteString(c.Dict.Decode(c.Data[row]))
			} else {
				fmt.Fprint(w, c.Data[row])
			}
		}
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// heapSampler samples the bytes held by heap objects (live and not yet
// swept) at 10 Hz from runtime/metrics.
type heapSampler struct {
	stop, done chan struct{}
	mb         []float64
}

func (h *heapSampler) sample() {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	h.mb = append(h.mb, float64(s[0].Value.Uint64())/1e6)
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	h.sample()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.sample()
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the 95th percentile of its samples
// in MB. The maximum would swing with whether one sample happened to land
// just before a collection; the 95th percentile repeats.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	h.sample()
	s := append([]float64(nil), h.mb...)
	sort.Float64s(s)
	return percentile(s, 0.95)
}

// cpuClock reads the runtime's estimates of the CPU time Go code and the
// runtime used, and of the part the garbage collector used. The runtime
// refreshes them at each collection, so take them over many collections.
func cpuClock() (used, gc float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64() - s[1].Value.Float64(), s[2].Value.Float64()
}

// processCPU is the CPU time the process has used, user and system.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocs reads the cumulative heap allocation counters.
func allocs() (objects, bytes uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}
