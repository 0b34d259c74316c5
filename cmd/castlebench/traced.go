package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"castle"
	"castle/internal/baseline"
	"castle/internal/cape"
	"castle/internal/exec"
	"castle/internal/optimizer"
	"castle/internal/plan"
	"castle/internal/sql"
	"castle/internal/ssb"
	"castle/internal/stats"
	"castle/internal/storage"
	"castle/internal/telemetry"
)

// layers replays statements through the layers' public functions, one
// span per call: sql.Parse, plan.Bind, optimizer.Optimize (CAPE only) and
// the executor's RunContext, plus storage.ReadCSV and stats.Collect for
// writes. It works on its own copy of the data, with the facade's CAPE
// design point, so it measures the same work as the facade does.
type layers struct {
	r     *run
	store *storage.Database
	cat   *stats.Catalog
	cfg   cape.Config
	rec   *recorder

	vinstrs                                            map[string]int64 // per flight; deterministic
	capeInstrs, capeExecNs, capeAllocs, capeAllocBytes []float64
	cpuAllocs                                          []float64
	otherUs                                            []float64 // facade wall minus the executor span
}

func (r *run) newLayers() *layers {
	store := ssb.Generate(ssb.Config{SF: r.cfg.sf, Seed: dataSeed})
	return &layers{r: r, store: store, cat: stats.Collect(store),
		cfg: cape.DefaultConfig().WithEnhancements(), rec: newRecorder(), vinstrs: make(map[string]int64)}
}

// read runs one statement through the layer calls on dev and returns its
// simulated cycles, canonical answer and executor time.
func (l *layers) read(s *stmt, dev castle.Device) (int64, string, time.Duration, error) {
	root, start := l.rec.newID(), time.Now()
	defer func() { l.rec.record(root, 0, root, "castlebench.read", start, time.Since(start)) }()
	var (
		st  *sql.SelectStmt
		q   *plan.Query
		res *exec.Result
		err error
	)
	if l.rec.call(root, root, "sql.Parse", func() { st, err = sql.Parse(s.SQL) }); err != nil {
		return 0, "", 0, err
	}
	if l.rec.call(root, root, "plan.Bind", func() { q, err = plan.Bind(st, l.store) }); err != nil {
		return 0, "", 0, err
	}
	if dev == castle.DeviceCPU {
		cpu := baseline.New(baseline.DefaultConfig())
		x := exec.NewCPUExec(cpu)
		x.SetParallelism(1)
		o0, _ := allocs()
		d := l.rec.call(root, root, "cpu.exec "+s.Flight, func() { res, err = x.RunContext(l.r.ctx, q, l.store) })
		o1, _ := allocs()
		if err != nil {
			return 0, "", 0, err
		}
		l.cpuAllocs = append(l.cpuAllocs, float64(o1-o0))
		return cpu.Cycles(), canonExec(res.Rows), d, nil
	}
	var phys *plan.Physical
	if l.rec.call(root, root, "optimizer.Optimize", func() { phys, err = optimizer.Optimize(q, l.cat, l.cfg.MAXVL) }); err != nil {
		return 0, "", 0, err
	}
	// The facade's forced-CAPE path: fusion on, serial sweep.
	opts := exec.DefaultCastleOptions()
	opts.Parallelism = 1
	eng := cape.New(l.cfg)
	cas := exec.NewCastle(eng, l.cat, opts)
	o0, b0 := allocs()
	d := l.rec.call(root, root, "cape.exec "+s.Flight, func() { res, err = cas.RunContext(l.r.ctx, phys, l.store) })
	o1, b1 := allocs()
	if err != nil {
		return 0, "", 0, err
	}
	es := eng.Stats()
	l.vinstrs[s.Flight] = es.VectorInstrs
	l.capeInstrs = append(l.capeInstrs, float64(es.VectorInstrs))
	l.capeExecNs = append(l.capeExecNs, float64(d.Nanoseconds()))
	l.capeAllocs = append(l.capeAllocs, float64(o1-o0))
	l.capeAllocBytes = append(l.capeAllocBytes, float64(b1-b0))
	return es.TotalCycles(), canonExec(res.Rows), d, nil
}

// readChecked is the traced closed loop's read: the layer calls, checked
// against the oracle, and against the facade's cycles for the statement.
func (l *layers) readChecked(s *stmt) {
	r := l.r
	dev := readOptions(r.cfg.workload).Device
	if expectedCycles(s, dev) == 0 {
		// The untraced phase never drew this statement: ask the facade once.
		if _, m, err := r.env.db.QueryContext(r.ctx, s.SQL, readOptions(r.cfg.workload)); err == nil {
			sameCycles(s, dev, m.Cycles)
		}
	}
	cycles, answer, _, err := l.read(s, dev)
	r.attempted++
	switch {
	case err != nil:
		r.fail("%s (layer calls): %v", s.Flight, err)
	case answer != s.want:
		r.wrongAnswer("%s (layer calls): wrong answer", s.Flight)
	case cycles != expectedCycles(s, dev):
		r.wrongAnswer("%s (layer calls): %d simulated cycles, the facade's %d", s.Flight, cycles, expectedCycles(s, dev))
	}
}

// write re-imports the date table through the layer calls.
func (l *layers) write() {
	root, start := l.rec.newID(), time.Now()
	var (
		t   *storage.Table
		err error
	)
	l.rec.call(root, root, "storage.ReadCSV", func() {
		var f *os.File
		if f, err = os.Open(l.r.csv); err == nil {
			t, err = storage.ReadCSV("date", f)
			f.Close()
		}
	})
	if err != nil {
		l.r.attempted++
		l.r.fail("import (layer calls): %v", err)
		return
	}
	l.store.Put(t)
	l.rec.call(root, root, "stats.Collect", func() { l.cat = stats.Collect(l.store) })
	l.rec.record(root, 0, root, "castlebench.write", start, time.Since(start))
}

// sweep replays every template on both devices through the facade and
// through the layer calls, sweepReps times. Every workload gets per-flight
// executor times and cycles this way, and each decomposed call's cycles
// must equal the facade's for the same statement. The first repetition
// warms the facade's plan cache and is left out of castle.other_us.
func (l *layers) sweep() {
	r := l.r
	for rep := 0; rep < sweepReps; rep++ {
		for _, t := range r.or.templates {
			for _, dev := range []castle.Device{castle.DeviceCPU, castle.DeviceCAPE} {
				r.attempted++
				start := time.Now()
				rows, m, err := r.env.db.QueryContext(r.ctx, t.SQL, castle.Options{Device: dev, Parallelism: 1})
				facade := time.Since(start)
				if err != nil {
					r.fail("%s on %s (facade): %v", t.Flight, dev, err)
					continue
				}
				if canonRaw(rows.Raw) != t.want {
					r.wrongAnswer("%s on %s (facade): wrong answer", t.Flight, dev)
					continue
				}
				cycles, answer, execDur, err := l.read(t, dev)
				switch {
				case err != nil:
					r.fail("%s on %s (layer calls): %v", t.Flight, dev, err)
				case answer != t.want:
					r.wrongAnswer("%s on %s (layer calls): wrong answer", t.Flight, dev)
				case cycles != m.Cycles || cycles != expectedCycles(t, dev):
					r.wrongAnswer("%s on %s: layer calls cost %d cycles, the facade %d", t.Flight, dev, cycles, m.Cycles)
				case rep > 0:
					l.otherUs = append(l.otherUs, float64((facade-execDur).Nanoseconds())/1e3)
				}
			}
		}
	}
}

// traced is the run with -trace: an untraced half window, then a traced
// half window of the same workload, then the template sweep and write
// probes through the layer calls. It reports the per-layer metrics and
// writes the spans as a Chrome trace.
func (r *run) traced() error {
	l := r.newLayers()
	half := r.cfg.window / 2
	for _, name := range perLayerNames() {
		r.metrics[name] = 0 // layers a workload does not exercise report 0
	}
	var (
		served *phase
		closed closedOut
	)
	runtime.GC()
	used0, gc0 := cpuClock()
	pc0 := r.env.db.PlanCacheStats()
	if isServe(r.cfg.workload) {
		served = r.servePhase(half, r.phaseSeed(0), nil)
	} else {
		closed = r.closedLoop(half, r.picker(1), r.facadeWrite, r.readFacade)
	}
	// The runtime and plan-cache deltas cover the untraced half: the traced
	// half of the closed loops bypasses the facade and its plan cache.
	used1, gc1 := cpuClock()
	pc1 := r.env.db.PlanCacheStats()
	if used := used1 - used0; used > 0 { // zero when no collection ran
		r.metrics["runtime.gc_cpu_frac"] = (gc1 - gc0) / used
	}
	if n := (pc1.Hits - pc0.Hits) + (pc1.Misses - pc0.Misses); n > 0 {
		r.metrics["plancache.hit_frac"] = float64(pc1.Hits-pc0.Hits) / float64(n)
	}
	r.metrics["plancache.evictions"] = float64(pc1.Evictions - pc0.Evictions)
	r.metrics["plancache.flushes"] = float64(pc1.Flushes - pc0.Flushes)

	runtime.GC()
	if isServe(r.cfg.workload) {
		r.tracedServe(l, served, half)
	} else {
		traced := r.closedLoop(half, r.picker(2), l.write, l.readChecked)
		r.metrics["trace.overhead_frac"] = 1 - traced.rate()/closed.rate()
		r.notef("untraced %.1f reads/s (p50 %.3f ms); traced %.1f reads/s",
			closed.rate(), summarize(closed.lat).P50, traced.rate())
	}

	l.sweep()
	for i := 0; i < writeProbes; i++ {
		l.write()
	}
	l.report()
	return r.writeTrace(l.rec)
}

// tracedServe offers the fixed rate traced, after the untraced phase, and
// reduces the traced phase's responses to the server's per-layer metrics.
func (r *run) tracedServe(l *layers, untraced *phase, half time.Duration) {
	reg := r.env.srv.Telemetry().Metrics()
	counter := func(name string, labels ...telemetry.Label) float64 {
		return float64(reg.CounterValue(name, labels...))
	}
	wait := reg.Histogram(telemetry.MetricCoalesceWait, "")
	fused0 := counter(telemetry.MetricCoalescedQueries, telemetry.L("kind", "fused"))
	dedup0 := counter(telemetry.MetricCoalescedQueries, telemetry.L("kind", "deduped"))
	sweeps0 := counter(telemetry.MetricSharedSweeps, telemetry.L("device", "cape")) +
		counter(telemetry.MetricSharedSweeps, telemetry.L("device", "cpu"))
	waitSum0, waitN0 := wait.Sum(), wait.Count()
	p := r.servePhase(half, r.phaseSeed(1), l.rec)
	r.countPhase(untraced)
	r.countPhase(p)

	uLat, _ := untraced.latencies()
	tLat, shed := p.latencies()
	u, t := summarize(uLat), summarize(tLat)
	r.metrics["trace.overhead_frac"] = t.P50/u.P50 - 1
	r.metrics["gen.late_ms.p99"] = summarize(untraced.late).P99
	r.notef("untraced p50 %.3f ms p99 %.3f ms; traced p50 %.3f ms p99 %.3f ms", u.P50, u.P99, t.P50, t.P99)

	var queue, lease, execT, ser, codec []float64
	var execSum float64
	capeN, grouped := 0, 0
	for i := range p.outs {
		o := &p.outs[i]
		if o.status != http.StatusOK {
			continue
		}
		tm := o.resp.TimingsMicros
		queue = append(queue, float64(tm.QueueMicros)/1e3)
		lease = append(lease, float64(tm.LeaseMicros)/1e3)
		execT = append(execT, float64(tm.ExecMicros)/1e3)
		ser = append(ser, float64(tm.SerializeMicros)/1e3)
		codec = append(codec, float64(o.httpDur.Microseconds()-o.resp.WallMicros))
		execSum += float64(tm.ExecMicros) / 1e6
		if o.resp.Device == "CAPE" {
			capeN++
		}
		if o.resp.GroupSize > 1 {
			grouped++
		}
	}
	q, le, ex := summarize(queue), summarize(lease), summarize(execT)
	m := r.metrics
	m["server.queue_ms.p50"], m["server.queue_ms.p99"] = q.P50, q.P99
	m["server.lease_ms.p99"] = le.P99
	m["server.exec_ms.p50"], m["server.exec_ms.p99"] = ex.P50, ex.P99
	m["server.serialize_ms.p50"] = median(ser)
	m["server.http_codec_us.p50"] = median(codec)
	m["server.shed_frac"] = float64(shed) / float64(len(p.outs))
	cfg := serverConfig(r.cfg.workload)
	m["server.exec_busy_frac"] = execSum / (half.Seconds() * float64(cfg.CAPETiles+cfg.CPUSlots))
	if t.N > 0 {
		m["server.cape_routed_frac"] = float64(capeN) / float64(t.N)
		m["server.coalesce.hit_frac"] = float64(grouped) / float64(t.N)
		m["server.coalesce.dedup_frac"] = (counter(telemetry.MetricCoalescedQueries, telemetry.L("kind", "deduped")) - dedup0) / float64(t.N)
	}
	sweeps := counter(telemetry.MetricSharedSweeps, telemetry.L("device", "cape")) +
		counter(telemetry.MetricSharedSweeps, telemetry.L("device", "cpu")) - sweeps0
	if sweeps > 0 {
		m["server.coalesce.group_size_mean"] = (counter(telemetry.MetricCoalescedQueries, telemetry.L("kind", "fused")) - fused0) / sweeps
	}
	if n := wait.Count() - waitN0; n > 0 {
		m["server.coalesce.wait_ms.mean"] = (wait.Sum() - waitSum0) / float64(n) / 1e3
	}
}

// report reduces the spans and counters to the per-layer metrics.
func (l *layers) report() {
	m := l.r.metrics
	self := l.rec.selfTimes()
	m["sql.parse_us.p50"] = median(self["sql.Parse"])
	m["plan.bind_us.p50"] = median(self["plan.Bind"])
	m["optimizer.optimize_us.p50"] = median(self["optimizer.Optimize"])
	m["stats.collect_ms.p50"] = median(self["stats.Collect"]) / 1e3
	m["storage.read_csv_ms.p50"] = median(self["storage.ReadCSV"]) / 1e3
	m["castle.other_us.p50"] = median(l.otherUs)
	for _, t := range l.r.or.templates {
		m["cape.exec_ms."+t.Flight] = median(self["cape.exec "+t.Flight]) / 1e3
		m["cpu.exec_ms."+t.Flight] = median(self["cpu.exec "+t.Flight]) / 1e3
		m["cape.sim_cycles."+t.Flight] = float64(t.capeCycles)
		m["cpu.sim_cycles."+t.Flight] = float64(t.cpuCycles)
	}
	var perFlight []float64
	for _, n := range l.vinstrs {
		perFlight = append(perFlight, float64(n))
	}
	m["cape.vinstrs_per_query"] = mean(perFlight)
	if n := sum(l.capeInstrs); n > 0 {
		m["cape.ns_per_vinstr"] = sum(l.capeExecNs) / n
	}
	m["cape.allocs_per_query"] = mean(l.capeAllocs)
	m["cape.alloc_mb_per_query"] = mean(l.capeAllocBytes) / 1e6
	m["cpu.allocs_per_query"] = mean(l.cpuAllocs)
}

// writeTrace writes the traced run's spans as a Chrome trace.
func (r *run) writeTrace(rec *recorder) error {
	if err := os.MkdirAll(r.cfg.traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(r.cfg.traceDir, fmt.Sprintf("castlebench-%s-seed%d.json", r.cfg.workload, r.cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	r.notef("trace: %d spans written to %s", len(rec.spans), path)
	return nil
}
