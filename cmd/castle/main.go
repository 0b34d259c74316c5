// Command castle is an interactive analytic query runner: it generates (or
// loads) an SSB database and executes SQL against the CAPE simulator, the
// AVX-512 baseline model, or both, printing results, plans, and cycle
// accounting.
//
// Usage:
//
//	castle -sf 0.1 -query "SELECT SUM(lo_revenue), d_year FROM lineorder, date WHERE lo_orderdate = d_datekey GROUP BY d_year"
//	castle -sf 0.1 -ssb 4                  # run SSB query 4 (Q2.1)
//	castle -sf 0.1 -ssb 4 -device cpu
//	castle -sf 0.1 -ssb 4 -explain         # show candidate plans and costs
//	castle -sf 0.1 -save ssb.cstl          # persist the generated database
//	castle -load ssb.cstl -interactive     # REPL against a saved database
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

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

func main() {
	sf := flag.Float64("sf", 0.1, "SSB scale factor")
	queryText := flag.String("query", "", "SQL query to run")
	ssbNum := flag.Int("ssb", 0, "run SSB query 1..13 instead of -query")
	device := flag.String("device", "cape", "execution device: cape, cpu, both, or hybrid (per-operator placement)")
	explain := flag.Bool("explain", false, "print every candidate plan with its cost")
	analyze := flag.Bool("analyze", false, "print the EXPLAIN ANALYZE per-operator cycle breakdown")
	noEnh := flag.Bool("no-enhancements", false, "disable ADL/MKS/ABA (unmodified CAPE)")
	shape := flag.String("shape", "", "force plan shape: left-deep, right-deep, zig-zag")
	savePath := flag.String("save", "", "write the database to this file (CSTL binary format) and exit unless a query is given")
	loadPath := flag.String("load", "", "load a database from a CSTL binary file instead of generating SSB")
	interactive := flag.Bool("interactive", false, "read SQL queries from stdin (one per line)")
	parallel := flag.Int("parallel", 1, "fan the fact sweep across N tiles/cores (clamped to available morsels)")
	traceOut := flag.String("trace-out", "", "write spans as Chrome trace-event JSON to this file on exit (open in Perfetto)")
	metricsOut := flag.String("metrics-out", "", "write metrics in Prometheus text format to this file on exit")
	flag.Parse()

	switch *device {
	case "cape", "cpu", "both", "hybrid":
	default:
		fatalf("unknown -device %q (valid: cape, cpu, both, hybrid)", *device)
	}

	qsql := *queryText
	if *ssbNum != 0 {
		found := false
		for _, q := range ssb.Queries() {
			if q.Num == *ssbNum {
				qsql, found = q.SQL, true
				fmt.Printf("SSB query %d (%s)\n", q.Num, q.Flight)
				break
			}
		}
		if !found {
			fatalf("no SSB query %d (valid: 1..13)", *ssbNum)
		}
	}

	var db *storage.Database
	if *loadPath != "" {
		f, err := os.Open(*loadPath)
		if err != nil {
			fatalf("%v", err)
		}
		db, err = storage.ReadBinary(f)
		f.Close()
		if err != nil {
			fatalf("loading %s: %v", *loadPath, err)
		}
		fmt.Printf("loaded database from %s\n", *loadPath)
	} else {
		fmt.Printf("generating SSB at SF=%.2f...\n", *sf)
		db = ssb.Generate(ssb.Config{SF: *sf, Seed: 1})
	}
	if *savePath != "" {
		f, err := os.Create(*savePath)
		if err != nil {
			fatalf("%v", err)
		}
		if err := db.WriteBinary(f); err != nil {
			fatalf("saving: %v", err)
		}
		f.Close()
		fmt.Printf("saved database to %s\n", *savePath)
	}
	cat := stats.Collect(db)

	var tel *telemetry.Telemetry
	if *traceOut != "" || *metricsOut != "" {
		tel = telemetry.New()
	}

	if *parallel < 1 {
		fatalf("-parallel must be at least 1 (got %d)", *parallel)
	}
	sess := &session{
		db: db, cat: cat,
		device: *device, explain: *explain, analyze: *analyze,
		noEnh: *noEnh, shape: *shape, parallel: *parallel, tel: tel,
		flight: telemetry.NewFlightRecorder(0),
	}

	if *interactive {
		sess.repl()
	} else {
		if qsql == "" {
			if *savePath != "" {
				return
			}
			flag.Usage()
			os.Exit(2)
		}
		if err := sess.runQuery(qsql); err != nil {
			fatalf("%v", err)
		}
	}
	if err := writeTelemetry(tel, *traceOut, *metricsOut); err != nil {
		fatalf("%v", err)
	}
}

// writeTelemetry exports the trace and metrics files requested on the
// command line.
func writeTelemetry(tel *telemetry.Telemetry, tracePath, metricsPath string) error {
	if tel == nil {
		return nil
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		err = tel.WriteChromeTrace(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		fmt.Printf("wrote Chrome trace to %s (open in Perfetto or chrome://tracing)\n", tracePath)
	}
	if metricsPath != "" {
		f, err := os.Create(metricsPath)
		if err != nil {
			return err
		}
		err = tel.WritePrometheus(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("writing metrics: %w", err)
		}
		fmt.Printf("wrote Prometheus metrics to %s\n", metricsPath)
	}
	return nil
}

// session holds the loaded database and execution settings.
type session struct {
	db       *storage.Database
	cat      *stats.Catalog
	device   string
	explain  bool
	analyze  bool
	noEnh    bool
	shape    string
	parallel int
	tel      *telemetry.Telemetry
	// flight retains a post-mortem record for every statement the session
	// runs; \flight lists them, \flight N prints one in full.
	flight *telemetry.FlightRecorder
}

// repl reads SQL statements from stdin, one per line; \q quits, \analyze
// toggles the EXPLAIN ANALYZE breakdown, \parallel N sets the fact-sweep
// fan-out.
func (s *session) repl() {
	fmt.Println("castle> enter SQL (one statement per line; \\analyze toggles breakdowns; \\explain toggles plans; \\device D switches engine; \\parallel N sets fan-out; \\flight [N] shows query post-mortems; \\q to quit)")
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Print("castle> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case line == "\\q" || line == "quit" || line == "exit":
			return
		case line == "\\analyze":
			s.analyze = !s.analyze
			if s.analyze {
				fmt.Println("explain analyze: on")
			} else {
				fmt.Println("explain analyze: off")
			}
		case line == "\\explain":
			s.explain = !s.explain
			if s.explain {
				fmt.Println("explain: on (candidate plans + placed operator tree)")
			} else {
				fmt.Println("explain: off")
			}
		case line == "\\device" || strings.HasPrefix(line, "\\device "):
			arg := strings.TrimSpace(strings.TrimPrefix(line, "\\device"))
			switch arg {
			case "cape", "cpu", "both", "hybrid":
				s.device = arg
				fmt.Printf("device: %s\n", s.device)
			default:
				fmt.Fprintf(os.Stderr, "error: \\device wants cape, cpu, both or hybrid, got %q\n", arg)
			}
		case line == "\\parallel" || strings.HasPrefix(line, "\\parallel "):
			arg := strings.TrimSpace(strings.TrimPrefix(line, "\\parallel"))
			switch {
			case arg == "":
				// Bare \parallel toggles between serial and a 4-way sweep.
				if s.parallel > 1 {
					s.parallel = 1
				} else {
					s.parallel = 4
				}
			default:
				n, err := strconv.Atoi(arg)
				if err != nil || n < 1 {
					fmt.Fprintf(os.Stderr, "error: \\parallel wants a positive integer, got %q\n", arg)
					fmt.Print("castle> ")
					continue
				}
				s.parallel = n
			}
			fmt.Printf("parallelism: %d\n", s.parallel)
		case line == "\\flight" || strings.HasPrefix(line, "\\flight "):
			s.showFlight(strings.TrimSpace(strings.TrimPrefix(line, "\\flight")))
		default:
			if err := s.runQuery(line); err != nil {
				fmt.Fprintf(os.Stderr, "error: %v\n", err)
			}
		}
		fmt.Print("castle> ")
	}
}

// runQuery parses, optimizes and executes one statement on the configured
// device(s).
func (s *session) runQuery(qsql string) error {
	start := time.Now()
	qs := s.tel.StartSpan("query")
	defer qs.End()

	sp := qs.Child("parse")
	stmt, err := sql.Parse(qsql)
	sp.End()
	parseEnd := time.Now()
	if err != nil {
		return s.flightFail(qsql, start, fmt.Errorf("parse: %w", err))
	}
	sp = qs.Child("bind")
	q, err := plan.Bind(stmt, s.db)
	sp.End()
	bindEnd := time.Now()
	if err != nil {
		return s.flightFail(qsql, start, fmt.Errorf("bind: %w", err))
	}

	cfg := cape.DefaultConfig()
	if !s.noEnh {
		cfg = cfg.WithEnhancements()
	}

	var phys *plan.Physical
	osp := qs.Child("optimize")
	if s.shape != "" {
		sh, err := parseShape(s.shape)
		if err != nil {
			osp.End()
			return s.flightFail(qsql, start, err)
		}
		phys, err = optimizer.BestWithShapeTraced(q, s.cat, cfg.MAXVL, sh, osp)
		if err != nil {
			osp.End()
			return s.flightFail(qsql, start, fmt.Errorf("optimize: %w", err))
		}
	} else {
		phys, err = optimizer.OptimizeTraced(q, s.cat, cfg.MAXVL, osp)
		if err != nil {
			osp.End()
			return s.flightFail(qsql, start, fmt.Errorf("optimize: %w", err))
		}
	}
	osp.End()
	optEnd := time.Now()
	marks := flightMarks{start: start, parseEnd: parseEnd, bindEnd: bindEnd, optEnd: optEnd}

	if s.explain {
		fmt.Println("candidate plans:")
		for _, c := range optimizer.Enumerate(q, s.cat, cfg.MAXVL) {
			marker := " "
			if c.SwitchAt == phys.Switch && sameOrder(c.Joins, phys.Joins) {
				marker = "*"
			}
			fmt.Printf("  %s %-11v switch=%d searches=%-12d order=%v\n",
				marker, c.Shape(), c.SwitchAt, c.Searches, dimNames(c.Joins))
		}
		fmt.Println(optimizer.PlacePlan(phys, s.cat, cfg.MAXVL).String())
	}
	fmt.Printf("plan: %v\n\n", phys)

	var placed []*plan.PlacedPlan
	switch s.device {
	case "hybrid":
		placed = append(placed, optimizer.PlacePlan(phys, s.cat, cfg.MAXVL))
	case "cape", "both":
		placed = append(placed, optimizer.PredictUniform(phys, s.cat, cfg.MAXVL, plan.DeviceCAPE))
	}
	if s.device == "cpu" || s.device == "both" {
		placed = append(placed, optimizer.PredictUniform(phys, s.cat, cfg.MAXVL, plan.DeviceCPU))
	}
	for _, pp := range placed {
		if err := s.execute(qs, qsql, phys, pp, cfg, marks); err != nil {
			return err
		}
	}
	return nil
}

// execute runs one placed plan — a uniform placement for -device cape/cpu,
// the optimizer's per-operator placement for -device hybrid — through the
// shared execution path, then records and prints its accounting.
func (s *session) execute(qs *telemetry.Span, qsql string, phys *plan.Physical, pp *plan.PlacedPlan, cfg cape.Config, marks flightMarks) error {
	es := qs.Child("execute")
	execStart := time.Now()
	out, err := exec.Execute(context.Background(), pp, s.db, exec.RunOptions{
		CAPE: cfg, Catalog: s.cat, Fusion: true, Parallelism: s.parallel,
		Telemetry: s.tel, Span: es,
	})
	es.End()
	if err != nil {
		return s.flightFail(qsql, marks.start, err)
	}
	bd := out.Breakdown
	applyEstimateCells(bd, pp)
	s.recordFlight(qsql, out.Device, phys, bd, pp, len(out.Result.Rows), out.Cycles, marks, execStart)
	shape := ""
	if pp.FactDevice() == plan.DeviceCAPE {
		shape = phys.Shape().String()
	}
	s.countQuery(strings.ToLower(out.Device), out.Cycles, out.BytesMoved, shape, out.Seconds)

	switch {
	case s.device == "hybrid":
		fmt.Printf("== hybrid (%s)\n%s\n", out.Device, pp)
	case out.Device == "CAPE":
		fmt.Printf("== CAPE (%v)\n", cfg)
	default:
		fmt.Printf("== baseline (%v)\n", out.CPU.Config())
	}
	fmt.Print(out.Result.Format(s.db))
	if out.Device == "CAPE" {
		fmt.Printf("\n%v\n", out.Engine.Stats())
	}
	fmt.Printf("\ntotal=%d cycles (CAPE %d + CPU %d); wall time: %.3f ms; DRAM traffic: %.1f MB\n",
		out.Cycles, out.CAPECycles, out.CPUCycles, out.Seconds*1e3, float64(out.BytesMoved)/(1<<20))
	printParallel(out.Parallel)
	if s.analyze {
		fmt.Println("\nEXPLAIN ANALYZE:")
		fmt.Println(bd.Format())
	}
	return nil
}

// flightMarks carries the wall-clock boundaries of the shared planning
// phases so per-device flight records can attribute latency.
type flightMarks struct {
	start, parseEnd, bindEnd, optEnd time.Time
}

// flightFail records a post-mortem for a statement that never executed and
// passes the error through.
func (s *session) flightFail(qsql string, start time.Time, err error) error {
	wall := time.Since(start).Microseconds()
	s.flight.Record(telemetry.FlightRecord{
		SQL:         qsql,
		Fingerprint: telemetry.FingerprintSQL(qsql),
		Start:       start,
		WallMicros:  wall,
		Status:      "error",
		Error:       err.Error(),
		Phases:      []telemetry.FlightPhase{{Name: "total", Micros: wall}},
	})
	return err
}

// recordFlight retains one device execution as a flight record. The shared
// planning phases telescope from the statement's start; execute is measured
// from execStart so that under -device both the second engine's phase does
// not absorb the first engine's run (WallMicros is the phase sum, which for
// a single-device run equals end-to-end wall time).
func (s *session) recordFlight(qsql, device string, phys *plan.Physical, bd *telemetry.Breakdown, pred *plan.PlacedPlan, rows int, cycles int64, marks flightMarks, execStart time.Time) {
	p0 := marks.parseEnd.Sub(marks.start).Microseconds()
	p1 := marks.bindEnd.Sub(marks.start).Microseconds()
	p2 := marks.optEnd.Sub(marks.start).Microseconds()
	ex := time.Since(execStart).Microseconds()
	rec := telemetry.FlightRecord{
		SQL:         qsql,
		Fingerprint: telemetry.FingerprintSQL(qsql),
		Start:       marks.start,
		WallMicros:  p2 + ex,
		Status:      "ok",
		Device:      device,
		Plan:        fmt.Sprintf("%v", phys),
		RowCount:    rows,
		Cycles:      cycles,
		Phases: []telemetry.FlightPhase{
			{Name: "parse", Micros: p0},
			{Name: "bind", Micros: p1 - p0},
			{Name: "optimize", Micros: p2 - p1},
			{Name: "execute", Micros: ex},
		},
	}
	if pred != nil {
		rec.EstCycles = pred.EstCycles()
		rec.AltEstCycles = pred.AltEstCycles
	}
	rec.Ops = telemetry.FlightOps(bd)
	s.flight.Record(rec)
}

// showFlight implements \flight: with no argument it lists the retained
// records newest first; with a sequence number it prints that record's full
// post-mortem.
func (s *session) showFlight(arg string) {
	if arg == "" {
		recs := s.flight.Snapshot()
		if len(recs) == 0 {
			fmt.Println("no flight records yet (run a query first)")
			return
		}
		fmt.Printf("%4s  %-6s  %-9s  %12s  %12s  %10s  sql\n",
			"seq", "status", "device", "cycles", "est", "wall_ms")
		for _, r := range recs {
			sqlText := r.SQL
			if len(sqlText) > 48 {
				sqlText = sqlText[:45] + "..."
			}
			fmt.Printf("%4d  %-6s  %-9s  %12d  %12d  %10.3f  %s\n",
				r.Seq, r.Status, r.Device, r.Cycles, r.EstCycles,
				float64(r.WallMicros)/1e3, sqlText)
		}
		return
	}
	seq, err := strconv.ParseUint(arg, 10, 64)
	if err != nil {
		fmt.Fprintf(os.Stderr, "error: \\flight wants a sequence number, got %q\n", arg)
		return
	}
	rec, ok := s.flight.Get(seq)
	if !ok {
		fmt.Fprintf(os.Stderr, "error: no flight record #%d (evicted or never recorded)\n", seq)
		return
	}
	fmt.Print(rec.Format())
}

// printParallel reports the fact-sweep fan-out of the last run, when it
// actually parallelised (the sweep may clamp below the requested degree).
func printParallel(ps exec.ParallelStats) {
	if ps.Tiles <= 1 {
		return
	}
	fmt.Printf("parallel sweep: %d tiles; elapsed=%d work=%d merge=%d; per-tile=%v\n",
		ps.Tiles, ps.ElapsedCycles, ps.WorkCycles, ps.MergeCycles, ps.TileCycles)
}

// countQuery records run-level metrics for one device execution.
func (s *session) countQuery(device string, cycles, bytesMoved int64, shape string, seconds float64) {
	if s.tel == nil {
		return
	}
	reg := s.tel.Metrics()
	reg.Counter(telemetry.MetricQueries, "Queries executed.",
		telemetry.L("device", device)).Inc()
	reg.Counter(telemetry.MetricBytesMoved, "Simulated DRAM bytes moved in both directions.",
		telemetry.L("device", device)).Add(bytesMoved)
	if shape != "" {
		reg.Counter(telemetry.MetricPlanShapes, "Executed physical plan shapes.",
			telemetry.L("shape", shape)).Inc()
	}
	reg.Histogram(telemetry.MetricQueryCycles, "Simulated cycles per query.").
		Observe(float64(cycles))
	reg.Histogram(telemetry.MetricQuerySeconds, "Simulated seconds per query.").
		Observe(seconds)
}

func parseShape(s string) (plan.Shape, error) {
	switch s {
	case "left-deep":
		return plan.LeftDeep, nil
	case "right-deep":
		return plan.RightDeep, nil
	case "zig-zag", "zigzag":
		return plan.ZigZag, nil
	}
	return 0, fmt.Errorf("unknown shape %q (left-deep, right-deep, zig-zag)", s)
}

func sameOrder(a, b []plan.JoinEdge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Dim != b[i].Dim {
			return false
		}
	}
	return true
}

func dimNames(joins []plan.JoinEdge) []string {
	out := make([]string, len(joins))
	for i, j := range joins {
		out[i] = j.Dim
	}
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "castle: "+format+"\n", args...)
	os.Exit(1)
}

// applyEstimateCells attaches a placed plan's source-tagged per-operator
// predictions to an EXPLAIN ANALYZE breakdown.
func applyEstimateCells(bd *telemetry.Breakdown, pp *plan.PlacedPlan) {
	cells := pp.EstimateCells()
	tc := make(map[string]telemetry.EstimateCell, len(cells))
	for k, c := range cells {
		tc[k] = telemetry.EstimateCell{Cycles: c.Cycles, Source: c.Source}
	}
	bd.ApplyEstimateCells(tc)
}
