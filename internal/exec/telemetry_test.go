package exec

import (
	"context"
	"strings"
	"testing"

	"castle/internal/baseline"
	"castle/internal/cape"
	"castle/internal/isa"
	"castle/internal/plan"
	"castle/internal/ssb"
	"castle/internal/telemetry"
)

// ssbQ4SQL is a 3-join, grouped SSB query (Q2.1) — the fixed query the
// telemetry acceptance checks run against.
func ssbQ4SQL(t *testing.T) string {
	t.Helper()
	for _, q := range ssb.Queries() {
		if q.Num == 4 {
			return q.SQL
		}
	}
	t.Fatal("SSB query 4 missing")
	return ""
}

// TestEngineHookMatchesStatsExactly is the metrics-exactness gate: after a
// full SSB query the Prometheus class-cycle counters must equal the
// engine's own Stats pools cycle-for-cycle, because both are fed by the
// same centralized charge paths.
func TestEngineHookMatchesStatsExactly(t *testing.T) {
	database, cat := db(t)
	q := bindQuery(t, database, ssbQ4SQL(t))
	cfg := smallCape().WithEnhancements()
	p := optimize(t, q, cat, cfg.MAXVL)

	tel := telemetry.New()
	eng := cape.New(cfg)
	AttachEngineTelemetry(eng, tel)
	c := NewCastle(eng, cat, DefaultCastleOptions())
	root := tel.StartSpan("query")
	c.SetTelemetry(tel, root)
	c.Run(p, database)
	root.End()

	st := eng.Stats()
	reg := tel.Metrics()
	var hookCSB int64
	for cl := isa.Class(0); cl < isa.NumClasses; cl++ {
		got := reg.CounterValue(telemetry.MetricCSBCycles, telemetry.L("class", cl.String()))
		if got != st.CSBCyclesByClass[cl] {
			t.Errorf("class %v: counter %d != stats %d", cl, got, st.CSBCyclesByClass[cl])
		}
		hookCSB += got
	}
	if hookCSB != st.CSBCycles {
		t.Errorf("summed class counters %d != CSBCycles %d", hookCSB, st.CSBCycles)
	}
	if got := reg.CounterValue(telemetry.MetricCPCycles); got != st.CPCycles {
		t.Errorf("CP counter %d != stats %d", got, st.CPCycles)
	}
	if got := reg.CounterValue(telemetry.MetricMemCycles); got != st.MemCycles {
		t.Errorf("mem counter %d != stats %d", got, st.MemCycles)
	}

	// The breakdown's books must close: operator rows partition the total.
	b := c.Breakdown()
	if b == nil || b.Device != "CAPE" {
		t.Fatalf("breakdown missing: %+v", b)
	}
	if b.TotalCycles != st.TotalCycles() {
		t.Errorf("breakdown total %d != stats total %d", b.TotalCycles, st.TotalCycles())
	}
	if b.SumCycles() != b.TotalCycles {
		t.Errorf("operator cycles sum %d != total %d\n%s", b.SumCycles(), b.TotalCycles, b.Format())
	}

	// Per-join cycles must agree with the join operator rows, and the
	// accessor must hand out a defensive copy.
	pj := c.PerJoinCycles()
	for _, o := range b.Operators {
		if dim, ok := strings.CutPrefix(o.Operator, "join:"); ok {
			if pj[dim] != o.Cycles {
				t.Errorf("join %s: per-join %d != breakdown %d", dim, pj[dim], o.Cycles)
			}
		}
	}
	pj["date"] = -1
	if c.PerJoinCycles()["date"] == -1 {
		t.Error("PerJoinCycles aliases internal state")
	}
}

// TestCastleSpanTree pins the shape of the executor's span tree for a fixed
// SSB query: prep spans per dimension, a fact-sweep with per-partition
// filter/join/aggregate children, all rooted under the caller's span.
func TestCastleSpanTree(t *testing.T) {
	database, cat := db(t)
	q := bindQuery(t, database, ssbQ4SQL(t))
	cfg := smallCape().WithEnhancements()
	p := optimize(t, q, cat, cfg.MAXVL)

	tel := telemetry.New()
	eng := cape.New(cfg)
	c := NewCastle(eng, cat, DefaultCastleOptions())
	root := tel.StartSpan("query")
	c.SetTelemetry(tel, root)
	c.Run(p, database)
	root.End()

	spans := tel.Trace().Spans()
	byName := map[string][]telemetry.SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
	}
	rootRec := byName["query"][0]
	for _, e := range p.Joins {
		prep, ok := byName["prep:"+e.Dim]
		if !ok || prep[0].Parent != rootRec.ID {
			t.Fatalf("prep span for %s missing or misparented", e.Dim)
		}
		if _, ok := prep[0].Int("cycles"); !ok {
			t.Errorf("prep:%s missing cycles attr", e.Dim)
		}
		joins := byName["join:"+e.Dim]
		if len(joins) == 0 {
			t.Fatalf("no join spans for %s", e.Dim)
		}
		if joins[0].Root != rootRec.ID {
			t.Errorf("join:%s not in the query tree", e.Dim)
		}
	}
	sweeps := byName["fact-sweep"]
	if len(sweeps) != 1 || sweeps[0].Parent != rootRec.ID {
		t.Fatalf("fact-sweep span wrong: %+v", sweeps)
	}
	// Multiple partitions at MAXVL=4096 ⇒ one filter/aggregate span each.
	parts, _ := sweeps[0].Int("partitions")
	if parts < 2 {
		t.Fatalf("expected multiple partitions, got %d", parts)
	}
	if int64(len(byName["filter"])) != parts || int64(len(byName["aggregate"])) != parts {
		t.Fatalf("filter=%d aggregate=%d spans, want %d each",
			len(byName["filter"]), len(byName["aggregate"]), parts)
	}
	for _, f := range byName["filter"] {
		if f.Parent != sweeps[0].ID {
			t.Fatal("filter span misparented")
		}
	}
}

// TestCPUTelemetry checks the baseline executor's mirror instrumentation:
// the cycle counter tracks cpu.Cycles() (whole-cycle accumulation of the
// fractional charges) and the breakdown reconciles.
func TestCPUTelemetry(t *testing.T) {
	database, _ := db(t)
	q := bindQuery(t, database, ssbQ4SQL(t))

	tel := telemetry.New()
	cpu := baseline.New(baseline.DefaultConfig())
	AttachCPUTelemetry(cpu, tel)
	x := NewCPUExec(cpu)
	root := tel.StartSpan("query")
	x.SetTelemetry(tel, root)
	x.Run(q, database)
	root.End()

	got := tel.Metrics().CounterValue(telemetry.MetricCPUCycles)
	if diff := cpu.Cycles() - got; diff < 0 || diff > 1 {
		t.Errorf("cpu counter %d vs cycles %d (diff %d)", got, cpu.Cycles(), diff)
	}

	b := x.Breakdown()
	if b == nil || b.Device != "CPU" {
		t.Fatalf("breakdown missing: %+v", b)
	}
	if b.SumCycles() != b.TotalCycles || b.TotalCycles != cpu.Cycles() {
		t.Errorf("sum=%d total=%d cycles=%d\n%s", b.SumCycles(), b.TotalCycles, cpu.Cycles(), b.Format())
	}

	// Span-for-span comparison with CAPE: same operator vocabulary.
	names := map[string]bool{}
	for _, s := range tel.Trace().Spans() {
		names[s.Name] = true
	}
	for _, want := range []string{"filter", "aggregate"} {
		if !names[want] {
			t.Errorf("missing %s span", want)
		}
	}
	for _, e := range q.Joins {
		if !names["prep:"+e.Dim] || !names["join:"+e.Dim] {
			t.Errorf("missing prep/join spans for %s", e.Dim)
		}
	}

	pj := x.PerJoinCycles()
	pj["date"] = -1
	if x.PerJoinCycles()["date"] == -1 {
		t.Error("PerJoinCycles aliases internal state")
	}
}

// TestTelemetryDisabledIsInert: with no telemetry attached the executors
// still produce correct results and a breakdown, and nothing panics.
func TestTelemetryDisabledIsInert(t *testing.T) {
	database, cat := db(t)
	q := bindQuery(t, database, ssbQ4SQL(t))
	cfg := smallCape().WithEnhancements()
	p := optimize(t, q, cat, cfg.MAXVL)

	eng := cape.New(cfg)
	AttachEngineTelemetry(eng, nil) // explicit detach path
	c := NewCastle(eng, cat, DefaultCastleOptions())
	c.SetTelemetry(nil, nil)
	res := c.Run(p, database)
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	if b := c.Breakdown(); b == nil || b.SumCycles() != b.TotalCycles {
		t.Fatalf("breakdown should reconcile without telemetry: %+v", b)
	}

	cpu := baseline.New(baseline.DefaultConfig())
	AttachCPUTelemetry(cpu, nil)
	x := NewCPUExec(cpu)
	res = x.Run(q, database)
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	if b := x.Breakdown(); b == nil || b.SumCycles() != b.TotalCycles {
		t.Fatalf("cpu breakdown should reconcile without telemetry: %+v", b)
	}
}

// TestHybridTelemetryForwards: the driver forwards the sink to whichever
// executor the whole-query router picks, so both engines emit the same span
// vocabulary.
func TestHybridTelemetryForwards(t *testing.T) {
	database, cat := db(t)
	q := bindQuery(t, database, ssbQ4SQL(t))
	cfg := smallCape().WithEnhancements()
	p := optimize(t, q, cat, cfg.MAXVL)

	tel := telemetry.New()
	root := tel.StartSpan("query")
	dev := DecideDevice(p, cat, cfg, 0, 0)
	out, err := Execute(context.Background(), plan.Compile(p, dev), database,
		RunOptions{CAPE: cfg, Catalog: cat, Fusion: true, Telemetry: tel, Span: root})
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	if b := out.Breakdown; b == nil || b.SumCycles() != b.TotalCycles || b.TotalCycles != out.Cycles {
		t.Fatalf("hybrid breakdown (%v) should reconcile with %d cycles: %+v", dev, out.Cycles, b)
	}
	if out.Device != dev.String() {
		t.Fatalf("outcome device %s, routed to %v", out.Device, dev)
	}
	found := false
	for _, s := range tel.Trace().Spans() {
		if s.Name == "aggregate" {
			found = true
		}
	}
	if !found {
		t.Fatal("no operator spans recorded through the hybrid path")
	}
}
