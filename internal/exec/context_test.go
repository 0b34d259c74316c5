package exec

// context_test.go verifies cancellation semantics: a context canceled while
// the simulated engines are mid-query surfaces context.Canceled at the next
// operator boundary, and the executors stay usable afterwards.

import (
	"context"
	"errors"
	"testing"

	"castle/internal/baseline"
	"castle/internal/cape"
	"castle/internal/isa"
	"castle/internal/plan"
)

const ctxTestQuery = `SELECT SUM(lo_revenue), d_year, p_brand1
FROM lineorder, date, part, supplier
WHERE lo_orderdate = d_datekey AND lo_partkey = p_partkey
AND lo_suppkey = s_suppkey AND p_category = 'MFGR#12' AND s_region = 'AMERICA'
GROUP BY d_year, p_brand1`

// cancelHook cancels a context after the first cycle charge, simulating a
// client that goes away while the engine is busy.
type cancelHook struct {
	cancel context.CancelFunc
}

func (h *cancelHook) CSBCycles(isa.Class, int64) { h.cancel() }
func (h *cancelHook) CPCycles(int64)             { h.cancel() }
func (h *cancelHook) MemCycles(int64)            { h.cancel() }

func TestCastleRunContextCanceledMidQuery(t *testing.T) {
	database, cat := db(t)
	p := optimize(t, bindQuery(t, database, ctxTestQuery), cat, 4096)

	eng := cape.New(smallCape().WithEnhancements())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	eng.AttachCycleHook(&cancelHook{cancel: cancel})

	c := NewCastle(eng, cat, DefaultCastleOptions())
	res, err := c.RunContext(ctx, p, database)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got res=%v err=%v", res, err)
	}

	// A fresh engine and live context must still produce the query result:
	// cancellation leaves no shared state behind.
	eng2 := cape.New(smallCape().WithEnhancements())
	c2 := NewCastle(eng2, cat, DefaultCastleOptions())
	res2, err := c2.RunContext(context.Background(), p, database)
	if err != nil || len(res2.Rows) == 0 {
		t.Fatalf("post-cancel rerun: rows=%v err=%v", res2, err)
	}
}

func TestCPURunContextCanceledMidQuery(t *testing.T) {
	database, cat := db(t)
	q := bindQuery(t, database, ctxTestQuery)

	cpu := baseline.New(baseline.DefaultConfig())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cpu.AttachCycleHook(func(float64) { cancel() })

	x := NewCPUExec(cpu)
	res, err := x.RunContext(ctx, q, database)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got res=%v err=%v", res, err)
	}

	x2 := NewCPUExec(baseline.New(baseline.DefaultConfig()))
	res2, err := x2.RunContext(context.Background(), q, database)
	if err != nil || len(res2.Rows) == 0 {
		t.Fatalf("post-cancel rerun: rows=%v err=%v", res2, err)
	}
	_ = cat
}

func TestRunContextPreCanceled(t *testing.T) {
	database, cat := db(t)
	p := optimize(t, bindQuery(t, database, ctxTestQuery), cat, 4096)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	c := NewCastle(cape.New(smallCape()), cat, DefaultCastleOptions())
	if _, err := c.RunContext(ctx, p, database); !errors.Is(err, context.Canceled) {
		t.Fatalf("castle: want context.Canceled, got %v", err)
	}
	x := NewCPUExec(baseline.New(baseline.DefaultConfig()))
	if _, err := x.RunContext(ctx, p.Query, database); !errors.Is(err, context.Canceled) {
		t.Fatalf("cpu: want context.Canceled, got %v", err)
	}
	pp := plan.Compile(p, DecideDevice(p, cat, smallCape(), 0, 0))
	if _, err := Execute(ctx, pp, database, RunOptions{CAPE: smallCape(), Catalog: cat, Fusion: true}); !errors.Is(err, context.Canceled) {
		t.Fatalf("hybrid: want context.Canceled, got %v", err)
	}
}

func TestDecideDeviceThresholds(t *testing.T) {
	database, cat := db(t)
	// Group by d_year only (~7 groups): CAPE territory at the defaults.
	small := optimize(t, bindQuery(t, database, `SELECT SUM(lo_revenue), d_year
FROM lineorder, date WHERE lo_orderdate = d_datekey GROUP BY d_year`), cat, 4096)
	if dev := DecideDevice(small, cat, smallCape(), 0, 0); dev != DeviceCAPE {
		t.Fatalf("default thresholds: want CAPE, got %v", dev)
	}
	if dev := DecideDevice(small, cat, smallCape(), 1, 0); dev != DeviceCPU {
		t.Fatalf("groupThreshold=1: want CPU, got %v", dev)
	}
	if dev := DecideDevice(small, cat, smallCape(), 0, 1); dev != DeviceCPU {
		t.Fatalf("dimThreshold=1: want CPU, got %v", dev)
	}
	// Q2.1 estimates ~7000 groups (7 years x ~1000 brands), past the
	// Figure 12 crossover: hybrid routing sends it to the CPU.
	big := optimize(t, bindQuery(t, database, ctxTestQuery), cat, 4096)
	if dev := DecideDevice(big, cat, smallCape(), 0, 0); dev != DeviceCPU {
		t.Fatalf("large-group query: want CPU, got %v", dev)
	}
}
