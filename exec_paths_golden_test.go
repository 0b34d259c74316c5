package castle_test

// exec_paths_golden_test.go pins the simulated accounting of every execution
// path as a sorted, deterministic record: one line per (query, path,
// parallelism, MAXVL) with the run-level metrics, and one line per
// breakdown row. Any refactor of the execution layer must leave the record
// byte-identical unless it sets out to change the cycle model. Regenerate
// with `go test . -run TestExecPathsGolden -update`.

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	castle "castle"
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

var updateGolden = flag.Bool("update", false, "rewrite golden execution records")

const (
	goldenSF   = 0.01
	goldenSeed = 20260704
)

// goldenPaths are the facade execution paths the record covers.
var goldenPaths = []struct {
	name string
	opt  castle.Options
}{
	{"cape", castle.Options{Device: castle.DeviceCAPE}},
	{"cpu", castle.Options{Device: castle.DeviceCPU}},
	{"hybrid", castle.Options{Device: castle.DeviceHybrid}},
	{"perop", castle.Options{Device: castle.DeviceHybrid, Placement: castle.PlacementPerOperator}},
	{"perop-stream", castle.Options{Device: castle.DeviceHybrid, Placement: castle.PlacementPerOperator, Streaming: true}},
	{"perop-adaptive", castle.Options{Device: castle.DeviceHybrid, Placement: castle.PlacementPerOperator, AdaptivePlacement: true}},
}

// goldenRecord accumulates record lines; sorted on output so the record is
// independent of iteration order.
type goldenRecord struct{ lines []string }

func (r *goldenRecord) add(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// breakdown appends one line per operator row, prefixed with the run key
// and the row's position so sorting keeps execution order.
func (r *goldenRecord) breakdown(key string, b *telemetry.Breakdown) {
	if b == nil {
		r.add("%s row -- none", key)
		return
	}
	r.add("%s row -- device=%s total=%d", key, b.Device, b.TotalCycles)
	for i, o := range b.Operators {
		r.add("%s row %02d %s dev=%s cycles=%d rows=%d est=%d src=%s",
			key, i, o.Operator, o.Device, o.Cycles, o.Rows, o.EstCycles, o.EstSource)
	}
}

func fmtFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func TestExecPathsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full execution-path record skipped in -short mode")
	}
	db := castle.GenerateSSB(goldenSF, goldenSeed)
	store := ssb.Generate(ssb.Config{SF: goldenSF, Seed: goldenSeed})
	cat := stats.Collect(store)
	defaultVL := cape.DefaultConfig().MAXVL

	rec := &goldenRecord{}
	for _, q := range castle.SSBQueries() {
		for _, k := range []int{1, 4} {
			for _, vl := range []int{defaultVL, 4096} {
				for _, p := range goldenPaths {
					opt := p.opt
					opt.Parallelism = k
					opt.MAXVL = vl
					key := fmt.Sprintf("%s %-14s K=%d vl=%d", q.Flight, p.name, k, vl)
					_, m, err := db.QueryWith(q.SQL, opt)
					if err != nil {
						t.Fatalf("%s: %v", key, err)
					}
					recordMetrics(rec, key, m)
				}
				recordForcedMixed(t, rec, store, cat, q, k, vl)
			}
		}
	}
	sort.Strings(rec.lines)
	got := strings.Join(rec.lines, "\n") + "\n"

	path := filepath.Join("testdata", "exec_paths.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("execution record diverged from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("execution record diverged from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}

// recordMetrics writes a facade run's metrics line and breakdown rows.
func recordMetrics(rec *goldenRecord, key string, m *castle.Metrics) {
	rec.add("%s run cycles=%d seconds=%s bytes=%d device=%s est=%d alt=%d altok=%v replaced=%v",
		key, m.Cycles, fmtFloat(m.Seconds), m.BytesMoved, m.DeviceUsed,
		m.EstCycles, m.AltEstCycles, m.AltFeasible, m.Replaced)
	rec.add("%s stream batches=%d peak=%d overlap=%d",
		key, m.StreamBatches, m.PeakBatchBytes, m.XferOverlapCycles)
	ps := m.Parallel
	rec.add("%s parallel tiles=%d tile_cycles=%v tile_rows=%v merge=%d elapsed=%d work=%d",
		key, ps.Tiles, ps.TileCycles, ps.TileRows, ps.MergeCycles, ps.ElapsedCycles, ps.WorkCycles)
	if a := m.Adaptive; a != nil {
		rec.add("%s adaptive est=%d observed=%d div=%s fired=%v replaced=%v tail=%s",
			key, a.EstSurvivors, a.Observed, fmtFloat(a.DivergencePct), a.Fired, a.Replaced, a.TailDevice)
	}
	rec.add("%s plan %q", key, m.Plan)
	rec.breakdown(key, m.Breakdown)
}

// recordForcedMixed runs both forced mixed directions (CAPE fact -> CPU tail
// and CPU fact -> CAPE tail) straight through exec.Placed: materializing,
// streaming, and adaptive with a checkpoint that always fires and moves the
// tail back onto the fact device.
func recordForcedMixed(t *testing.T, rec *goldenRecord, store *storage.Database, cat *stats.Catalog, q castle.SSBQuery, k, vl int) {
	t.Helper()
	stmt, err := sql.Parse(q.SQL)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := plan.Bind(stmt, store)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cape.DefaultConfig().WithEnhancements()
	cfg.MAXVL = vl
	phys, err := optimizer.Optimize(bound, cat, vl)
	if err != nil {
		t.Fatal(err)
	}
	for _, factDev := range []plan.Device{plan.DeviceCAPE, plan.DeviceCPU} {
		aggDev := plan.DeviceCPU
		if factDev == plan.DeviceCPU {
			aggDev = plan.DeviceCAPE
		}
		for _, mode := range []string{"mat", "stream", "adaptive"} {
			pp := plan.Compile(phys, factDev).Place(factDev, aggDev, nil)
			x := exec.NewPlaced(
				exec.NewCastle(cape.New(cfg), cat, exec.DefaultCastleOptions()),
				exec.NewCPUExec(baseline.New(baseline.DefaultConfig())), cat)
			x.SetParallelism(k)
			x.SetStreaming(mode == "stream")
			key := fmt.Sprintf("%s mixed-%s-%-8s K=%d vl=%d", q.Flight, factDev, mode, k, vl)
			if mode == "adaptive" {
				_, ast, err := x.RunAdaptiveContext(context.Background(), pp, store, exec.AdaptiveOptions{
					EstSurvivors: 1 << 40,
					Replan:       func(int64) plan.Device { return factDev },
				})
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				rec.add("%s adaptive est=%d observed=%d div=%s fired=%v replaced=%v tail=%s",
					key, ast.EstSurvivors, ast.Observed, fmtFloat(ast.DivergencePct), ast.Fired, ast.Replaced, ast.TailDevice)
			} else if _, err := x.RunContext(context.Background(), pp, store); err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			capeCy, cpuCy := x.DeviceCycles()
			st := x.StreamStats()
			rec.add("%s run cape=%d cpu=%d batches=%d peak=%d overlap=%d",
				key, capeCy, cpuCy, st.Batches, st.PeakBatchBytes, st.OverlapCycles)
			rec.breakdown(key, x.Breakdown())
		}
	}
}
