package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestWorkloadsSmoke runs every workload briefly on tiny data: nothing may
// fail and every declared metric must be reported. The traced run is
// exercised on one closed-loop and one serve workload (the other two run
// the same traced code on another device or server setting), and must
// write a Chrome trace.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			if traced && w != simCape && w != serveHot {
				continue
			}
			t.Run(fmt.Sprintf("%s/traced=%v", w, traced), func(t *testing.T) {
				t.Parallel()
				dir := t.TempDir()
				cfg := config{workload: w, seed: 3, sf: 0.001, window: time.Second / 2,
					trace: traced, traceDir: filepath.Join(dir, "trace"), workDir: dir}
				r, err := bench(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				res := r.result()
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %v",
						res.Correct, res.Attempted, res.Failed, r.problems)
				}
				if len(res.Metrics) != len(r.declared()) {
					t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(r.declared()))
				}
				if traced {
					checkChromeTrace(t, filepath.Join(cfg.traceDir, "castlebench-"+w+"-seed3.json"))
				}
			})
		}
	}
}

func checkChromeTrace(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &tr); err != nil {
		t.Fatalf("%s: not JSON: %v", path, err)
	}
	names := make(map[string]bool)
	for _, e := range tr.TraceEvents {
		if e.Ph != "X" || e.Dur < 0 {
			t.Fatalf("%s: bad event %+v", path, e)
		}
		names[e.Name] = true
	}
	for _, n := range []string{"sql.Parse", "plan.Bind", "optimizer.Optimize", "cape.exec Q1.1", "cpu.exec Q4.3", "storage.ReadCSV", "stats.Collect"} {
		if !names[n] {
			t.Errorf("%s: no %q span", path, n)
		}
	}
}

// TestBenchmarkJSONDeclaresTheCatalog keeps BENCHMARK.json and the metrics
// this program reports in step.
func TestBenchmarkJSONDeclaresTheCatalog(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(decl.Workloads), len(workloadNames))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloadNames[i])
		}
	}
	same := func(kind string, a, b []metric) {
		if len(a) != len(b) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the program %d", kind, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, a[i], b[i])
			}
		}
	}
	same("end_to_end", decl.EndToEnd, endToEnd)
	same("per_layer", decl.PerLayer, perLayer())
}
