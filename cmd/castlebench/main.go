// Command castlebench is Castle's benchmark: four workloads that measure
// both of Castle's clocks, simulated cycles and host time, end to end and
// layer by layer. Every answer is checked against an oracle.
//
// Usage:
//
//	go run . -workload sim-cape -seed 1 -seconds 20
//	go run . -workload all -seed 2 -trace 1
//
// Each workload prints its detail, its metrics by name, value and unit,
// and as its last line one JSON object:
//
//	{"correct":true,"attempted":812,"failed":0,"metrics":{"p50_ms":{"value":24.1,"unit":"ms"},...}}
//
// The untraced run (-trace 0) reports the end-to-end metrics. The traced
// run (-trace 1, or -trace DIR) times calls into each layer's public
// functions from outside, writes the spans as a Chrome trace and reports the
// per-layer metrics instead. See README.md for what each number means.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// buildDir is where a run keeps its scratch files and, by default, its
// traces: the directory the benchmark's build already uses.
const buildDir = ".bench_build"

// benchSF is the SSB scale factor: 120,000 lineorder rows, small enough for
// a CAPE query to take tens of milliseconds of host time.
const benchSF = 0.02

func main() {
	workload := flag.String("workload", "", "sim-cape, adhoc-ingest, serve-mix, serve-hot or all")
	seed := flag.Uint64("seed", 1, "workload seed: query order, arrival times and literals (the data seed is fixed)")
	seconds := flag.Int("seconds", 20, "seconds each run measures")
	trace := flag.String("trace", "0", `"0": untraced run; "1": traced run, trace written under `+buildDir+`; other: traced run, trace written to that directory`)
	flag.Parse()

	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	for _, n := range names {
		if !slices.Contains(workloadNames, n) {
			fmt.Fprintf(os.Stderr, "castlebench: unknown workload %q (want one of %v or all)\n", n, workloadNames)
			os.Exit(2)
		}
	}
	if *seconds < 1 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "castlebench: -seconds must be >= 1, and there are no positional arguments")
		os.Exit(2)
	}
	cfg := config{seed: *seed, sf: benchSF, window: time.Duration(*seconds) * time.Second}
	switch *trace {
	case "0":
	case "1":
		cfg.trace, cfg.traceDir = true, filepath.Join(buildDir, "castlebench-trace")
	default:
		cfg.trace, cfg.traceDir = true, *trace
	}

	err := os.MkdirAll(buildDir, 0o755)
	work := ""
	if err == nil {
		work, err = os.MkdirTemp(buildDir, "castlebench-")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "castlebench:", err)
		os.Exit(2)
	}
	code := 0
	for _, n := range names {
		cfg.workload, cfg.workDir = n, work
		if c := runOne(os.Stdout, cfg); c > code {
			code = c
		}
	}
	os.RemoveAll(work)
	os.Exit(code)
}

// runOne runs one workload and prints its report. It returns the exit
// code: 0 when every answer was right, 1 on a wrong answer, 2 when the run
// could not complete (nothing is printed on stdout then).
func runOne(w io.Writer, cfg config) int {
	r, err := bench(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "castlebench: %s: %v\n", cfg.workload, err)
		return 2
	}
	res := r.result()
	fmt.Fprintf(w, "castlebench %s seed=%d sf=%g seconds=%g trace=%v gomaxprocs=%d\n",
		cfg.workload, cfg.seed, cfg.sf, cfg.window.Seconds(), cfg.trace, runtime.GOMAXPROCS(0))
	for _, n := range r.notes {
		fmt.Fprintln(w, "  "+n)
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "  FAILED: "+p)
	}
	for _, m := range r.declared() {
		fmt.Fprintf(w, "%-34s %16.6f %s\n", m.Name, res.Metrics[m.Name].Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "castlebench: %s: %v\n", cfg.workload, err)
		return 2
	}
	fmt.Fprintln(w, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the machine-readable line a run ends with.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// declared is the metric list this run reports: end-to-end when untraced,
// per-layer when traced.
func (r *run) declared() []metric {
	if r.cfg.trace {
		return perLayer()
	}
	return endToEnd
}

func (r *run) result() result {
	res := result{Correct: r.wrong == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]value)}
	for _, m := range r.declared() {
		v, ok := r.metrics[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			// A missing or non-finite metric is a benchmark bug; fail the run.
			r.notef("metric %s was not measured", m.Name)
			res.Correct = false
			v = 0
		}
		res.Metrics[m.Name] = value{Value: v, Unit: m.Unit}
	}
	return res
}
