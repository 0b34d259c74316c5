// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -sf 1 -run all
//	experiments -sf 0.1 -run fig6,fig10
//	experiments -run table1,table2,fig5          # no data generation needed
//	experiments -sf 0.005 -diff 50               # differential fuzz campaign
//	experiments -sf 0.01 -bench-json bench.json  # deterministic cycle report
//
// Available experiments: suite, fig1, fig5, fig6, fig7, fig10, fig11,
// fig12, selection, mks, datamovement, fusion, aba, codebases, power,
// pim, perjoin, ordersensitivity, table1, table2, all.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"castle/internal/diffcheck"
	"castle/internal/experiments"
)

func main() {
	sf := flag.Float64("sf", 1.0, "SSB scale factor (SF 1 = 6M-row lineorder, the paper's setting)")
	runList := flag.String("run", "all", "comma-separated experiments to run")
	quick := flag.Bool("quick", false, "shrink microbenchmark sweeps for a fast pass")
	benchJSON := flag.String("bench-json", "", "write the benchmark report (geomean, per-query cycles, scaling, cluster, streaming, misestimate and adaptive curves) as JSON to this path and exit")
	diffN := flag.Int("diff", 0, "run a differential fuzz campaign of N random queries (reference vs CAPE vs CPU at K=1,4) and exit; nonzero exit on any mismatch")
	diffSeed := flag.Int64("diff-seed", 1, "base query seed for -diff (queries use seeds base..base+N-1)")
	diffOut := flag.String("diff-out", "DIFF_REPRO.txt", "where -diff writes the shrunk reproducer on failure")
	flag.Parse()

	if *diffN > 0 {
		runDiff(*sf, *diffN, *diffSeed, *diffOut)
		return
	}

	if *benchJSON != "" {
		fmt.Printf("benchmarking at SF=%.2f (suite + scaling, cluster, streaming, misestimate and adaptive curves)...\n", *sf)
		rep := experiments.RunBench(*sf)
		f, err := os.Create(*benchJSON)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		err = rep.WriteBenchJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: writing %s: %v\n", *benchJSON, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (geomean speedup %.2fx)\n", *benchJSON, rep.GeomeanSpeedup)
		return
	}

	want := map[string]bool{}
	for _, s := range strings.Split(*runList, ",") {
		want[strings.TrimSpace(strings.ToLower(s))] = true
	}
	all := want["all"]
	need := func(names ...string) bool {
		if all {
			return true
		}
		for _, n := range names {
			if want[n] {
				return true
			}
		}
		return false
	}

	out := os.Stdout

	if need("table1") {
		experiments.RenderTable1(out)
		fmt.Fprintln(out)
	}
	if need("table2") {
		experiments.RenderTable2(out)
		fmt.Fprintln(out)
	}
	if need("fig5") {
		experiments.RenderFig5(out)
		fmt.Fprintln(out)
	}

	needsSuite := need("suite", "fig1", "fig6", "fig7", "fig10", "datamovement")
	needsRunner := needsSuite || need("mks", "fusion", "aba", "codebases", "power", "pim", "perjoin", "ordersensitivity")

	var r *experiments.Runner
	if needsRunner {
		fmt.Fprintf(out, "generating SSB at SF=%.2f...\n", *sf)
		r = experiments.NewRunner(*sf)
	}

	if needsSuite {
		fmt.Fprintln(out, "running the 13-query suite across all tiers (results cross-checked)...")
		results := r.RunSuite()
		experiments.RenderSuiteSummary(out, *sf, results)
		if need("fig1") {
			experiments.RenderFig1(out, results)
			fmt.Fprintln(out)
		}
		if need("fig6") {
			experiments.RenderFig6(out, results)
			fmt.Fprintln(out)
		}
		if need("fig7") {
			experiments.RenderFig7(out, results)
			fmt.Fprintln(out)
		}
		if need("fig10") {
			experiments.RenderFig10(out, results)
			fmt.Fprintln(out)
		}
		if need("datamovement") {
			experiments.RenderDataMovement(out, experiments.DataMovementSweep(results))
			fmt.Fprintln(out)
		}
	}

	if need("fig11") {
		facts := []int{1_000_000, 10_000_000}
		dims := []int{100, 1_000, 10_000, 30_000, 100_000, 250_000, 1_000_000}
		if *quick {
			facts = []int{1_000_000}
			dims = []int{100, 10_000, 250_000}
		}
		series := map[int][]experiments.MicroPoint{}
		for _, f := range facts {
			series[f] = experiments.JoinMicro(f, dims)
		}
		experiments.RenderFig11(out, series)
		fmt.Fprintln(out)
	}

	if need("fig12") {
		rows := []int{1_000_000, 10_000_000, 20_000_000}
		groups := []int{10, 100, 1_000, 5_000, 10_000, 100_000, 1_000_000}
		if *quick {
			rows = []int{1_000_000}
			groups = []int{10, 1_000, 100_000}
		}
		series := map[int][]experiments.MicroPoint{}
		for _, n := range rows {
			series[n] = experiments.AggregationMicro(n, groups)
		}
		experiments.RenderFig12(out, series)
		fmt.Fprintln(out)
	}

	if need("selection") {
		rows := []int{1_000, 100_000, 10_000_000, 100_000_000}
		sels := []int{1, 10, 50, 90}
		if *quick {
			rows = []int{100_000, 10_000_000}
			sels = []int{1, 50}
		}
		experiments.RenderSelection(out, experiments.SelectionMicro(rows, sels))
		fmt.Fprintln(out)
	}

	if need("mks") {
		experiments.RenderMKSBuffer(out, r.MKSBufferSweep([]int{64, 512, 2048}))
		fmt.Fprintln(out)
	}
	if need("fusion") {
		experiments.RenderFusion(out, r.RunFusionAblation())
		fmt.Fprintln(out)
	}
	if need("aba") {
		experiments.RenderABADiscovery(out, r.RunABADiscoveryAblation())
		fmt.Fprintln(out)
	}
	if need("codebases") {
		experiments.RenderCodebases(out, r.RunCodebaseComparison())
		fmt.Fprintln(out)
	}
	if need("perjoin") {
		pts, overall := r.RunPerJoinStudy(10) // Q3.4, the paper's example
		experiments.RenderPerJoin(out, 10, pts, overall)
		fmt.Fprintln(out)
	}
	if need("ordersensitivity") {
		experiments.RenderOrderSensitivity(out, 11, r.RunOrderSensitivity(11))
		fmt.Fprintln(out)
	}
	if need("pim") {
		experiments.RenderPIM(out, r.RunPIMStudy())
		fmt.Fprintln(out)
	}
	if need("power") {
		pts := []experiments.PowerComparison{}
		for _, n := range []int{1, 4, 7, 11} {
			pts = append(pts, r.RunPowerComparison(n))
		}
		experiments.RenderPower(out, pts)
		fmt.Fprintln(out)
	}
}

// runDiff is the -diff mode: a differential fuzz campaign over freshly
// generated SSB data. On a mismatch the shrunk reproducer is written to
// diffOut and the process exits 1; the report names the seed, so
// `diffcheck.NewSSB(sf, 42).Generate(seed)` replays it exactly.
func runDiff(sf float64, n int, base int64, diffOut string) {
	fmt.Printf("differential campaign: %d queries at SF=%.3f, seeds %d..%d, K in {1,4}\n",
		n, sf, base, base+int64(n)-1)
	c := diffcheck.NewSSB(sf, 42)
	m := c.Campaign(n, base, diffcheck.DefaultOptions(), func(done int) {
		if done%25 == 0 {
			fmt.Printf("  %d/%d ok\n", done, n)
		}
	})
	if m == nil {
		fmt.Printf("all %d queries agree across reference, CPU, and CAPE\n", n)
		return
	}
	fmt.Fprintf(os.Stderr, "MISMATCH:\n%s\n", m)
	f, err := os.Create(diffOut)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: writing repro: %v\n", err)
		os.Exit(1)
	}
	m.WriteReport(f)
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: writing repro: %v\n", err)
	}
	fmt.Fprintf(os.Stderr, "shrunk reproducer written to %s\n", diffOut)
	os.Exit(1)
}
