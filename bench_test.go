package castle_test

// bench_test.go regenerates every table and figure of the paper's
// evaluation as Go benchmarks. Each benchmark exercises the experiment's
// code path per iteration and reports the paper-relevant metric via
// b.ReportMetric (speedups as "x", cost-model counts as exact values), so
//
//	go test -bench=. -benchmem
//
// both measures the simulator and prints the reproduced results. The SSB
// suite benchmarks run at a reduced scale factor to keep iterations fast;
// cmd/experiments reproduces the SF 1 numbers recorded in EXPERIMENTS.md.

import (
	"sync"
	"testing"

	"castle/internal/cape/micro"
	"castle/internal/experiments"
	"castle/internal/isa"
	"castle/internal/optimizer"
	"castle/internal/plan"
)

const benchSF = 0.02

var (
	suiteOnce    sync.Once
	suiteResults []experiments.QueryResult
	suiteRunner  *experiments.Runner
)

func benchSuite(b *testing.B) ([]experiments.QueryResult, *experiments.Runner) {
	b.Helper()
	suiteOnce.Do(func() {
		suiteRunner = experiments.NewRunner(benchSF)
		suiteResults = suiteRunner.RunSuite()
	})
	return suiteResults, suiteRunner
}

// BenchmarkTable1CostModel executes the bit-serial microop engine and
// reports the measured step counts of the Table 1 operations.
func BenchmarkTable1CostModel(b *testing.B) {
	const vl = 4096
	words := make([]uint32, vl)
	for i := range words {
		words[i] = uint32(i)
	}
	b.ReportAllocs()
	var addSteps, searchSteps int64
	for i := 0; i < b.N; i++ {
		e := micro.NewEngine(vl)
		x := micro.NewArray(vl, 32)
		y := micro.NewArray(vl, 32)
		x.Load(words)
		y.Load(words)
		e.AddInPlace(x, y)
		addSteps = e.Stats().Steps()
		e.ResetStats()
		e.SearchEqual(x, 42)
		searchSteps = e.Stats().Steps()
	}
	b.ReportMetric(float64(addSteps), "add-steps(8n+2)")
	b.ReportMetric(float64(searchSteps), "search-steps(n+1)")
}

// BenchmarkTable2Configuration constructs the experimental setup (Table 2).
func BenchmarkTable2Configuration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.TierABA
	}
	b.ReportMetric(float64(isa.SearchSteps(32)), "gp-search-cycles")
	b.ReportMetric(float64(isa.SearchStepsCAM), "cam-search-cycles")
}

// BenchmarkFig1Waterfall reports the three headline geomeans of Figure 1.
func BenchmarkFig1Waterfall(b *testing.B) {
	results, r := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// One representative end-to-end query at the full design point
		// per iteration.
		r.RunQueryTier(4, experiments.TierABA)
	}
	b.ReportMetric(experiments.GeoMean(results, experiments.TierOps), "ops-only-x")
	b.ReportMetric(experiments.GeoMean(results, experiments.TierQO), "queryopt-x")
	b.ReportMetric(experiments.GeoMean(results, experiments.TierABA), "full-x")
}

// BenchmarkFig5PlanShapes enumerates the Figure 5 worked example and
// reports the three plan-shape costs in searches.
func BenchmarkFig5PlanShapes(b *testing.B) {
	q, cat := experiments.Fig5Query()
	est := optimizer.Estimator{Cat: cat}
	order := []plan.JoinEdge{*q.JoinFor("d1"), *q.JoinFor("d2")}
	var ld, rd, zz int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ld = optimizer.Cost(q, est, 32768, order, 0)
		rd = optimizer.Cost(q, est, 32768, order, 2)
		zz = optimizer.Cost(q, est, 32768, order, 1)
	}
	b.ReportMetric(float64(ld), "leftdeep-searches")
	b.ReportMetric(float64(rd), "rightdeep-searches")
	b.ReportMetric(float64(zz), "zigzag-searches")
}

// BenchmarkFig6QueryOptimization runs a multi-join query at the
// operators-only and query-optimized tiers and reports both speedups.
func BenchmarkFig6QueryOptimization(b *testing.B) {
	results, r := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.RunQueryTier(7, experiments.TierQO) // Q3.1
	}
	b.ReportMetric(experiments.GeoMean(results, experiments.TierOps), "ops-only-x")
	b.ReportMetric(experiments.GeoMean(results, experiments.TierQO), "queryopt-x")
}

// BenchmarkFig7Breakdown measures the CSB cycle class breakdown of a
// search-dominated query.
func BenchmarkFig7Breakdown(b *testing.B) {
	results, r := benchSuite(b)
	b.ResetTimer()
	var searchShare float64
	for i := 0; i < b.N; i++ {
		run, _ := r.RunQueryTier(4, experiments.TierQO)
		var total int64
		for _, v := range run.CSBByClass {
			total += v
		}
		searchShare = float64(run.CSBByClass[isa.ClassSearch]) / float64(total)
	}
	_ = results
	b.ReportMetric(100*searchShare, "q4-search-share-%")
}

// BenchmarkFig10Microarch reports the cumulative enhancement geomeans.
func BenchmarkFig10Microarch(b *testing.B) {
	results, r := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.RunQueryTier(13, experiments.TierABA) // Q4.3, all enhancements active
	}
	b.ReportMetric(experiments.GeoMean(results, experiments.TierADL), "adl-x")
	b.ReportMetric(experiments.GeoMean(results, experiments.TierMKS), "mks-x")
	b.ReportMetric(experiments.GeoMean(results, experiments.TierABA), "aba-x")
}

// BenchmarkFig11Join runs the join microbenchmark at one representative
// point per iteration and reports the small-dimension speedup.
func BenchmarkFig11Join(b *testing.B) {
	var pts []experiments.MicroPoint
	for i := 0; i < b.N; i++ {
		pts = experiments.JoinMicro(200_000, []int{1_000})
	}
	b.ReportMetric(pts[0].Speedup(), "speedup-x")
	b.ReportMetric(pts[0].SpeedupNoOpt(), "noopt-speedup-x")
}

// BenchmarkFig12Aggregation runs the aggregation microbenchmark at a
// small-group point (Castle's winning regime) and reports the speedup.
func BenchmarkFig12Aggregation(b *testing.B) {
	var pts []experiments.MicroPoint
	for i := 0; i < b.N; i++ {
		pts = experiments.AggregationMicro(200_000, []int{50})
	}
	b.ReportMetric(pts[0].Speedup(), "speedup-x")
}

// BenchmarkFig12AggregationCrossover measures the large-group regime where
// the baseline overtakes Castle.
func BenchmarkFig12AggregationCrossover(b *testing.B) {
	var pts []experiments.MicroPoint
	for i := 0; i < b.N; i++ {
		pts = experiments.AggregationMicro(200_000, []int{100_000})
	}
	b.ReportMetric(pts[0].Speedup(), "speedup-x")
}

// BenchmarkSelectionSweep runs the §7.1 selection microbenchmark.
func BenchmarkSelectionSweep(b *testing.B) {
	var pts []experiments.MicroPoint
	for i := 0; i < b.N; i++ {
		pts = experiments.SelectionMicro([]int{1_000_000}, []int{10})
	}
	b.ReportMetric(pts[0].Speedup(), "speedup-x")
}

// BenchmarkMKSBufferSweep measures the §6.1 vmks buffer sensitivity.
func BenchmarkMKSBufferSweep(b *testing.B) {
	_, r := benchSuite(b)
	var pts []experiments.MKSBufferPoint
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts = r.MKSBufferSweep([]int{64, 512, 2048})
	}
	for _, p := range pts {
		switch p.BufferBytes {
		case 64:
			b.ReportMetric(p.Relative, "rel-64B-x")
		case 2048:
			b.ReportMetric(p.Relative, "rel-2KB-x")
		}
	}
}

// BenchmarkDataMovement reports the §6.3 byte-movement ratio.
func BenchmarkDataMovement(b *testing.B) {
	results, r := benchSuite(b)
	b.ResetTimer()
	var d experiments.DataMovement
	for i := 0; i < b.N; i++ {
		d = experiments.DataMovementSweep(results)
	}
	_ = r
	b.ReportMetric(d.Ratio(), "baseline/castle-bytes-x")
}

// BenchmarkFusionAblation measures the §7.4 operator-fusion benefit.
func BenchmarkFusionAblation(b *testing.B) {
	_, r := benchSuite(b)
	var pts []experiments.FusionAblation
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts = r.RunFusionAblation()
	}
	worst := 1.0
	for _, p := range pts {
		if p.Penalty() > worst {
			worst = p.Penalty()
		}
	}
	b.ReportMetric(worst, "max-unfused-penalty-x")
}

// BenchmarkABADiscoveryAblation measures §5.1's two bitwidth sources.
func BenchmarkABADiscoveryAblation(b *testing.B) {
	_, r := benchSuite(b)
	var pts []experiments.ABADiscoveryAblation
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts = r.RunABADiscoveryAblation()
	}
	b.ReportMetric(float64(pts[0].DiscoveryCycles)/float64(pts[0].StatsCycles), "q1-discovery-penalty-x")
}

// BenchmarkPIMExploration measures the §8 future-work flavor on one
// load-bound and one search-bound query.
func BenchmarkPIMExploration(b *testing.B) {
	_, r := benchSuite(b)
	var pts []experiments.PIMPoint
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts = r.RunPIMStudy()
	}
	for _, p := range pts {
		switch p.Num {
		case 3: // load-bound
			b.ReportMetric(p.Ratio(), "q3-sram/pim-x")
		case 7: // search-bound
			b.ReportMetric(p.Ratio(), "q7-sram/pim-x")
		}
	}
}

// BenchmarkPowerComparison reports the §6.1 energy ratio for Q2.1.
func BenchmarkPowerComparison(b *testing.B) {
	_, r := benchSuite(b)
	var p experiments.PowerComparison
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p = r.RunPowerComparison(4)
	}
	b.ReportMetric(p.Comparison.EnergyRatioX, "energy-ratio-x")
	b.ReportMetric(p.Comparison.PowerRatioTDPX, "tdp-ratio-x")
}

// BenchmarkReferenceCodebases reports the §4.1 scalar/AVX-512 relationship.
func BenchmarkReferenceCodebases(b *testing.B) {
	_, r := benchSuite(b)
	var c experiments.CodebaseComparison
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c = r.RunCodebaseComparison()
	}
	b.ReportMetric(c.Ratio(), "scalar/avx512-x")
}
