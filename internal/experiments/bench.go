package experiments

// bench.go produces the machine-readable benchmark report: the waterfall
// geomean, per-query cycle counts, a K=1..4 morsel-parallel scaling curve
// for both devices, the cluster scale-out curve, streaming against
// materializing, the estimator's misestimate summary and the adaptive
// curve. Every number is a simulated cycle count or derived from one, so
// the report is deterministic: TestBenchReportGolden pins it byte for byte
// at SF 0.01 (testdata/bench_sf0.01.json). Host time is castlebench's job.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"castle/internal/baseline"
	"castle/internal/cape"
	"castle/internal/cluster"
	"castle/internal/exec"
	"castle/internal/optimizer"
	"castle/internal/plan"
)

// BenchScalingMAXVL is the CAPE vector length used for the scaling curve.
// At small scale factors the default 32,768 leaves too few MAXVL-sized
// morsels to occupy four tiles (SF 0.01 has ~60K fact rows = 2 morsels), so
// the curve measures fan-out at a vector length that yields >= 4 morsels.
const BenchScalingMAXVL = 8192

// BenchReport is the schema of the benchmark JSON artifact.
type BenchReport struct {
	SF             float64          `json:"sf"`
	GeomeanSpeedup float64          `json:"geomean_speedup"` // full system vs AVX-512 baseline
	Queries        []BenchQuery     `json:"queries"`
	Scaling        []ScalingPoint   `json:"scaling"`   // K=1..4 per device
	Cluster        []ClusterPoint   `json:"cluster"`   // N=1..4 scale-out
	Streaming      []StreamingPoint `json:"streaming"` // streaming vs materializing, mixed placement
	// Misestimates compares per-operator estimate divergence under the
	// histogram estimator vs the fixed-constant model; Adaptive is the
	// static-vs-checkpoint curve per SSB query.
	Misestimates []MisestimateModel `json:"misestimates"`
	Adaptive     []AdaptivePoint    `json:"adaptive"`
}

// BenchQuery is one SSB query's cycle accounting.
type BenchQuery struct {
	Num            int     `json:"num"`
	Flight         string  `json:"flight"`
	BaselineCycles int64   `json:"baseline_cycles"`
	CastleCycles   int64   `json:"castle_cycles"`
	Speedup        float64 `json:"speedup"`
}

// ScalingPoint is one (device, K) cell of the parallel-scaling curve.
type ScalingPoint struct {
	Device string `json:"device"`
	K      int    `json:"k"`
	// GeomeanCycles is the geometric mean of elapsed cycles over the 13
	// queries; GeomeanWork uses the summed-over-tiles work view.
	GeomeanCycles float64 `json:"geomean_cycles"`
	GeomeanWork   float64 `json:"geomean_work_cycles"`
	// SpeedupVsK1 is geomean(K=1 cycles / this K's cycles).
	SpeedupVsK1 float64 `json:"speedup_vs_k1"`
}

// ClusterPoint is one node-count cell of the scatter-gather scale-out
// curve: the coordinator's critical-path (elapsed) and total-work cycle
// views over the 13 queries, plus the cross-node shuffle traffic the
// gather phase paid.
type ClusterPoint struct {
	Scheme        string  `json:"scheme"`
	Nodes         int     `json:"nodes"`
	GeomeanCycles float64 `json:"geomean_cycles"`
	GeomeanWork   float64 `json:"geomean_work_cycles"`
	// SpeedupVsN1 is geomean(N=1 elapsed / this N's elapsed).
	SpeedupVsN1 float64 `json:"speedup_vs_n1"`
	// ShuffleBytes totals the partial-aggregate traffic over all 13 queries.
	ShuffleBytes int64 `json:"shuffle_bytes_total"`
}

// StreamingPoint is one (query, K) cell of the streaming-vs-materializing
// comparison: the same forced mixed placement (fact stage on CAPE,
// aggregation tail on the CPU) run both ways. StreamedCycles subtracts the
// double-buffered overlap credit, so the delta is the transfer time the
// pipeline hid under compute; PeakBatchBytes shows the O(K·MAXVL)
// intermediate footprint.
type StreamingPoint struct {
	Num                int     `json:"num"`
	Flight             string  `json:"flight"`
	K                  int     `json:"k"`
	MaterializedCycles int64   `json:"materialized_cycles"`
	StreamedCycles     int64   `json:"streamed_cycles"`
	OverlapCycles      int64   `json:"overlap_cycles"`
	Batches            int64   `json:"batches"`
	PeakBatchBytes     int64   `json:"peak_batch_bytes"`
	Speedup            float64 `json:"speedup"` // materialized / streamed
}

// RunBench assembles the full benchmark report at one scale factor.
func RunBench(sf float64) *BenchReport {
	r := NewRunner(sf)
	results := r.RunSuite()

	rep := &BenchReport{SF: sf, GeomeanSpeedup: GeoMean(results, TierABA)}
	for _, q := range results {
		rep.Queries = append(rep.Queries, BenchQuery{
			Num:            q.Num,
			Flight:         q.Flight,
			BaselineCycles: q.BaselineCycles,
			CastleCycles:   q.Tiers[TierABA].Cycles,
			Speedup:        q.Speedup(TierABA),
		})
	}

	ks := []int{1, 2, 3, 4}
	rep.Scaling = append(rep.Scaling, r.ScalingCurve("cape", ks)...)
	rep.Scaling = append(rep.Scaling, r.ScalingCurve("cpu", ks)...)
	rep.Cluster = r.ClusterCurve("hash", []int{1, 2, 3, 4})
	rep.Streaming = r.StreamingCurve([]int{1, 2})
	rep.Misestimates = r.MisestimateSummary()
	rep.Adaptive = RunAdaptiveCurve(sf)
	return rep
}

// StreamingCurve runs all 13 queries through the forced mixed placement
// (fact stage on CAPE at BenchScalingMAXVL, aggregation tail on the CPU)
// both materializing and streaming at each fan-out K. The placement is
// forced rather than optimized so every cell actually crosses the device
// boundary — the crossing is what double buffering accelerates.
func (r *Runner) StreamingCurve(ks []int) []StreamingPoint {
	maxvl := BenchScalingMAXVL
	cfg := TierABA.config(maxvl)
	var out []StreamingPoint
	for _, k := range ks {
		for num := 1; num <= 13; num++ {
			q := r.bind(querySQL(num))
			p, err := optimizer.Optimize(q, r.Cat, maxvl)
			if err != nil {
				panic(err)
			}
			dimDev := make(map[string]plan.Device, len(p.Joins))
			for _, e := range p.Joins {
				dimDev[e.Dim] = plan.DeviceCAPE
			}
			pp := plan.Compile(p, plan.DeviceCAPE).Place(plan.DeviceCAPE, plan.DeviceCPU, dimDev)
			run := func(streaming bool) (int64, exec.StreamStats) {
				castle := exec.NewCastle(cape.New(cfg), r.Cat, exec.DefaultCastleOptions())
				cpuex := exec.NewCPUExec(baseline.New(baseline.DefaultConfig()))
				x := exec.NewPlaced(castle, cpuex, r.Cat)
				x.SetParallelism(k)
				x.SetStreaming(streaming)
				if _, err := x.Run(pp, r.DB); err != nil {
					panic(fmt.Sprintf("experiments: streaming bench Q%d k=%d: %v", num, k, err))
				}
				return x.Breakdown().TotalCycles, x.StreamStats()
			}
			mat, _ := run(false)
			str, st := run(true)
			sp := StreamingPoint{
				Num:                num,
				Flight:             queryMeta(num).Flight,
				K:                  k,
				MaterializedCycles: mat,
				StreamedCycles:     str,
				OverlapCycles:      st.OverlapCycles,
				Batches:            st.Batches,
				PeakBatchBytes:     st.PeakBatchBytes,
			}
			if str > 0 {
				sp.Speedup = float64(mat) / float64(str)
			}
			out = append(out, sp)
		}
	}
	return out
}

// ClusterCurve measures scatter-gather scale-out: all 13 queries through a
// coordinator at each node count (CAPE engines at BenchScalingMAXVL on
// every node), reporting the coordinator's elapsed and work cycle views.
func (r *Runner) ClusterCurve(scheme string, ns []int) []ClusterPoint {
	sch, err := cluster.ParseScheme(scheme)
	if err != nil {
		panic(err)
	}
	cfg := TierABA.config(BenchScalingMAXVL)
	base := make([]float64, 0, 13)
	var out []ClusterPoint
	for _, n := range ns {
		coord, err := cluster.New(r.DB, cluster.Config{Nodes: n, Scheme: sch})
		if err != nil {
			panic(err)
		}
		elapsed, work := make([]float64, 13), make([]float64, 13)
		var shuffle int64
		for num := 1; num <= 13; num++ {
			q := r.bind(querySQL(num))
			_, rep, err := coord.Run(context.Background(), q,
				cluster.ExecOptions{Device: "cape", Config: cfg, Parallelism: 1})
			if err != nil {
				panic(fmt.Sprintf("experiments: cluster bench Q%d n=%d: %v", num, n, err))
			}
			elapsed[num-1] = float64(rep.Stats.ElapsedCycles)
			work[num-1] = float64(rep.Stats.WorkCycles)
			shuffle += rep.Stats.ShuffleBytes
		}
		if n == ns[0] {
			base = elapsed
		}
		cp := ClusterPoint{
			Scheme:        scheme,
			Nodes:         n,
			GeomeanCycles: geomeanF(elapsed),
			GeomeanWork:   geomeanF(work),
			ShuffleBytes:  shuffle,
		}
		ratios := make([]float64, len(elapsed))
		for i := range elapsed {
			ratios[i] = base[i] / elapsed[i]
		}
		cp.SpeedupVsN1 = geomeanF(ratios)
		out = append(out, cp)
	}
	return out
}

// ScalingCurve measures elapsed and work cycles for all 13 queries at each
// requested fan-out K. device is "cape" (at BenchScalingMAXVL, see above)
// or "cpu" (core count is the only knob).
func (r *Runner) ScalingCurve(device string, ks []int) []ScalingPoint {
	base := make([]float64, 0, len(ks))
	var out []ScalingPoint
	for _, k := range ks {
		elapsed, work := make([]float64, 13), make([]float64, 13)
		for n := 1; n <= 13; n++ {
			e, w := r.runScaled(device, n, k)
			elapsed[n-1], work[n-1] = float64(e), float64(w)
		}
		if k == ks[0] {
			base = elapsed
		}
		sp := ScalingPoint{
			Device:        device,
			K:             k,
			GeomeanCycles: geomeanF(elapsed),
			GeomeanWork:   geomeanF(work),
		}
		ratios := make([]float64, len(elapsed))
		for i := range elapsed {
			ratios[i] = base[i] / elapsed[i]
		}
		sp.SpeedupVsK1 = geomeanF(ratios)
		out = append(out, sp)
	}
	return out
}

// runScaled executes one SSB query at fan-out k and returns (elapsed, work)
// cycles.
func (r *Runner) runScaled(device string, num, k int) (int64, int64) {
	q := r.bind(querySQL(num))
	if device == "cpu" {
		cpu := baseline.New(baseline.DefaultConfig())
		x := exec.NewCPUExec(cpu)
		x.SetParallelism(k)
		x.Run(q, r.DB)
		return cpu.Cycles(), x.ParallelStats().WorkCycles
	}
	maxvl := BenchScalingMAXVL
	cfg := TierABA.config(maxvl)
	p, err := optimizer.Optimize(q, r.Cat, maxvl)
	if err != nil {
		panic(err)
	}
	eng := cape.New(cfg)
	cas := exec.NewCastle(eng, r.Cat, exec.DefaultCastleOptions())
	cas.SetParallelism(k)
	cas.Run(p, r.DB)
	return eng.Stats().TotalCycles(), cas.ParallelStats().WorkCycles
}

// WriteBenchJSON renders the report as indented JSON.
func (rep *BenchReport) WriteBenchJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// geomeanF is the geometric mean of positive values.
func geomeanF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
