package diffcheck

// adaptive.go adds the ADAPTIVE column to the differential matrix: the
// mid-query re-placement checkpoint may move the aggregation tail between
// devices after the fact stage completes, and it must never change answers
// — only cycles. Both forced fact directions run twice, once with a replan
// hook that keeps the planned tail and once with a hook that flips it, so
// every (fact device, tail device) combination the checkpoint can produce
// is diffed against the scalar oracle.

import (
	"fmt"

	"castle/internal/baseline"
	"castle/internal/cape"
	"castle/internal/exec"
	"castle/internal/optimizer"
	"castle/internal/plan"
	"castle/internal/reference"
)

// checkAdaptive forces both mixed placements through the adaptive executor
// with an estimate so wrong the checkpoint always fires, exercising both
// the keep-tail and flip-tail replan outcomes. Results must match the
// oracle bit for bit; the books must balance exactly (adaptive runs
// materialize, so TotalCycles = CAPE + CPU with no overlap credit).
func (c *Corpus) checkAdaptive(q *plan.Query, want *reference.Result, cfg cape.Config, k int) (m *Mismatch) {
	name := fmt.Sprintf("ADAPTIVE[maxvl=%d,K=%d]", cfg.MAXVL, k)
	defer func() {
		if r := recover(); r != nil {
			m = &Mismatch{Query: q, Engine: name, Detail: fmt.Sprintf("panic: %v", r)}
		}
	}()
	p, err := optimizer.Optimize(q, c.Cat, cfg.MAXVL)
	if err != nil {
		return &Mismatch{Query: q, Engine: name, Detail: fmt.Sprintf("optimize: %v", err)}
	}
	for _, factDev := range []plan.Device{plan.DeviceCAPE, plan.DeviceCPU} {
		aggDev := plan.DeviceCPU
		if factDev == plan.DeviceCPU {
			aggDev = plan.DeviceCAPE
			if q.GroupedSumMul() {
				continue
			}
		}
		dimDev := make(map[string]plan.Device, len(p.Joins))
		for _, e := range p.Joins {
			dimDev[e.Dim] = factDev
		}
		pp := plan.Compile(p, factDev).Place(factDev, aggDev, dimDev)
		for _, flip := range []bool{false, true} {
			name := fmt.Sprintf("ADAPTIVE[fact=%s,flip=%v,maxvl=%d,K=%d]", factDev, flip, cfg.MAXVL, k)
			castle := exec.NewCastle(cape.New(cfg), c.Cat, exec.DefaultCastleOptions())
			cpuex := exec.NewCPUExec(baseline.New(baseline.DefaultConfig()))
			x := exec.NewPlaced(castle, cpuex, c.Cat)
			x.SetParallelism(k)
			target := aggDev
			if flip {
				if target == plan.DeviceCPU {
					target = plan.DeviceCAPE
				} else {
					target = plan.DeviceCPU
				}
			}
			// An estimate of 2^40 survivors misses any generated table by
			// orders of magnitude, so the checkpoint always fires and the
			// hook's decision always applies (modulo the grouped-SUM(a*b)
			// CPU-only guard, which the executor enforces itself).
			aopts := exec.AdaptiveOptions{
				EstSurvivors: 1 << 40,
				Replan:       func(int64) plan.Device { return target },
			}
			got, ast, err := x.RunAdaptiveContext(nil, pp, c.DB, aopts)
			if err != nil {
				return &Mismatch{Query: q, Engine: name, Detail: fmt.Sprintf("run: %v", err)}
			}
			if d := diffResults(want, got); d != "" {
				return &Mismatch{Query: q, Engine: name, Detail: d}
			}
			if !ast.Fired {
				return &Mismatch{Query: q, Engine: name,
					Detail: fmt.Sprintf("checkpoint did not fire on estimate %d vs observed %d", aopts.EstSurvivors, ast.Observed)}
			}
			wantTail := target
			if q.GroupedSumMul() {
				wantTail = plan.DeviceCPU
			}
			if ast.TailDevice != wantTail {
				return &Mismatch{Query: q, Engine: name,
					Detail: fmt.Sprintf("tail ran on %s, want %s", ast.TailDevice, wantTail)}
			}
			if ast.Replaced != (wantTail != aggDev) {
				return &Mismatch{Query: q, Engine: name,
					Detail: fmt.Sprintf("Replaced=%v but tail moved %s -> %s", ast.Replaced, aggDev, wantTail)}
			}
			capeCy, cpuCy := x.DeviceCycles()
			bd := x.Breakdown()
			if bd == nil {
				return &Mismatch{Query: q, Engine: name, Detail: "no breakdown recorded"}
			}
			if bd.TotalCycles != capeCy+cpuCy {
				return &Mismatch{Query: q, Engine: name,
					Detail: fmt.Sprintf("breakdown TotalCycles %d != CAPE %d + CPU %d", bd.TotalCycles, capeCy, cpuCy)}
			}
			if sum := bd.SumCycles(); sum != bd.TotalCycles {
				return &Mismatch{Query: q, Engine: name,
					Detail: fmt.Sprintf("breakdown rows sum to %d, want %d exactly", sum, bd.TotalCycles)}
			}
		}
	}
	return nil
}
