package diffcheck

// streamed.go adds the STREAMED column to the differential matrix: the
// pull-based batch pipeline must reproduce the scalar oracle bit for bit on
// every device and forced mixed placement, its books must balance with the
// xfer-overlap credit included, and its peak resident batch bytes must stay
// within the O(K·MAXVL) double-buffering bound.

import (
	"fmt"

	"castle/internal/baseline"
	"castle/internal/cape"
	"castle/internal/exec"
	"castle/internal/optimizer"
	"castle/internal/plan"
	"castle/internal/reference"
)

// checkStreamed runs q through the streaming pipeline on the CAPE executor
// and both forced mixed placements (fact stage on either device,
// aggregation tail on the other). The config-independent CPU streaming
// check runs once per K from Check's CPU loop.
func (c *Corpus) checkStreamed(q *plan.Query, want *reference.Result, cfg cape.Config, k int, factRows int64) *Mismatch {
	if m := c.checkStreamedCAPE(q, want, cfg, k, factRows); m != nil {
		return m
	}
	return c.checkStreamedMixed(q, want, cfg, k)
}

func (c *Corpus) checkStreamedCPU(q *plan.Query, want *reference.Result, k int, factRows int64) (m *Mismatch) {
	name := fmt.Sprintf("STREAMED[cpu,K=%d]", k)
	defer func() {
		if r := recover(); r != nil {
			m = &Mismatch{Query: q, Engine: name, Detail: fmt.Sprintf("panic: %v", r)}
		}
	}()
	cpu := baseline.New(baseline.DefaultConfig())
	x := exec.NewCPUExec(cpu)
	x.SetParallelism(k)
	x.SetStreaming(true)
	got := x.Run(q, c.DB)
	if d := diffResults(want, got); d != "" {
		return &Mismatch{Query: q, Engine: name, Detail: d}
	}
	if d := checkAccounting(x.Breakdown(), x.ParallelStats(), cpu.Cycles(), factRows); d != "" {
		return &Mismatch{Query: q, Engine: name, Detail: d}
	}
	if st := x.StreamStats(); factRows > 0 && st.Batches == 0 {
		return &Mismatch{Query: q, Engine: name,
			Detail: fmt.Sprintf("streaming run pulled no batches over %d fact rows", factRows)}
	}
	return nil
}

func (c *Corpus) checkStreamedCAPE(q *plan.Query, want *reference.Result, cfg cape.Config, k int, factRows int64) (m *Mismatch) {
	name := fmt.Sprintf("STREAMED[cape,maxvl=%d,K=%d]", cfg.MAXVL, k)
	defer func() {
		if r := recover(); r != nil {
			m = &Mismatch{Query: q, Engine: name, Detail: fmt.Sprintf("panic: %v", r)}
		}
	}()
	p, err := optimizer.Optimize(q, c.Cat, cfg.MAXVL)
	if err != nil {
		return &Mismatch{Query: q, Engine: name, Detail: fmt.Sprintf("optimize: %v", err)}
	}
	eng := cape.New(cfg)
	castle := exec.NewCastle(eng, c.Cat, exec.DefaultCastleOptions())
	castle.SetParallelism(k)
	castle.SetStreaming(true)
	got := castle.Run(p, c.DB)
	if d := diffResults(want, got); d != "" {
		return &Mismatch{Query: q, Engine: name, Detail: d}
	}
	if d := checkAccounting(castle.Breakdown(), castle.ParallelStats(), eng.Stats().TotalCycles(), factRows); d != "" {
		return &Mismatch{Query: q, Engine: name, Detail: d}
	}
	if st := castle.StreamStats(); factRows > 0 && st.Batches == 0 {
		return &Mismatch{Query: q, Engine: name,
			Detail: fmt.Sprintf("streaming run pulled no batches over %d fact rows", factRows)}
	}
	return nil
}

// checkStreamedMixed forces both mixed placements through the streaming
// placed executor: results must match the oracle, the books must balance
// with the overlap credit (TotalCycles = CAPE + CPU − overlap, rows summing
// exactly), and peak resident batch bytes must respect the double-buffering
// bound of two in-flight batches per lane.
func (c *Corpus) checkStreamedMixed(q *plan.Query, want *reference.Result, cfg cape.Config, k int) (m *Mismatch) {
	name := fmt.Sprintf("STREAMED[mixed,maxvl=%d,K=%d]", cfg.MAXVL, k)
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
		name := fmt.Sprintf("STREAMED[fact=%s,maxvl=%d,K=%d]", factDev, cfg.MAXVL, k)
		castle := exec.NewCastle(cape.New(cfg), c.Cat, exec.DefaultCastleOptions())
		cpuex := exec.NewCPUExec(baseline.New(baseline.DefaultConfig()))
		x := exec.NewPlaced(castle, cpuex, c.Cat)
		x.SetParallelism(k)
		x.SetStreaming(true)
		got, err := x.Run(pp, c.DB)
		if err != nil {
			return &Mismatch{Query: q, Engine: name, Detail: fmt.Sprintf("run: %v", err)}
		}
		if d := diffResults(want, got); d != "" {
			return &Mismatch{Query: q, Engine: name, Detail: d}
		}
		capeCy, cpuCy := x.DeviceCycles()
		st := x.StreamStats()
		bd := x.Breakdown()
		if bd == nil {
			return &Mismatch{Query: q, Engine: name, Detail: "no breakdown recorded"}
		}
		if st.OverlapCycles < 0 {
			return &Mismatch{Query: q, Engine: name,
				Detail: fmt.Sprintf("negative overlap credit %d", st.OverlapCycles)}
		}
		if bd.TotalCycles != capeCy+cpuCy-st.OverlapCycles {
			return &Mismatch{Query: q, Engine: name,
				Detail: fmt.Sprintf("breakdown TotalCycles %d != CAPE %d + CPU %d - overlap %d",
					bd.TotalCycles, capeCy, cpuCy, st.OverlapCycles)}
		}
		if sum := bd.SumCycles(); sum != bd.TotalCycles {
			return &Mismatch{Query: q, Engine: name,
				Detail: fmt.Sprintf("breakdown rows sum to %d, want %d exactly", sum, bd.TotalCycles)}
		}
		// Two in-flight batches per lane (double buffering), each at most
		// MAXVL tuples of 4-byte ship fields.
		if bound := int64(2*k*cfg.MAXVL) * int64(4*exec.ShipTupleFields(q)); st.PeakBatchBytes > bound {
			return &Mismatch{Query: q, Engine: name,
				Detail: fmt.Sprintf("peak batch bytes %d exceed double-buffer bound %d", st.PeakBatchBytes, bound)}
		}
	}
	return nil
}
