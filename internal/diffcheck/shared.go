package diffcheck

// shared.go adds the SHARED column to the differential matrix: the query
// under test is fused with deterministically derived companion queries into
// one multi-query fact sweep on each device, and every member's answer must
// reproduce its own solo oracle bit for bit. The attribution invariant is
// checked exactly: member cycle shares partition the fused run's engine
// delta with no remainder, and each member's breakdown rows partition its
// share.

import (
	"context"
	"fmt"
	"hash/fnv"

	"castle/internal/baseline"
	"castle/internal/cape"
	"castle/internal/exec"
	"castle/internal/optimizer"
	"castle/internal/plan"
	"castle/internal/reference"
)

// companionSeeds derives deterministic generator seeds from the query's
// canonical text, so a campaign failure replays from the original seed
// alone: Generate(seed) reproduces q, and q's text reproduces its group.
func companionSeeds(q *plan.Query, n int) []int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(FormatQuery(q)))
	base := int64(h.Sum64() >> 1) // keep positive for readability in reports
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = base + int64(i)
	}
	return seeds
}

// checkShared fuses q with two derived companions and runs the group as one
// shared sweep on both devices.
func (c *Corpus) checkShared(q *plan.Query, want *reference.Result, opts Options) *Mismatch {
	group := []*plan.Query{q}
	for _, seed := range companionSeeds(q, 2) {
		group = append(group, c.Generate(seed))
	}
	wants := []*reference.Result{want}
	for _, cq := range group[1:] {
		w, m := c.oracle(cq)
		if m != nil {
			m.Query = q // report under the query that seeded the group
			return m
		}
		wants = append(wants, w)
	}
	if m := c.checkSharedCPU(q, group, wants); m != nil {
		return m
	}
	for _, cfg := range opts.Configs {
		if m := c.checkSharedCAPE(q, group, wants, cfg); m != nil {
			return m
		}
	}
	return nil
}

func (c *Corpus) checkSharedCPU(q *plan.Query, group []*plan.Query, wants []*reference.Result) (m *Mismatch) {
	name := fmt.Sprintf("SHARED[cpu,n=%d]", len(group))
	defer func() {
		if r := recover(); r != nil {
			m = &Mismatch{Query: q, Engine: name, Detail: fmt.Sprintf("panic: %v", r)}
		}
	}()
	plans := make([]*plan.Physical, len(group))
	for i, cq := range group {
		p, err := optimizer.Optimize(cq, c.Cat, cape.DefaultConfig().MAXVL)
		if err != nil {
			return &Mismatch{Query: q, Engine: name, Detail: fmt.Sprintf("optimize member %d: %v", i, err)}
		}
		plans[i] = p
	}
	cpu := baseline.New(baseline.DefaultConfig())
	results, stats, err := exec.RunSharedCPU(context.Background(), cpu, plans, c.DB)
	if err != nil {
		return &Mismatch{Query: q, Engine: name, Detail: fmt.Sprintf("run: %v", err)}
	}
	return c.checkSharedResults(q, name, results, stats, wants, cpu.Cycles())
}

func (c *Corpus) checkSharedCAPE(q *plan.Query, group []*plan.Query, wants []*reference.Result, cfg cape.Config) (m *Mismatch) {
	name := fmt.Sprintf("SHARED[cape,maxvl=%d]", cfg.MAXVL)
	defer func() {
		if r := recover(); r != nil {
			m = &Mismatch{Query: q, Engine: name, Detail: fmt.Sprintf("panic: %v", r)}
		}
	}()
	// Admit members greedily, exactly like the facade: grouped SUM(a*b)
	// members and register-budget overflows run solo there, so they are
	// simply left out of the fused group here.
	var plans []*plan.Physical
	var fusedWants []*reference.Result
	for i, cq := range group {
		p, err := optimizer.Optimize(cq, c.Cat, cfg.MAXVL)
		if err != nil {
			return &Mismatch{Query: q, Engine: name, Detail: fmt.Sprintf("optimize member %d: %v", i, err)}
		}
		trial := append(plans[:len(plans):len(plans)], p)
		if exec.CAPESharedEligible(trial, cfg) != nil {
			continue
		}
		plans = trial
		fusedWants = append(fusedWants, wants[i])
	}
	if len(plans) < 2 {
		return nil // group degenerates to solo runs, already covered by CAPE column
	}
	eng := cape.New(cfg)
	results, stats, err := exec.RunSharedCAPE(context.Background(), eng, c.Cat,
		exec.DefaultCastleOptions(), plans, c.DB)
	if err != nil {
		return &Mismatch{Query: q, Engine: name, Detail: fmt.Sprintf("run: %v", err)}
	}
	return c.checkSharedResults(q, name, results, stats, fusedWants, eng.Stats().TotalCycles())
}

// checkSharedResults holds every fused member to its solo oracle and checks
// the attribution books: member shares partition the engine delta exactly,
// the shared-scan term is within the group total, and each member's
// breakdown rows partition its share.
func (c *Corpus) checkSharedResults(q *plan.Query, name string,
	results []exec.SharedMemberResult, stats exec.SharedStats,
	wants []*reference.Result, engineCycles int64) *Mismatch {

	if len(results) != len(wants) {
		return &Mismatch{Query: q, Engine: name,
			Detail: fmt.Sprintf("%d member results for %d members", len(results), len(wants))}
	}
	var sum int64
	for i, r := range results {
		if d := diffResults(wants[i], r.Result); d != "" {
			return &Mismatch{Query: q, Engine: fmt.Sprintf("%s member %d", name, i), Detail: d}
		}
		if r.Breakdown == nil {
			return &Mismatch{Query: q, Engine: name,
				Detail: fmt.Sprintf("member %d: no breakdown recorded", i)}
		}
		if bs := r.Breakdown.SumCycles(); bs != r.Cycles {
			return &Mismatch{Query: q, Engine: name,
				Detail: fmt.Sprintf("member %d breakdown rows sum to %d, want attributed share %d exactly", i, bs, r.Cycles)}
		}
		sum += r.Cycles
	}
	if sum != stats.TotalCycles {
		return &Mismatch{Query: q, Engine: name,
			Detail: fmt.Sprintf("member shares sum to %d, group total is %d (attribution must partition exactly)", sum, stats.TotalCycles)}
	}
	if stats.TotalCycles != engineCycles {
		return &Mismatch{Query: q, Engine: name,
			Detail: fmt.Sprintf("group TotalCycles %d != engine delta %d", stats.TotalCycles, engineCycles)}
	}
	if stats.SharedScanCycles < 0 || stats.SharedScanCycles > stats.TotalCycles {
		return &Mismatch{Query: q, Engine: name,
			Detail: fmt.Sprintf("shared-scan term %d outside group total %d", stats.SharedScanCycles, stats.TotalCycles)}
	}
	return nil
}
