package diffcheck

// check.go runs one query through every engine configuration and compares
// answers and accounting. The comparison baseline is the scalar oracle in
// internal/reference; the hash-based exec.Reference is also held to it (the
// two oracles share no code, so agreement is meaningful). Engine panics are
// caught and reported as mismatches rather than crashing a campaign.

import (
	"context"
	"fmt"
	"strings"

	"castle/internal/baseline"
	"castle/internal/cape"
	"castle/internal/exec"
	"castle/internal/optimizer"
	"castle/internal/plan"
	"castle/internal/reference"
	"castle/internal/telemetry"
)

// Options configure the engine matrix a Check sweeps.
type Options struct {
	// Ks are the parallelism degrees to run each engine at.
	Ks []int
	// Configs are the CAPE design points to run.
	Configs []cape.Config
}

// DefaultOptions is the harness matrix: K ∈ {1,4} on both devices, one
// low-MAXVL enhanced CAPE config (forces multi-partition sweeps and real
// fan-out even on tiny corpora) and one high-MAXVL base config (single
// partition: exercises the K-clamp path).
func DefaultOptions() Options {
	small := cape.DefaultConfig().WithEnhancements()
	small.MAXVL = 512
	big := cape.DefaultConfig()
	big.MAXVL = 4096
	return Options{Ks: []int{1, 4}, Configs: []cape.Config{small, big}}
}

// Mismatch describes one differential failure: which engine diverged from
// the scalar reference (or which invariant broke), on which query.
type Mismatch struct {
	// Seed reproduces the original query via Corpus.Generate (filled by
	// Campaign; zero for direct Check calls).
	Seed int64
	// Query is the failing query — shrunk, if the campaign shrinker ran.
	Query *plan.Query
	// Engine names the diverging configuration, e.g. "CAPE[maxvl=512,K=4]".
	Engine string
	// Detail explains the failure (result diff, invariant, or panic).
	Detail string
}

func (m *Mismatch) String() string {
	return fmt.Sprintf("engine %s diverged (seed %d)\nquery: %s\n%s",
		m.Engine, m.Seed, FormatQuery(m.Query), m.Detail)
}

// Check runs q through the full engine matrix. It returns nil when every
// engine agrees with the scalar reference and every accounting invariant
// holds, or the first Mismatch otherwise.
func (c *Corpus) Check(q *plan.Query, opts Options) *Mismatch {
	if len(opts.Ks) == 0 {
		opts = DefaultOptions()
	}
	want, m := c.oracle(q)
	if m != nil {
		return m
	}

	// The hash-based oracle in exec must match the scalar one.
	if m := c.checkHashOracle(q, want); m != nil {
		return m
	}

	factRows := int64(c.DB.MustTable(q.Fact).Rows())
	for _, k := range opts.Ks {
		if m := c.checkCPU(q, want, k, factRows); m != nil {
			return m
		}
		if m := c.checkStreamedCPU(q, want, k, factRows); m != nil {
			return m
		}
	}
	for _, cfg := range opts.Configs {
		var traffic []int64
		for _, k := range opts.Ks {
			bytes, m := c.checkCAPE(q, want, cfg, k, factRows)
			if m != nil {
				return m
			}
			traffic = append(traffic, bytes)
			if m := c.checkRouted(q, want, cfg, k); m != nil {
				return m
			}
			if m := c.checkMixed(q, want, cfg, k); m != nil {
				return m
			}
			if m := c.checkStreamed(q, want, cfg, k, factRows); m != nil {
				return m
			}
			if m := c.checkAdaptive(q, want, cfg, k); m != nil {
				return m
			}
		}
		// Fork traffic absorption: BytesMoved is a work metric — each
		// partition loads the same columns whichever tile runs it, and the
		// parent absorbs every tile's traffic on merge — so it must not
		// depend on the fan-out at all.
		for i := 1; i < len(traffic); i++ {
			if traffic[i] != traffic[0] {
				return &Mismatch{Query: q,
					Engine: fmt.Sprintf("CAPE[maxvl=%d]", cfg.MAXVL),
					Detail: fmt.Sprintf("traffic absorption: BytesMoved %d at K=%d vs %d at K=%d",
						traffic[i], opts.Ks[i], traffic[0], opts.Ks[0])}
			}
		}
	}
	// The sharded scatter-gather tier must agree at every topology too.
	if m := c.checkSharded(q, want); m != nil {
		return m
	}
	// So must the fused multi-query shared sweep (shared.go).
	if m := c.checkShared(q, want, opts); m != nil {
		return m
	}
	return nil
}

// oracle runs the scalar reference, converting panics into mismatches.
func (c *Corpus) oracle(q *plan.Query) (res *reference.Result, m *Mismatch) {
	defer func() {
		if r := recover(); r != nil {
			m = &Mismatch{Query: q, Engine: "reference", Detail: fmt.Sprintf("panic: %v", r)}
		}
	}()
	return reference.Run(q, c.DB), nil
}

func (c *Corpus) checkHashOracle(q *plan.Query, want *reference.Result) (m *Mismatch) {
	defer func() {
		if r := recover(); r != nil {
			m = &Mismatch{Query: q, Engine: "exec.Reference", Detail: fmt.Sprintf("panic: %v", r)}
		}
	}()
	got := exec.Reference(q, c.DB)
	if d := diffResults(want, got); d != "" {
		return &Mismatch{Query: q, Engine: "exec.Reference", Detail: d}
	}
	return nil
}

func (c *Corpus) checkCPU(q *plan.Query, want *reference.Result, k int, factRows int64) (m *Mismatch) {
	name := fmt.Sprintf("CPU[K=%d]", k)
	defer func() {
		if r := recover(); r != nil {
			m = &Mismatch{Query: q, Engine: name, Detail: fmt.Sprintf("panic: %v", r)}
		}
	}()
	cpu := baseline.New(baseline.DefaultConfig())
	x := exec.NewCPUExec(cpu)
	x.SetParallelism(k)
	got := x.Run(q, c.DB)
	if d := diffResults(want, got); d != "" {
		return &Mismatch{Query: q, Engine: name, Detail: d}
	}
	if d := checkAccounting(x.Breakdown(), x.ParallelStats(), cpu.Cycles(), factRows); d != "" {
		return &Mismatch{Query: q, Engine: name, Detail: d}
	}
	return nil
}

func (c *Corpus) checkCAPE(q *plan.Query, want *reference.Result, cfg cape.Config, k int, factRows int64) (bytes int64, m *Mismatch) {
	name := fmt.Sprintf("CAPE[maxvl=%d,K=%d]", cfg.MAXVL, k)
	defer func() {
		if r := recover(); r != nil {
			m = &Mismatch{Query: q, Engine: name, Detail: fmt.Sprintf("panic: %v", r)}
		}
	}()
	p, err := optimizer.Optimize(q, c.Cat, cfg.MAXVL)
	if err != nil {
		return 0, &Mismatch{Query: q, Engine: name, Detail: fmt.Sprintf("optimize: %v", err)}
	}
	eng := cape.New(cfg)
	castle := exec.NewCastle(eng, c.Cat, exec.DefaultCastleOptions())
	castle.SetParallelism(k)
	got := castle.Run(p, c.DB)
	if d := diffResults(want, got); d != "" {
		return 0, &Mismatch{Query: q, Engine: name, Detail: d}
	}
	if d := checkAccounting(castle.Breakdown(), castle.ParallelStats(), eng.Stats().TotalCycles(), factRows); d != "" {
		return 0, &Mismatch{Query: q, Engine: name, Detail: d}
	}
	return eng.Mem().BytesMoved(), nil
}

// checkRouted runs the whole-query hybrid router (exec.DecideDevice's
// uniform placement through exec.Execute): whichever engine the §7.2
// crossovers pick must reproduce the scalar reference bit for bit.
func (c *Corpus) checkRouted(q *plan.Query, want *reference.Result, cfg cape.Config, k int) (m *Mismatch) {
	name := fmt.Sprintf("HYBRID[maxvl=%d,K=%d]", cfg.MAXVL, k)
	defer func() {
		if r := recover(); r != nil {
			m = &Mismatch{Query: q, Engine: name, Detail: fmt.Sprintf("panic: %v", r)}
		}
	}()
	p, err := optimizer.Optimize(q, c.Cat, cfg.MAXVL)
	if err != nil {
		return &Mismatch{Query: q, Engine: name, Detail: fmt.Sprintf("optimize: %v", err)}
	}
	pp := plan.Compile(p, exec.DecideDevice(p, c.Cat, cfg, 0, 0))
	out, err := exec.Execute(context.Background(), pp, c.DB,
		exec.RunOptions{CAPE: cfg, Catalog: c.Cat, Fusion: true, Parallelism: k})
	if err != nil {
		return &Mismatch{Query: q, Engine: name, Detail: fmt.Sprintf("run: %v", err)}
	}
	if d := diffResults(want, out.Result); d != "" {
		return &Mismatch{Query: q, Engine: name + "->" + out.Device, Detail: d}
	}
	return nil
}

// checkMixed forces both mixed per-operator placements — fact stage on CAPE
// with the aggregation tail on the CPU, and the reverse — through the
// placed executor: results must match the scalar reference, and the
// two-device books must balance exactly.
func (c *Corpus) checkMixed(q *plan.Query, want *reference.Result, cfg cape.Config, k int) (m *Mismatch) {
	name := fmt.Sprintf("MIXED[maxvl=%d,K=%d]", cfg.MAXVL, k)
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
		name := fmt.Sprintf("MIXED[fact=%s,maxvl=%d,K=%d]", factDev, cfg.MAXVL, k)
		castle := exec.NewCastle(cape.New(cfg), c.Cat, exec.DefaultCastleOptions())
		cpuex := exec.NewCPUExec(baseline.New(baseline.DefaultConfig()))
		x := exec.NewPlaced(castle, cpuex, c.Cat)
		x.SetParallelism(k)
		got, err := x.Run(pp, c.DB)
		if err != nil {
			return &Mismatch{Query: q, Engine: name, Detail: fmt.Sprintf("run: %v", err)}
		}
		if d := diffResults(want, got); d != "" {
			return &Mismatch{Query: q, Engine: name, Detail: d}
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
	return nil
}

// checkAccounting asserts the run's books balance: the breakdown rows
// partition the engine's TotalCycles exactly, and the parallel stats are
// self-consistent (elapsed matches the engine; every dispatched fact row is
// owned by exactly one tile; work >= elapsed with the documented identity).
func checkAccounting(b *telemetry.Breakdown, ps exec.ParallelStats, engineCycles, factRows int64) string {
	if b == nil {
		return "no breakdown recorded"
	}
	if b.TotalCycles != engineCycles {
		return fmt.Sprintf("breakdown TotalCycles %d != engine cycles %d", b.TotalCycles, engineCycles)
	}
	if sum := b.SumCycles(); sum != b.TotalCycles {
		return fmt.Sprintf("breakdown rows sum to %d, want %d exactly", sum, b.TotalCycles)
	}
	if ps.ElapsedCycles != engineCycles {
		return fmt.Sprintf("ParallelStats elapsed %d != engine cycles %d", ps.ElapsedCycles, engineCycles)
	}
	if ps.Tiles > 1 {
		if len(ps.TileCycles) != ps.Tiles || len(ps.TileRows) != ps.Tiles {
			return fmt.Sprintf("tile vectors sized %d/%d for %d tiles",
				len(ps.TileCycles), len(ps.TileRows), ps.Tiles)
		}
		var rows, work, max int64
		for i := range ps.TileCycles {
			rows += ps.TileRows[i]
			work += ps.TileCycles[i]
			if ps.TileCycles[i] > max {
				max = ps.TileCycles[i]
			}
		}
		if rows != factRows {
			return fmt.Sprintf("tiles own %d fact rows, table has %d", rows, factRows)
		}
		if want := ps.ElapsedCycles + work - max; ps.WorkCycles != want {
			return fmt.Sprintf("WorkCycles %d != elapsed+sum-max %d", ps.WorkCycles, want)
		}
		if ps.WorkCycles < ps.ElapsedCycles {
			return fmt.Sprintf("WorkCycles %d below elapsed %d", ps.WorkCycles, ps.ElapsedCycles)
		}
	}
	return ""
}

// diffResults compares an oracle result with an engine result; both are
// already normalized, ordered, and limited. Returns "" on equality.
func diffResults(want *reference.Result, got *exec.Result) string {
	if len(want.Rows) != len(got.Rows) {
		return fmt.Sprintf("row count %d, reference has %d\nref:\n%s\ngot:\n%s",
			len(got.Rows), len(want.Rows), formatRef(want), formatExec(got))
	}
	for i := range want.Rows {
		w, g := want.Rows[i], got.Rows[i]
		if len(w.Keys) != len(g.Keys) || len(w.Aggs) != len(g.Aggs) {
			return fmt.Sprintf("row %d arity differs: ref %d/%d, got %d/%d",
				i, len(w.Keys), len(w.Aggs), len(g.Keys), len(g.Aggs))
		}
		for k := range w.Keys {
			if w.Keys[k] != g.Keys[k] {
				return fmt.Sprintf("row %d key[%d] = %d, reference has %d\nref:\n%s\ngot:\n%s",
					i, k, g.Keys[k], w.Keys[k], formatRef(want), formatExec(got))
			}
		}
		for k := range w.Aggs {
			if w.Aggs[k] != g.Aggs[k] {
				return fmt.Sprintf("row %d agg[%d] = %d, reference has %d\nref:\n%s\ngot:\n%s",
					i, k, g.Aggs[k], w.Aggs[k], formatRef(want), formatExec(got))
			}
		}
	}
	return ""
}

func formatRef(r *reference.Result) string {
	var b strings.Builder
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %v | %v\n", row.Keys, row.Aggs)
	}
	return b.String()
}

func formatExec(r *exec.Result) string {
	var b strings.Builder
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %v | %v\n", row.Keys, row.Aggs)
	}
	return b.String()
}
