package castle

// castle_shared.go is the multi-query entry point behind scan sharing: a
// batch of prepared statements submitted together is partitioned into
// fused shared-scan groups (same fact table, same device, fused-sweep
// eligible) and solo leftovers. A fused group executes as one fact sweep —
// the scan streams once over the union of member columns while every
// member's predicate sets, probes and aggregation tails run against the
// resident data — and takes one engine, not N. Member results are
// bit-identical to solo execution; member cycle totals partition the fused
// run exactly (the scan is attributed pro-rata with a largest-remainder
// split). The query service's coalescing window feeds admission batches
// through this entry point.

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"castle/internal/exec"
	"castle/internal/optimizer"
	"castle/internal/plan"
	"castle/internal/stats"
	"castle/internal/telemetry"
)

// sharedGroupID hands out process-unique fused-group identities for flight
// records and metrics.
var sharedGroupID atomic.Uint64

// groupKey is what the members of one fused sweep share: the fact table
// and device their compiled plans run on, and the statistics, design point
// and telemetry sink they were prepared with.
type groupKey struct {
	fact            string
	dev             plan.Device
	cat             *stats.Catalog
	maxvl           int
	noEnh, noFusion bool
	tel             *Telemetry
}

// QueryGroup prepares every statement under opt and executes them together
// with background context; see QueryGroupContext.
func (db *DB) QueryGroup(sqls []string, opt Options) ([]*Rows, []*Metrics, error) {
	stmts := make([]*Stmt, len(sqls))
	for i, sqlText := range sqls {
		stmt, err := db.Prepare(sqlText, opt)
		if err != nil {
			return nil, nil, fmt.Errorf("castle: group member %d: %w", i, err)
		}
		stmts[i] = stmt
	}
	return db.QueryGroupContext(context.Background(), stmts, opt.Parallelism)
}

// QueryGroupContext executes a batch of prepared statements together.
// Members prepared with Options.ScanSharing fuse into shared fact scans
// when their whole compiled plan runs on one device and they agree on fact
// table, device, statistics, design point and telemetry; a per-operator
// plan that spans both devices runs solo with its placed plan. Results and
// metrics align with stmts by index. Every member's rows are bit-identical
// to running it alone; fused members report GroupID/GroupSize and an
// attributed cycle share whose per-group sum equals the fused engine total
// exactly. Ineligible or solitary members Run solo, their fact sweeps
// fanned out across parallelism tiles or cores. Any member's failure
// fails the batch.
func (db *DB) QueryGroupContext(ctx context.Context, stmts []*Stmt, parallelism int) ([]*Rows, []*Metrics, error) {
	if parallelism < 0 {
		return nil, nil, fmt.Errorf("castle: negative Parallelism %d", parallelism)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(stmts)
	rows := make([]*Rows, n)
	mets := make([]*Metrics, n)

	var solo []int
	byKey := make(map[groupKey][]int) // positions in stmts
	var keyOrder []groupKey
	for i, stmt := range stmts {
		if stmt.db != db {
			return nil, nil, fmt.Errorf("castle: group member %d was prepared on another DB", i)
		}
		dev, uniform := stmt.pp.Uniform()
		if !stmt.opt.ScanSharing || n < 2 || !uniform {
			solo = append(solo, i)
			continue
		}
		o := stmt.opt
		key := groupKey{stmt.Fact(), dev, stmt.cat, stmt.cfg.MAXVL, o.DisableEnhancements, o.DisableFusion, o.Telemetry}
		if _, seen := byKey[key]; !seen {
			keyOrder = append(keyOrder, key)
		}
		byKey[key] = append(byKey[key], i)
	}

	for _, key := range keyOrder {
		candidates := byKey[key]
		members := candidates
		if key.dev == plan.DeviceCAPE {
			// Greedy admission against the fused-sweep eligibility check:
			// a member whose plan would push the group over the register
			// budget (or that needs GP-mode arithmetic) runs solo instead.
			members = members[:0:0]
			var plansAcc []*plan.Physical
			for _, i := range candidates {
				trial := append(plansAcc[:len(plansAcc):len(plansAcc)], stmts[i].pp.Phys)
				if exec.CAPESharedEligible(trial, stmts[i].cfg) == nil {
					members = append(members, i)
					plansAcc = trial
				} else {
					solo = append(solo, i)
				}
			}
		}
		if len(members) < 2 {
			solo = append(solo, members...)
			continue
		}
		if err := db.runSharedGroup(ctx, key.dev, stmts, members, rows, mets); err != nil {
			return nil, nil, err
		}
	}

	for _, i := range solo {
		r, m, err := stmts[i].Run(ctx, parallelism)
		if err != nil {
			return nil, nil, fmt.Errorf("castle: group member %d: %w", i, err)
		}
		rows[i], mets[i] = r, m
	}
	return rows, mets, nil
}

// runSharedGroup executes the members (positions in stmts) as one fused
// group on a fresh engine of dev and fills their result slots. Members
// share their group key, so the first one's preparation supplies the
// design point, statistics and telemetry.
func (db *DB) runSharedGroup(ctx context.Context, dev plan.Device, stmts []*Stmt, members []int, rows []*Rows, mets []*Metrics) error {
	start := time.Now()
	first := stmts[members[0]]
	tel, cat, cfg := first.opt.Telemetry, first.cat, first.cfg
	plans := make([]*plan.Physical, len(members))
	for i, m := range members {
		plans[i] = stmts[m].pp.Phys
	}

	gs := tel.StartSpan("fused-sweep")
	gs.SetStr("device", dev.String())
	gs.SetInt("members", int64(len(members)))
	out, err := exec.ExecuteShared(ctx, dev, plans, db.store, cfg, cat, !first.opt.DisableFusion, tel)
	gs.SetInt("cycles", out.Stats.TotalCycles)
	gs.End()
	if err != nil {
		return err
	}

	// The group estimate is best effort: a failure leaves EstCycles zero.
	est, _ := optimizer.PredictShared(plans, cat, cfg.MAXVL, dev)
	gid := sharedGroupID.Add(1)
	countSharedSweep(tel, strings.ToLower(dev.String()), len(members))
	for i, m := range members {
		res := out.Members[i]
		met := &Metrics{
			Cycles:           res.Cycles,
			Seconds:          float64(res.Cycles) / out.ClockHz,
			BytesMoved:       exec.ShareOf(out.BytesMoved, i, len(members)),
			DeviceUsed:       dev.String(),
			Breakdown:        res.Breakdown,
			GroupID:          gid,
			GroupSize:        len(members),
			SharedScanCycles: out.Stats.SharedScanCycles,
		}
		shape := ""
		if dev == plan.DeviceCAPE {
			met.Plan = plans[i].String()
			shape = plans[i].Shape().String()
		}
		if est.MemberCycles != nil {
			met.EstCycles = est.MemberCycles[i]
		}
		applyEstimates(met.Breakdown, stmts[m].pp)
		db.recordQueryMetrics(tel, nil, met, shape)
		// Preparation happened before the group formed, so the member's
		// flight record covers execution only.
		met.FlightSeq = db.recordFlight(tel, stmts[m].sql, stmts[m].opt, met, len(res.Result.Rows), start, []string{"execute"})
		rows[m], mets[m] = db.decode(res.Result), met
	}
	return nil
}

// countSharedSweep records the fused-execution counters: one shared sweep
// on the device, n member queries served fused.
func countSharedSweep(tel *Telemetry, device string, n int) {
	if tel == nil {
		return
	}
	reg := tel.Metrics()
	reg.Counter(telemetry.MetricSharedSweeps,
		"Fused shared-scan executions (one per coalesced group).",
		telemetry.L("device", device)).Inc()
	reg.Counter(telemetry.MetricCoalescedQueries,
		"Member queries served by fused shared-scan executions.",
		telemetry.L("kind", "fused")).Add(int64(n))
}
