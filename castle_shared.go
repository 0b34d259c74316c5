package castle

// castle_shared.go is the multi-query entry point behind scan sharing: a
// batch of statements submitted together is partitioned into fused
// shared-scan groups (same fact table, same routed device, fused-sweep
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

	"castle/internal/cape"
	"castle/internal/exec"
	"castle/internal/optimizer"
	"castle/internal/plan"
	"castle/internal/telemetry"
)

// sharedGroupID hands out process-unique fused-group identities for flight
// records and metrics.
var sharedGroupID atomic.Uint64

// ScanClass is the coalescing identity of a statement: queries agreeing on
// Fact and Device are candidates for one fused sweep, and queries sharing
// Fingerprint are textually identical after normalization (a scheduler can
// serve them from a single execution). Resolving a class costs one
// plan-cache lookup for an already-seen statement.
type ScanClass struct {
	// Fact is the fact table the query sweeps.
	Fact string
	// Device is the concrete engine the query would execute on under the
	// options (hybrid routing resolved).
	Device Device
	// Fingerprint is the normalized statement fingerprint.
	Fingerprint string
}

// ScanClassOf resolves the coalescing identity of a statement under opt.
func (db *DB) ScanClassOf(sqlText string, opt Options) (ScanClass, error) {
	dev, err := db.Route(sqlText, opt)
	if err != nil {
		return ScanClass{}, err
	}
	o := opt
	o.Device = dev
	cp, err := db.prepare(nil, sqlText, o, capeConfig(o).MAXVL)
	if err != nil {
		return ScanClass{}, err
	}
	return ScanClass{
		Fact:        cp.Bound.Fact,
		Device:      dev,
		Fingerprint: telemetry.FingerprintSQL(sqlText),
	}, nil
}

// sharedMember is one statement of a group batch bound to its caller slot.
type sharedMember struct {
	idx int // position in the caller's sqls slice
	sql string
	cp  optimizer.CachedPlan
}

// QueryGroup executes a batch of statements with background context; see
// QueryGroupContext.
func (db *DB) QueryGroup(sqls []string, opt Options) ([]*Rows, []*Metrics, error) {
	return db.QueryGroupContext(context.Background(), sqls, opt)
}

// QueryGroupContext executes a batch of statements together, fusing
// same-fact, same-device, sweep-eligible members into shared fact scans
// when opt.ScanSharing is set. Results and metrics align with sqls by
// index. Every member's rows are bit-identical to running it alone;
// fused members report GroupID/GroupSize and an attributed cycle share
// whose per-group sum equals the fused engine total exactly. Ineligible
// or solitary members fall back to ordinary solo execution transparently.
// Fused execution runs whole-query on the routed device; solo members
// keep the full option set. Any member's failure fails the batch.
func (db *DB) QueryGroupContext(ctx context.Context, sqls []string, opt Options) ([]*Rows, []*Metrics, error) {
	if err := opt.Device.validate(); err != nil {
		return nil, nil, err
	}
	if err := opt.Placement.validate(); err != nil {
		return nil, nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(sqls)
	rows := make([]*Rows, n)
	mets := make([]*Metrics, n)
	if n == 0 {
		return rows, mets, nil
	}

	// Members fuse only with members that sweep the same fact table on the
	// same routed device.
	type groupKey struct {
		fact string
		dev  plan.Device
	}
	var solo []int
	byKey := make(map[groupKey][]sharedMember)
	var keyOrder []groupKey
	if opt.ScanSharing && n > 1 {
		for i, sqlText := range sqls {
			dev, err := db.Route(sqlText, opt)
			if err != nil {
				return nil, nil, fmt.Errorf("castle: group member %d: %w", i, err)
			}
			o := opt
			o.Device = dev
			cp, err := db.prepare(nil, sqlText, o, capeConfig(o).MAXVL)
			if err != nil {
				return nil, nil, fmt.Errorf("castle: group member %d: %w", i, err)
			}
			key := groupKey{fact: cp.Bound.Fact, dev: plan.DeviceCAPE}
			if dev == DeviceCPU {
				key.dev = plan.DeviceCPU
			}
			if _, seen := byKey[key]; !seen {
				keyOrder = append(keyOrder, key)
			}
			byKey[key] = append(byKey[key], sharedMember{idx: i, sql: sqlText, cp: cp})
		}
	} else {
		for i := range sqls {
			solo = append(solo, i)
		}
	}

	cfg := capeConfig(opt)
	for _, key := range keyOrder {
		candidates := byKey[key]
		members := candidates
		if key.dev == plan.DeviceCAPE {
			// Greedy admission against the fused-sweep eligibility check:
			// a member whose plan would push the group over the register
			// budget (or that needs GP-mode arithmetic) runs solo instead.
			members = members[:0:0]
			var plansAcc []*plan.Physical
			for _, m := range candidates {
				trial := append(plansAcc[:len(plansAcc):len(plansAcc)], m.cp.Phys)
				if exec.CAPESharedEligible(trial, cfg) == nil {
					members = append(members, m)
					plansAcc = trial
				} else {
					solo = append(solo, m.idx)
				}
			}
		}
		if len(members) < 2 {
			for _, m := range members {
				solo = append(solo, m.idx)
			}
			continue
		}
		if err := db.runSharedGroup(ctx, key.dev, members, opt, cfg, rows, mets); err != nil {
			return nil, nil, err
		}
	}

	for _, i := range solo {
		r, m, err := db.QueryContext(ctx, sqls[i], opt)
		if err != nil {
			return nil, nil, fmt.Errorf("castle: group member %d: %w", i, err)
		}
		rows[i], mets[i] = r, m
	}
	return rows, mets, nil
}

// shareOf splits a group-level term across n members exactly (largest
// remainder by member position), matching the executors' attribution.
func shareOf(t int64, i, n int) int64 {
	s := t / int64(n)
	if int64(i) < t%int64(n) {
		s++
	}
	return s
}

// runSharedGroup executes one fused group on a fresh engine of dev and
// fills the members' caller slots.
func (db *DB) runSharedGroup(ctx context.Context, dev plan.Device, members []sharedMember, opt Options, cfg cape.Config, rows []*Rows, mets []*Metrics) error {
	start := time.Now()
	tel := opt.Telemetry
	cat := db.catalog()
	plans := make([]*plan.Physical, len(members))
	for i, m := range members {
		plans[i] = m.cp.Phys
		if plans[i] == nil {
			// CPU preparations stop at binding; the group estimate and the
			// members' per-operator predictions need a plan shape.
			p, err := optimizer.Optimize(m.cp.Bound, cat, cfg.MAXVL)
			if err != nil {
				return err
			}
			plans[i] = p
		}
	}

	gs := tel.StartSpan("fused-sweep")
	gs.SetStr("device", dev.String())
	gs.SetInt("members", int64(len(members)))
	out, err := exec.ExecuteShared(ctx, dev, plans, db.store, cfg, cat, !opt.DisableFusion, tel)
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
			BytesMoved:       shareOf(out.BytesMoved, i, len(members)),
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
		applyEstimates(met.Breakdown, optimizer.PredictUniform(plans[i], cat, cfg.MAXVL, dev))
		db.finishGroupMember(tel, met, m, shape, start)
		rows[m.idx], mets[m.idx] = db.decode(res.Result), met
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

// finishGroupMember records one fused member's run-level metrics and flight
// record, stamping the group identity. Preparation happened before the
// group formed, so the member's flight phases carry execution only.
func (db *DB) finishGroupMember(tel *Telemetry, m *Metrics, mem sharedMember, shape string, start time.Time) {
	db.recordQueryMetrics(tel, nil, m, shape)
	if tel == nil {
		return
	}
	rowCount := 0
	if m.Breakdown != nil {
		for _, o := range m.Breakdown.Operators {
			if o.Operator == "aggregate" {
				rowCount = int(o.Rows)
			}
		}
	}
	wall := time.Since(start).Microseconds()
	m.FlightSeq = tel.Flight().Record(telemetry.FlightRecord{
		SQL:         mem.sql,
		Fingerprint: telemetry.FingerprintSQL(mem.sql),
		Start:       start,
		WallMicros:  wall,
		Status:      "ok",
		Device:      m.DeviceUsed,
		Plan:        m.Plan,
		RowCount:    rowCount,
		Cycles:      m.Cycles,
		EstCycles:   m.EstCycles,
		GroupID:     m.GroupID,
		GroupSize:   m.GroupSize,
		Phases: []telemetry.FlightPhase{
			{Name: "execute", Micros: wall},
		},
		Ops: telemetry.FlightOps(m.Breakdown),
	})
}
