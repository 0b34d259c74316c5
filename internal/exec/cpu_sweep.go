package exec

// cpu_sweep.go drives the CPU fact stage over one row range: SIMD selection
// scans, then the pipelined probe pass. cpuSweep is the per-core kernel
// context; CPUExec.sweepFact runs one over the executor's own core when
// serial and one per forked core when parallel, and exec.Placed hands the
// filter/probe half's output to its own sinks when the aggregation tail is
// placed on CAPE.

import (
	"context"

	"castle/internal/baseline"
	"castle/internal/bitvec"
	"castle/internal/plan"
	"castle/internal/storage"
	"castle/internal/telemetry"
)

// cpuSweep is one core's share of the fact sweep and its accounting, each
// lane on its own goroutine. A sweep only reads shared state (storage,
// prepared dimensions, prebuilt hash tables) and writes its own fields,
// which is what makes the fan-out race-free.
type cpuSweep struct {
	cpu *baseline.CPU

	// resident marks a sweep whose fact columns were already streamed by a
	// shared fused scan (shared_cpu.go): kernels charge their compute and
	// random accesses but skip re-streaming the columns. Functional results
	// are unchanged.
	resident bool

	laneBooks

	// span hosts the per-operator child spans: the "fact-sweep" span when
	// serial, this core's "coreN" span when parallel.
	span *telemetry.Span
}

// run executes the fact-side pipeline over rows [base, end): SIMD selection
// scans, the pipelined probe pass, and the aggregation visit. With tables
// nil (serial) each join builds its hash table inline on this core; with
// tables set (parallel) the prebuilt read-only tables are probed. All row
// indexing is range-local, so every column is sliced once up front.
func (s *cpuSweep) run(ctx context.Context, q *plan.Query, db *storage.Database,
	joins []dimJoin, tables []joinTable, base, end int) error {

	sel, attrCols, err := s.runFilterJoins(ctx, q, db, joins, tables, base, end)
	if err != nil {
		return err
	}
	return s.runAggregate(ctx, q, db, sel, attrCols, base, end)
}

// runFilterJoins executes the range's Scan+Filter+JoinProbe operators (the
// fact stage up to, but not including, aggregation) and returns the
// surviving selection mask (nil = all rows) plus the materialized
// range-aligned dimension-attribute columns keyed "dim.attr".
func (s *cpuSweep) runFilterJoins(ctx context.Context, q *plan.Query, db *storage.Database,
	joins []dimJoin, tables []joinTable, base, end int) (*bitvec.Vector, map[string][]uint32, error) {

	cpu := s.cpu
	fact := db.MustTable(q.Fact)
	n := end - base

	// Fact selections: SIMD scans, masks ANDed.
	spf := s.span.Child("filter")
	filterStart := cpu.Cycles()
	var sel *bitvec.Vector
	for _, pr := range q.FactPreds {
		col := fact.MustColumn(pr.Column).Data[base:end]
		pr := pr
		var m *bitvec.Vector
		if s.resident {
			m = cpu.SelectionScanResident(col, func(v uint32) bool { return pr.Matches(v) })
		} else {
			m = cpu.SelectionScan(col, func(v uint32) bool { return pr.Matches(v) })
		}
		if sel == nil {
			sel = m
		} else {
			sel.And(m)
			cpu.ChargeCompute(float64(n) / 64) // word-wise mask AND
		}
	}
	s.filterCycles += cpu.Cycles() - filterStart
	spf.SetInt("cycles", cpu.Cycles()-filterStart)
	spf.SetInt("rows", int64(n))
	spf.End()

	// Pipelined probe pass: joins that feed group-by columns materialize
	// the attribute; pure filters stay semi-joins.
	attrCols := make(map[string][]uint32) // "dim.attr" -> range-aligned values
	for ji, j := range joins {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		e := j.edge
		spj := s.span.Child("join:" + e.Dim)
		joinStart := cpu.Cycles()
		fkCol := fact.MustColumn(e.FactFK).Data[base:end]

		switch len(e.NeedAttrs) {
		case 0:
			var m *bitvec.Vector
			switch {
			case tables == nil:
				m = cpu.HashJoinSemi(fkCol, j.keys, sel)
			case s.resident:
				m = cpu.ProbeSemiResident(fkCol, tables[ji].semi, sel)
			default:
				m = cpu.ProbeSemi(fkCol, tables[ji].semi, sel)
			}
			sel = intersect(sel, m)
		default:
			// One probe pass per needed attribute re-uses the same probe
			// pattern; the first probe prunes the selection mask.
			for ai, attr := range e.NeedAttrs {
				var m *bitvec.Vector
				var mat []uint32
				switch {
				case tables == nil:
					m, mat = cpu.HashJoinMap(fkCol, j.keys, j.vals[ai], sel)
				case s.resident:
					m, mat = cpu.ProbeMapResident(fkCol, tables[ji].attr[ai], sel)
				default:
					m, mat = cpu.ProbeMap(fkCol, tables[ji].attr[ai], sel)
				}
				attrCols[e.Dim+"."+attr] = mat
				if ai == 0 {
					sel = intersect(sel, m)
				}
			}
		}
		cy := cpu.Cycles() - joinStart
		s.perJoin[e.Dim] += cy
		spj.SetInt("cycles", cy)
		spj.SetInt("build_keys", int64(len(j.keys)))
		spj.End()
	}
	return sel, attrCols, nil
}

// intersect ANDs a nullable selection mask with a new mask.
func intersect(sel, m *bitvec.Vector) *bitvec.Vector {
	if sel == nil {
		return m
	}
	return sel.And(m)
}
