package exec

import (
	"strings"

	"castle/internal/baseline"
	"castle/internal/cape"
	"castle/internal/isa"
	"castle/internal/plan"
	"castle/internal/storage"
	"castle/internal/telemetry"
)

// engineHook bridges cape.CycleHook onto the metrics registry: every CSB
// charge increments the per-class cycle counter, so after a run the
// castle_csb_cycles_total series match cape.Stats.CSBCyclesByClass exactly
// (both sides are fed by the same charge paths).
type engineHook struct {
	csb [isa.NumClasses]*telemetry.Counter
	cp  *telemetry.Counter
	mem *telemetry.Counter
}

func (h *engineHook) CSBCycles(class isa.Class, cycles int64) { h.csb[class].Add(cycles) }
func (h *engineHook) CPCycles(cycles int64)                   { h.cp.Add(cycles) }
func (h *engineHook) MemCycles(cycles int64)                  { h.mem.Add(cycles) }

// AttachEngineTelemetry streams a CAPE engine's cycle charges into tel's
// class-cycle counters. A nil tel detaches any previous hook.
func AttachEngineTelemetry(eng *cape.Engine, tel *telemetry.Telemetry) {
	if tel == nil {
		eng.AttachCycleHook(nil)
		return
	}
	reg := tel.Metrics()
	h := &engineHook{
		cp:  reg.Counter(telemetry.MetricCPCycles, "Simulated CAPE control-processor cycles."),
		mem: reg.Counter(telemetry.MetricMemCycles, "Simulated CAPE VMU/memory transfer cycles."),
	}
	for c := isa.Class(0); c < isa.NumClasses; c++ {
		h.csb[c] = reg.Counter(telemetry.MetricCSBCycles,
			"Simulated CSB cycles by Figure 7 instruction class.",
			telemetry.L("class", c.String()))
	}
	eng.AttachCycleHook(h)
}

// AttachCPUTelemetry streams a baseline CPU's cycle charges into tel. The
// timing model bills fractional cycles; the bridge accumulates them and
// forwards whole-cycle deltas so the counter tracks cpu.Cycles().
func AttachCPUTelemetry(cpu *baseline.CPU, tel *telemetry.Telemetry) {
	if tel == nil {
		cpu.AttachCycleHook(nil)
		return
	}
	ctr := tel.Metrics().Counter(telemetry.MetricCPUCycles, "Simulated baseline-CPU cycles.")
	var acc float64
	var billed int64
	cpu.AttachCycleHook(func(cycles float64) {
		acc += cycles
		if d := int64(acc) - billed; d > 0 {
			ctr.Add(d)
			billed += d
		}
	})
}

// countRowsScanned records one run's scanned rows on tel: the fact rows
// under the fact device, and each dimension's rows under the device that
// built it (dimDev nil: the fact device).
func countRowsScanned(tel *telemetry.Telemetry, db *storage.Database, q *plan.Query,
	factDev Device, dimDev func(dim string) Device) {

	if tel == nil {
		return
	}
	scanned := map[Device]int64{factDev: int64(db.MustTable(q.Fact).Rows())}
	for _, e := range q.Joins {
		dev := factDev
		if dimDev != nil {
			dev = dimDev(e.Dim)
		}
		scanned[dev] += int64(db.MustTable(e.Dim).Rows())
	}
	for _, dev := range []Device{DeviceCAPE, DeviceCPU} {
		if n, ok := scanned[dev]; ok {
			tel.Metrics().Counter(telemetry.MetricRowsScanned,
				"Rows scanned across fact and dimension tables.",
				telemetry.L("device", strings.ToLower(dev.String()))).Add(n)
		}
	}
}
