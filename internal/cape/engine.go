package cape

import (
	"fmt"
	"slices"

	"castle/internal/bitvec"
	"castle/internal/isa"
	"castle/internal/mem"
)

// VReg identifies an architectural vector register (v0..v31).
type VReg int

// Engine is a functional, cycle-cost simulator of one CAPE core.
//
// Vector registers hold 32-bit elements; mask values are produced and
// consumed as *bitvec.Vector (the RISC-V vector extension stores masks in
// vector registers, but a dedicated Go type keeps the operator code
// readable; every mask-producing or mask-consuming instruction still charges
// its architectural cost).
//
// All instruction methods execute functionally and charge cycles. The three
// cycle pools — control processor, CSB, and VMU/memory — are modelled as
// serialized (a vector instruction commits only after it completes in the
// CSB, §2.2), which is the paper's conservative instruction-level model.
type Engine struct {
	cfg Config
	mm  *mem.System

	vl     int
	layout Layout

	regs []vreg

	tracer *Tracer
	hook   CycleHook

	st Stats
}

// CycleHook observes cycle charges as the engine bills them, mirroring the
// three Stats pools (CSB attributed by Figure 7 class, control processor,
// VMU/memory). It runs inline on the charge paths alongside the Tracer, so
// a telemetry bridge sees exactly the cycles Stats accumulates — the sums
// match Stats() to the cycle.
type CycleHook interface {
	// CSBCycles is called for every CSB charge with its instruction class.
	CSBCycles(class isa.Class, cycles int64)
	// CPCycles is called for control-processor occupancy charges.
	CPCycles(cycles int64)
	// MemCycles is called for VMU transfer charges.
	MemCycles(cycles int64)
}

// AttachCycleHook starts streaming cycle charges into h (nil detaches).
func (e *Engine) AttachCycleHook(h CycleHook) { e.hook = h }

// addCSB centralizes CSB cycle attribution: every charge path (instruction
// issue, bulk billing, ABA discovery/extension) funnels through here so
// Stats and the CycleHook cannot diverge.
func (e *Engine) addCSB(class isa.Class, cycles int64) {
	e.st.CSBCycles += cycles
	e.st.CSBCyclesByClass[class] += cycles
	if e.hook != nil {
		e.hook.CSBCycles(class, cycles)
	}
}

// addCP centralizes control-processor cycle charges.
func (e *Engine) addCP(cycles int64) {
	e.st.CPCycles += cycles
	if e.hook != nil {
		e.hook.CPCycles(cycles)
	}
}

type vreg struct {
	data  []uint32
	width int  // known operating bitwidth (ABA); 32 when unknown
	known bool // width provided by DB statistics or discovered
	valid bool // contents survive only within one layout epoch

	// The search index holds the first indexVL (value, position) pairs
	// sorted by value, positions ascending within a value, so the
	// functional side of a search costs O(log VL + matches) instead of
	// O(VL). It is a simulator acceleration only — cycle charging is
	// unaffected. Any write to the register marks it stale; the next
	// search rebuilds it in place, reusing the buffers.
	idxVals, idxPos []uint32
	tmpVals, tmpPos []uint32 // radix-sort scratch
	indexed         bool
	indexVL         int
}

// invalidateIndex marks the search index stale after a write.
func (v *vreg) invalidateIndex() { v.indexed = false }

// buildIndex sorts the first vl (value, position) pairs with a stable LSD
// radix sort, one pass per byte, skipping bytes every element shares.
func (v *vreg) buildIndex(vl int) {
	vals, pos := grow(v.idxVals, vl), grow(v.idxPos, vl)
	tmpVals, tmpPos := grow(v.tmpVals, vl), grow(v.tmpPos, vl)
	var counts [4][256]int
	for i, x := range v.data[:vl] {
		vals[i], pos[i] = x, uint32(i)
		counts[0][x&0xff]++
		counts[1][x>>8&0xff]++
		counts[2][x>>16&0xff]++
		counts[3][x>>24]++
	}
	for b := range counts {
		shift := 8 * b
		c := &counts[b]
		if vl == 0 || c[vals[0]>>shift&0xff] == vl {
			continue
		}
		sum := 0
		for d, n := range c {
			c[d] = sum
			sum += n
		}
		for i, x := range vals {
			d := x >> shift & 0xff
			tmpVals[c[d]], tmpPos[c[d]] = x, pos[i]
			c[d]++
		}
		vals, tmpVals = tmpVals, vals
		pos, tmpPos = tmpPos, pos
	}
	v.idxVals, v.idxPos, v.tmpVals, v.tmpPos = vals, pos, tmpVals, tmpPos
	v.indexed, v.indexVL = true, vl
}

// grow returns s resized to n elements, reallocating only when it must.
func grow(s []uint32, n int) []uint32 {
	if cap(s) < n {
		return make([]uint32, n)
	}
	return s[:n]
}

// lookup returns the positions of key among the first vl elements, in
// ascending order. The slice aliases the index: it is valid until the
// register is next written or searched at another VL.
func (v *vreg) lookup(key uint32, vl int) []uint32 {
	if !v.indexed || v.indexVL != vl {
		v.buildIndex(vl)
	}
	lo, _ := slices.BinarySearch(v.idxVals, key)
	hi := lo
	for hi < len(v.idxVals) && v.idxVals[hi] == key {
		hi++
	}
	return v.idxPos[lo:hi]
}

// New returns an Engine for the given configuration.
func New(cfg Config) *Engine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	e := &Engine{
		cfg:    cfg,
		mm:     mem.NewSystem(cfg.Mem),
		vl:     cfg.MAXVL,
		layout: GPMode,
		regs:   make([]vreg, cfg.NumVRegs),
	}
	return e
}

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// Mem exposes the memory system (for traffic accounting in experiments).
func (e *Engine) Mem() *mem.System { return e.mm }

// VL returns the active vector length.
func (e *Engine) VL() int { return e.vl }

// Layout returns the active data layout.
func (e *Engine) Layout() Layout { return e.layout }

// SetVL executes vsetvl: the active vector length becomes min(req, MAXVL)
// and the granted length is returned (RISC-V vector-length agnostic code
// requests the remaining input length and receives the hardware grant).
func (e *Engine) SetVL(req int) int {
	if req < 0 {
		panic("cape: negative vector length")
	}
	e.chargeCSB(isa.OpVSetVL, isa.SetVLSteps)
	if req > e.cfg.MAXVL {
		req = e.cfg.MAXVL
	}
	e.vl = req
	return req
}

// SetLayout executes vsetdl (§5.2). When ADL is disabled the instruction
// decodes to a no-op and the engine stays in GP mode. Switching layouts
// invalidates all vector register contents (the bits are reinterpreted in
// the new layout); masks survive only through Relayout.
func (e *Engine) SetLayout(l Layout) {
	e.chargeCSB(isa.OpVSetDL, isa.SetDLSteps)
	if !e.cfg.EnableADL {
		return
	}
	if l == e.layout {
		return
	}
	e.layout = l
	for i := range e.regs {
		e.regs[i].valid = false
	}
}

// Relayout executes vrelayout (§5.2): it carries a mask across a layout
// switch for two cycles. The returned mask is usable in the new layout.
func (e *Engine) Relayout(m *bitvec.Vector) *bitvec.Vector {
	e.chargeCSB(isa.OpVRelayout, isa.RelayoutSteps)
	return m.Clone()
}

// ChargeStreamRead bills a VMU read of n bytes that is not tied to a
// register load (e.g. probe-key streams, spilled masks).
func (e *Engine) ChargeStreamRead(n int64) { e.chargeMem(e.mm.StreamRead(n)) }

// ChargeStreamWrite bills a VMU write of n bytes (compacted values arrays,
// spilled masks, materialized results).
func (e *Engine) ChargeStreamWrite(n int64) { e.chargeMem(e.mm.StreamWrite(n)) }

// Scalar charges n scalar control-processor instructions (loop control,
// address generation, branches around the vector stream).
func (e *Engine) Scalar(n int64) {
	e.addCP(int64(float64(n)*e.cfg.ScalarCPI + 0.5))
	e.st.ScalarInstrs += n
}

// CPAccess charges n data-dependent CP memory accesses over a working set
// of wsBytes (e.g. the CP-side hash of group results that merges Algorithm
// 2's per-partition output). With few groups this is an L1 hit per access;
// once the result set outgrows the CP's caches, the in-order core stalls —
// the effect behind the baseline overtaking Castle at very large group
// counts (Figure 12).
func (e *Engine) CPAccess(n int64, wsBytes int64) {
	if n <= 0 {
		return
	}
	e.addCP(int64(float64(n) * e.cfg.CPHierarchy.ExpectedAccessCycles(wsBytes)))
}

func (e *Engine) reg(r VReg) *vreg {
	if int(r) < 0 || int(r) >= len(e.regs) {
		panic(fmt.Sprintf("cape: vector register v%d out of range", int(r)))
	}
	return &e.regs[r]
}

func (e *Engine) validReg(r VReg) *vreg {
	v := e.reg(r)
	if !v.valid {
		panic(fmt.Sprintf("cape: v%d read while invalid (stale across a layout switch, or never loaded)", int(r)))
	}
	if len(v.data) < e.vl {
		panic(fmt.Sprintf("cape: v%d holds %d elements but VL is %d", int(r), len(v.data), e.vl))
	}
	return v
}

// chargeCSB records a vector instruction: CP issue occupancy plus the CSB
// step count, attributed to the opcode's Figure 7 class.
func (e *Engine) chargeCSB(op isa.Op, steps int64) {
	steps = int64(float64(steps)*e.cfg.stepMultiplier() + 0.5)
	e.st.VectorInstrs++
	e.addCP(int64(e.cfg.CPIssuePerVectorInstr))
	e.addCSB(op.Class(), steps)
	if e.st.InstrsByOp == nil {
		e.st.InstrsByOp = make(map[isa.Op]int64)
	}
	e.st.InstrsByOp[op]++
	e.trace(op, steps, 1)
}

// chargeMem records VMU transfer cycles.
func (e *Engine) chargeMem(cycles int64) {
	e.st.MemCycles += cycles
	if e.hook != nil {
		e.hook.MemCycles(cycles)
	}
}

// width returns the operating bitwidth for a register under ABA. Without
// ABA everything runs at the full 32-bit representation. With ABA, a width
// provided by the database (column min/max statistics) is used directly;
// otherwise the engine embeds a discovery phase in the instruction,
// searching the {4, 8, 16, 32}-bit guesses (§5.1).
func (e *Engine) width(v *vreg) int {
	if !e.cfg.EnableABA {
		return 32
	}
	if v.known {
		return v.width
	}
	// Embedded discovery: one masked all-zeroes/all-ones search pair per
	// guess, walking down from 32 bits.
	guesses := []int{16, 8, 4}
	w := 32
	need := v.neededWidth(e.vl)
	for _, g := range guesses {
		e.addCSB(isa.ClassOther, 2) // search all-0s + all-1s above bit g
		if need > g {
			break
		}
		w = g
	}
	v.width, v.known = w, true
	return w
}

// neededWidth computes the minimal bitwidth that represents every element.
func (v *vreg) neededWidth(vl int) int {
	var max uint32
	for _, x := range v.data[:vl] {
		if x > max {
			max = x
		}
	}
	w := 0
	for max != 0 {
		w++
		max >>= 1
	}
	if w == 0 {
		w = 1
	}
	return w
}

// snapWidth rounds a bitwidth up to the ABA guess set {4, 8, 16, 32}.
func snapWidth(w int) int {
	switch {
	case w <= 4:
		return 4
	case w <= 8:
		return 8
	case w <= 16:
		return 16
	default:
		return 32
	}
}

// abaExtend charges the bit-serial sign/zero-extension pass that restores
// the full representation after a reduced-width bit-serial operation (§5.1:
// "up to 16 cycles on instructions that take hundreds or thousands").
func (e *Engine) abaExtend(w int) {
	if w < 32 {
		ext := int64(32 - w)
		if ext > 16 {
			ext = 16
		}
		e.addCSB(isa.ClassOther, ext)
	}
}
