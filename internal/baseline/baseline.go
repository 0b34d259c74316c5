// Package baseline models the paper's comparison system: an aggressive
// out-of-order superscalar core (Skylake-class, Table 2) with AVX-512 SIMD
// extensions, iso-area with one CAPE core. Operators execute functionally
// (their results are cross-checked against the reference engine) while an
// analytic timing model charges cycles.
//
// The timing model captures the three effects that shape the paper's
// results:
//
//   - single-core streaming bandwidth is far below the 8-channel DDR4 peak
//     that CAPE's dedicated VMU sustains, so scan-dominated operators run
//     an order of magnitude slower per byte;
//   - random accesses (hash probes, aggregation table updates) cost more as
//     the working set spills through the cache hierarchy (Figures 11, 12);
//   - an out-of-order core overlaps compute with memory, so kernel cost is
//     the maximum, not the sum, of the two.
package baseline

import (
	"fmt"

	"castle/internal/bitvec"
	"castle/internal/cache"
	"castle/internal/mem"
)

// Config describes the baseline core (Table 2).
type Config struct {
	ClockHz    float64
	IssueWidth int
	// SIMDLanes is the number of 32-bit AVX-512 lanes.
	SIMDLanes int
	Hierarchy cache.Hierarchy
	// StreamBytesPerCycle is the single-core sustainable streaming
	// bandwidth. A Skylake-class core sustains roughly 12–14 GB/s from a
	// single thread — well below the 153.6 GB/s channel peak.
	StreamBytesPerCycle float64
	Mem                 mem.Config
	// Kernels holds the per-row instruction costs of the operator kernels
	// (the AVX-512 and scalar reference codebases of §4.1 differ here).
	Kernels KernelCosts
}

// KernelCosts parameterises the operator kernels' per-row instruction
// costs in cycles.
type KernelCosts struct {
	// CompareCyclesPerVector is one predicate evaluation over SIMDLanes
	// elements (load+compare+mask extract).
	CompareCyclesPerVector float64
	// MaskWriteCyclesPerVector stores the result bitmask per vector.
	MaskWriteCyclesPerVector float64
	// MatchBookkeepingCycles is per-matching-row result handling.
	MatchBookkeepingCycles float64
	// HashCyclesPerKey computes the hash of one key.
	HashCyclesPerKey float64
	// BuildCyclesPerRow is the insert bookkeeping beyond the table access.
	BuildCyclesPerRow float64
	// ProbeCyclesPerRow is the compare+advance of one probe.
	ProbeCyclesPerRow float64
	// AggUpdateCyclesPerRow adds a value into its group slot.
	AggUpdateCyclesPerRow float64
}

// AVX512Kernels returns the vectorized reference codebase's costs
// (branchless SIMD selection, hash-batching with SIMD probes).
func AVX512Kernels() KernelCosts {
	return KernelCosts{
		CompareCyclesPerVector:   1.5,
		MaskWriteCyclesPerVector: 1,
		MatchBookkeepingCycles:   0.5,
		HashCyclesPerKey:         2,
		BuildCyclesPerRow:        4,
		ProbeCyclesPerRow:        1.5,
		AggUpdateCyclesPerRow:    2,
	}
}

// ScalarKernels returns the scalar reference codebase's costs (§4.1; the
// automatic compiler vectorizer disabled). Branching per row and scalar
// hashing make every kernel component costlier.
func ScalarKernels() KernelCosts {
	return KernelCosts{
		CompareCyclesPerVector:   2, // per element (SIMDLanes is 1)
		MaskWriteCyclesPerVector: 1,
		MatchBookkeepingCycles:   1.5,
		HashCyclesPerKey:         4,
		BuildCyclesPerRow:        6,
		ProbeCyclesPerRow:        3,
		AggUpdateCyclesPerRow:    4,
	}
}

// DefaultConfig returns the Table 2 baseline: 8-issue OoO at 2.7 GHz with
// AVX-512, Skylake cache hierarchy, DDR4 memory.
func DefaultConfig() Config {
	return Config{
		ClockHz:             2.7e9,
		IssueWidth:          8,
		SIMDLanes:           16,
		Hierarchy:           cache.Skylake(),
		StreamBytesPerCycle: 4.8, // ~13 GB/s @ 2.7 GHz
		Mem:                 mem.DDR4(),
		Kernels:             AVX512Kernels(),
	}
}

// ScalarConfig returns the scalar reference codebase's core: the same
// machine running the non-vectorized binary (§4.1 disables the automatic
// compiler vectorizer), so SIMDLanes is 1 and every kernel is costlier.
func ScalarConfig() Config {
	cfg := DefaultConfig()
	cfg.SIMDLanes = 1
	cfg.Kernels = ScalarKernels()
	return cfg
}

// String summarises the design point.
func (c Config) String() string {
	return fmt.Sprintf("OoO %d-issue @%.1fGHz, AVX-512 (%d lanes), %s",
		c.IssueWidth, c.ClockHz/1e9, c.SIMDLanes, c.Hierarchy)
}

// CPU is a baseline core with cycle and traffic accounting.
type CPU struct {
	cfg    Config
	mm     *mem.System
	cycles float64
	hook   CycleHook
}

// CycleHook observes cycle charges as the timing model bills them — the
// baseline twin of cape.CycleHook, so CAPE-vs-CPU telemetry is
// span-for-span. The hook sees the same fractional cycles the accumulator
// adds; Cycles() truncates only at read time.
type CycleHook func(cycles float64)

// AttachCycleHook starts streaming cycle charges into h (nil detaches).
func (c *CPU) AttachCycleHook(h CycleHook) { c.hook = h }

// add centralizes cycle accumulation so the hook cannot diverge from the
// counter.
func (c *CPU) add(cycles float64) {
	c.cycles += cycles
	if c.hook != nil {
		c.hook(cycles)
	}
}

// New returns a baseline CPU.
func New(cfg Config) *CPU {
	return &CPU{cfg: cfg, mm: mem.NewSystem(cfg.Mem)}
}

// Config returns the configuration.
func (c *CPU) Config() Config { return c.cfg }

// Mem exposes the memory system for traffic accounting (§6.3).
func (c *CPU) Mem() *mem.System { return c.mm }

// Cycles returns accumulated cycles.
func (c *CPU) Cycles() int64 { return int64(c.cycles) }

// Seconds returns accumulated wall time.
func (c *CPU) Seconds() float64 { return c.cycles / c.cfg.ClockHz }

// RawCycles returns the fractional cycle accumulator (Cycles truncates).
// Parallel merges compare cores on the raw value so sub-cycle differences
// cannot flip which core is critical.
func (c *CPU) RawCycles() float64 { return c.cycles }

// Fork clones the CPU into k sibling cores for a morsel-parallel sweep on
// the same socket. Each clone gets an independent cycle counter and memory
// traffic accounting but no hook (per-core telemetry closures are not
// shareable; attach fresh hooks per core).
//
// The clones model resource sharing on a multicore: private L1/L2 are
// per-core and keep their capacity, while the last (shared) cache level is
// split k ways, so random-access working sets spill earlier when more cores
// run — the classic contention effect. Per-core streaming bandwidth is left
// unchanged: k cores at ~13 GB/s each stay under the 153.6 GB/s socket peak
// for any k this simulator schedules.
func (c *CPU) Fork(k int) []*CPU {
	if k < 1 {
		panic(fmt.Sprintf("baseline: Fork(%d): need at least one core", k))
	}
	cores := make([]*CPU, k)
	for i := range cores {
		cfg := c.cfg
		levels := make([]cache.Level, len(cfg.Hierarchy.Levels))
		copy(levels, cfg.Hierarchy.Levels)
		if n := len(levels); n > 0 && k > 1 {
			levels[n-1].CapacityBytes /= int64(k)
		}
		cfg.Hierarchy.Levels = levels
		cores[i] = New(cfg)
	}
	return cores
}

// AbsorbElapsed adds cycles to the counter without firing the hook. Used
// when a parent core absorbs the critical (max-cycle) forked core after a
// parallel sweep: per-core hooks already streamed those charges as work, and
// the elapsed-time absorption must not double-count them.
func (c *CPU) AbsorbElapsed(cycles float64) { c.cycles += cycles }

// AbsorbTraffic folds a forked core's memory-traffic counters into c
// without any cycle cost, keeping BytesMoved a work metric (§6.3) that sums
// over all cores.
func (c *CPU) AbsorbTraffic(o *CPU) {
	if o == nil {
		return
	}
	c.mm.Absorb(o.mm)
}

// ChargeCompute charges pure compute cycles.
func (c *CPU) ChargeCompute(cycles float64) { c.add(cycles) }

// ChargeStream charges a streaming kernel that reads/writes the given bytes
// while executing computeCycles of work; the OoO core and the prefetchers
// overlap the two, so the cost is their maximum.
func (c *CPU) ChargeStream(computeCycles float64, bytes int64) {
	memCycles := float64(bytes) / c.cfg.StreamBytesPerCycle
	if memCycles > computeCycles {
		c.add(memCycles)
	} else {
		c.add(computeCycles)
	}
	c.mm.AccountRead(bytes)
}

// ChargeStreamWrite charges a streaming write of n bytes overlapped with
// computeCycles of work.
func (c *CPU) ChargeStreamWrite(computeCycles float64, bytes int64) {
	memCycles := float64(bytes) / c.cfg.StreamBytesPerCycle
	if memCycles > computeCycles {
		c.add(memCycles)
	} else {
		c.add(computeCycles)
	}
	c.mm.AccountWrite(bytes)
}

// ChargeRandomAccesses charges n data-dependent accesses over a working set
// of wsBytes, plus the DRAM traffic of the misses.
func (c *CPU) ChargeRandomAccesses(n int64, wsBytes int64) {
	if n <= 0 {
		return
	}
	c.add(float64(n) * c.cfg.Hierarchy.ExpectedAccessCycles(wsBytes))
	missed := float64(n) * c.cfg.Hierarchy.DRAMMissFraction(wsBytes)
	c.mm.AccountRead(int64(missed) * int64(c.cfg.Hierarchy.LineBytes))
}

// CmpFunc is a scalar predicate on a column value.
type CmpFunc func(uint32) bool

// SelectionScan applies pred to col with AVX-512 16-lane compares and
// returns the match mask. Cost: one vector compare per 16 rows overlapped
// with streaming the column, plus mask writes that grow with selectivity
// (the paper notes baseline selection cost rises slightly with selectivity).
func (c *CPU) SelectionScan(col []uint32, pred CmpFunc) *bitvec.Vector {
	n := len(col)
	m := bitvec.New(n)
	matches := 0
	for i, x := range col {
		if pred(x) {
			m.Set(i)
			matches++
		}
	}
	k := c.cfg.Kernels
	vectors := float64(n)/float64(c.cfg.SIMDLanes) + 1
	c.ChargeStream(vectors*(k.CompareCyclesPerVector+k.MaskWriteCyclesPerVector), int64(n)*4)
	// Per-match result bookkeeping is serially dependent on the compare
	// output and does not hide under the stream (§7.1: baseline selection
	// cost grows with selectivity).
	c.ChargeCompute(float64(matches) * k.MatchBookkeepingCycles)
	return m
}

// SelectionScanResident is SelectionScan for a column already streamed into
// the core's working set this pass (a shared fused sweep streams each fact
// column once for the whole group). The compare/mask work is charged as
// compute — it no longer hides under a stream it does not issue — and the
// per-match bookkeeping is unchanged, so a member's functional result is
// identical to the solo kernel's.
func (c *CPU) SelectionScanResident(col []uint32, pred CmpFunc) *bitvec.Vector {
	n := len(col)
	m := bitvec.New(n)
	matches := 0
	for i, x := range col {
		if pred(x) {
			m.Set(i)
			matches++
		}
	}
	k := c.cfg.Kernels
	vectors := float64(n)/float64(c.cfg.SIMDLanes) + 1
	c.ChargeCompute(vectors * (k.CompareCyclesPerVector + k.MaskWriteCyclesPerVector))
	c.ChargeCompute(float64(matches) * k.MatchBookkeepingCycles)
	return m
}

// HashTable is a minimal open-addressing uint32->uint32 map used by the
// join and aggregation kernels (functional only; timing is analytic). It is
// exported opaquely so an executor can build a dimension table once on the
// primary core and probe it from several forked cores; all mutation stays
// inside this package.
type HashTable struct {
	keys  []uint32
	vals  []uint32
	used  []bool
	mask  uint32
	count int
}

func newHashTable(capacity int) *HashTable {
	size := 16
	for size < capacity*2 {
		size <<= 1
	}
	return &HashTable{
		keys: make([]uint32, size),
		vals: make([]uint32, size),
		used: make([]bool, size),
		mask: uint32(size - 1),
	}
}

func hash32(x uint32) uint32 {
	x ^= x >> 16
	x *= 0x7feb352d
	x ^= x >> 15
	x *= 0x846ca68b
	x ^= x >> 16
	return x
}

func (h *HashTable) put(k, v uint32) {
	i := hash32(k) & h.mask
	for h.used[i] {
		if h.keys[i] == k {
			h.vals[i] = v
			return
		}
		i = (i + 1) & h.mask
	}
	h.used[i], h.keys[i], h.vals[i] = true, k, v
	h.count++
}

func (h *HashTable) get(k uint32) (uint32, bool) {
	i := hash32(k) & h.mask
	for h.used[i] {
		if h.keys[i] == k {
			return h.vals[i], true
		}
		i = (i + 1) & h.mask
	}
	return 0, false
}

// bytes returns the table's working-set size (key+value+metadata per slot).
func (h *HashTable) bytes() int64 { return int64(len(h.keys)) * 9 }

// BuildHashSemi builds a semi-join hash table on the dimension keys,
// charging the build to c. The table is read-only afterwards, so several
// forked cores may probe it concurrently.
func (c *CPU) BuildHashSemi(dimKeys []uint32) *HashTable {
	ht := newHashTable(len(dimKeys))
	for _, k := range dimKeys {
		ht.put(k, 1)
	}
	c.chargeBuild(len(dimKeys), ht)
	return ht
}

// BuildHashMap builds a key→attribute hash table (dimVals[i] for
// dimKeys[i]), charging the build to c.
func (c *CPU) BuildHashMap(dimKeys, dimVals []uint32) *HashTable {
	if len(dimKeys) != len(dimVals) {
		panic("baseline: dimension key/value length mismatch")
	}
	ht := newHashTable(len(dimKeys))
	for i, k := range dimKeys {
		ht.put(k, dimVals[i])
	}
	c.chargeBuild(len(dimKeys), ht)
	return ht
}

// ProbeSemi probes ht with the fact foreign-key column and returns the
// fact-side match mask. probeMask, when non-nil, restricts which fact rows
// probe (rows filtered out by earlier selections are skipped by the
// optimized kernel). The returned mask is indexed relative to factFK, so a
// forked core can probe a sub-range of the column.
func (c *CPU) ProbeSemi(factFK []uint32, ht *HashTable, probeMask *bitvec.Vector) *bitvec.Vector {
	out := bitvec.New(len(factFK))
	probes := 0
	if probeMask == nil {
		for i, k := range factFK {
			if _, ok := ht.get(k); ok {
				out.Set(i)
			}
		}
		probes = len(factFK)
	} else {
		for i := probeMask.First(); i != -1; i = probeMask.NextAfter(i) {
			if _, ok := ht.get(factFK[i]); ok {
				out.Set(i)
			}
			probes++
		}
	}
	c.chargeProbe(probes, len(factFK), ht)
	return out
}

// ProbeMap probes ht like ProbeSemi but also materializes the dimension
// attribute into a fact-aligned output column (vals[i] is meaningful where
// the mask is set).
func (c *CPU) ProbeMap(factFK []uint32, ht *HashTable, probeMask *bitvec.Vector) (*bitvec.Vector, []uint32) {
	out := bitvec.New(len(factFK))
	vals := make([]uint32, len(factFK))
	probes := 0
	visit := func(i int) {
		if v, ok := ht.get(factFK[i]); ok {
			out.Set(i)
			vals[i] = v
		}
		probes++
	}
	if probeMask == nil {
		for i := range factFK {
			visit(i)
		}
	} else {
		for i := probeMask.First(); i != -1; i = probeMask.NextAfter(i) {
			visit(i)
		}
	}
	c.chargeProbe(probes, len(factFK), ht)
	// Materializing the fact-aligned value column writes whole cachelines:
	// scattered qualifying rows touch nearly every line, so traffic is the
	// smaller of one line per probe and the full column.
	line := int64(c.cfg.Hierarchy.LineBytes)
	wbytes := int64(probes) * line
	if full := int64(len(factFK)) * 4; wbytes > full {
		wbytes = full
	}
	c.ChargeStreamWrite(0, wbytes)
	return out, vals
}

// ProbeSemiResident is ProbeSemi for a foreign-key column already streamed
// by the shared fused sweep: the probe compute and random accesses are
// charged in full, but the trailing FK column stream is not re-billed.
func (c *CPU) ProbeSemiResident(factFK []uint32, ht *HashTable, probeMask *bitvec.Vector) *bitvec.Vector {
	out := bitvec.New(len(factFK))
	probes := 0
	if probeMask == nil {
		for i, k := range factFK {
			if _, ok := ht.get(k); ok {
				out.Set(i)
			}
		}
		probes = len(factFK)
	} else {
		for i := probeMask.First(); i != -1; i = probeMask.NextAfter(i) {
			if _, ok := ht.get(factFK[i]); ok {
				out.Set(i)
			}
			probes++
		}
	}
	c.chargeProbeResident(probes, ht)
	return out
}

// ProbeMapResident is ProbeMap for a resident foreign-key column: the FK
// stream is skipped but the materialized attribute column is still written
// out (each member keeps its own fact-aligned attribute vectors).
func (c *CPU) ProbeMapResident(factFK []uint32, ht *HashTable, probeMask *bitvec.Vector) (*bitvec.Vector, []uint32) {
	out := bitvec.New(len(factFK))
	vals := make([]uint32, len(factFK))
	probes := 0
	visit := func(i int) {
		if v, ok := ht.get(factFK[i]); ok {
			out.Set(i)
			vals[i] = v
		}
		probes++
	}
	if probeMask == nil {
		for i := range factFK {
			visit(i)
		}
	} else {
		for i := probeMask.First(); i != -1; i = probeMask.NextAfter(i) {
			visit(i)
		}
	}
	c.chargeProbeResident(probes, ht)
	line := int64(c.cfg.Hierarchy.LineBytes)
	wbytes := int64(probes) * line
	if full := int64(len(factFK)) * 4; wbytes > full {
		wbytes = full
	}
	c.ChargeStreamWrite(0, wbytes)
	return out, vals
}

// HashJoinSemi builds a hash table on the dimension keys and probes it with
// the fact foreign-key column, returning the fact-side match mask (the
// semi-join the paper's microbenchmark measures, §7.2). It is
// charge-identical to BuildHashSemi followed by ProbeSemi.
func (c *CPU) HashJoinSemi(factFK []uint32, dimKeys []uint32, probeMask *bitvec.Vector) *bitvec.Vector {
	return c.ProbeSemi(factFK, c.BuildHashSemi(dimKeys), probeMask)
}

// HashJoinMap joins like HashJoinSemi but also materializes the dimension
// attribute (dimVals[i] for dimKeys[i]) into a fact-aligned output column.
func (c *CPU) HashJoinMap(factFK []uint32, dimKeys, dimVals []uint32, probeMask *bitvec.Vector) (*bitvec.Vector, []uint32) {
	return c.ProbeMap(factFK, c.BuildHashMap(dimKeys, dimVals), probeMask)
}

func (c *CPU) chargeBuild(rows int, ht *HashTable) {
	k := c.cfg.Kernels
	c.ChargeCompute(float64(rows) * (k.HashCyclesPerKey + k.BuildCyclesPerRow))
	c.ChargeRandomAccesses(int64(rows), ht.bytes())
	c.mm.AccountRead(int64(rows) * 4)
}

func (c *CPU) chargeProbe(probes, factRows int, ht *HashTable) {
	k := c.cfg.Kernels
	c.ChargeCompute(float64(probes) * (k.HashCyclesPerKey + k.ProbeCyclesPerRow))
	c.ChargeRandomAccesses(int64(probes), ht.bytes())
	// The FK column is streamed regardless of how many rows probe.
	c.ChargeStream(0, int64(factRows)*4)
}

// chargeProbeResident bills a probe whose foreign-key column is already
// resident (the shared sweep streamed it once for the whole group): probe
// compute and hash-table random accesses only, no column stream.
func (c *CPU) chargeProbeResident(probes int, ht *HashTable) {
	k := c.cfg.Kernels
	c.ChargeCompute(float64(probes) * (k.HashCyclesPerKey + k.ProbeCyclesPerRow))
	c.ChargeRandomAccesses(int64(probes), ht.bytes())
}

// AggResult is one group of a hash aggregation.
type AggResult struct {
	Key uint32
	Sum int64
}

// HashAggregate groups rows by groupCol and sums valCol per group,
// restricted to rows in mask (nil = all rows). This is the baseline for
// Castle's Algorithm 2 (§7.3); its cost is dominated by random updates into
// the aggregation table, which collapse once the table exceeds the LLC.
func (c *CPU) HashAggregate(groupCol, valCol []uint32, mask *bitvec.Vector) []AggResult {
	if len(groupCol) != len(valCol) {
		panic("baseline: group/value column length mismatch")
	}
	sums := make(map[uint32]int64)
	order := make([]uint32, 0, 64)
	rows := 0
	visit := func(i int) {
		k := groupCol[i]
		if _, ok := sums[k]; !ok {
			order = append(order, k)
		}
		sums[k] += int64(valCol[i])
		rows++
	}
	if mask == nil {
		for i := range groupCol {
			visit(i)
		}
	} else {
		for i := mask.First(); i != -1; i = mask.NextAfter(i) {
			visit(i)
		}
	}
	// Timing: stream both columns, hash and update per row over a table
	// sized by the number of groups (~16 bytes per group slot, 2x slack).
	k := c.cfg.Kernels
	tableBytes := int64(len(order)) * 32
	c.ChargeStream(float64(rows)*(k.HashCyclesPerKey+k.AggUpdateCyclesPerRow), int64(len(groupCol))*8)
	c.ChargeRandomAccesses(int64(rows), tableBytes)

	out := make([]AggResult, len(order))
	for i, k := range order {
		out[i] = AggResult{Key: k, Sum: sums[k]}
	}
	return out
}

// SumReduce sums valCol over mask with AVX-512 (used for single-group
// aggregates like SSB query flight 1).
func (c *CPU) SumReduce(valCol []uint32, mask *bitvec.Vector) int64 {
	var sum int64
	rows := 0
	if mask == nil {
		for _, v := range valCol {
			sum += int64(v)
		}
		rows = len(valCol)
	} else {
		for i := mask.First(); i != -1; i = mask.NextAfter(i) {
			sum += int64(valCol[i])
			rows++
		}
	}
	vectors := float64(rows)/float64(c.cfg.SIMDLanes) + 1
	c.ChargeStream(vectors*2, int64(rows)*4)
	return sum
}

// MulSumReduce computes sum(a[i]*b[i]) over mask (SSB Q1's
// sum(lo_extendedprice * lo_discount)).
func (c *CPU) MulSumReduce(a, b []uint32, mask *bitvec.Vector) int64 {
	if len(a) != len(b) {
		panic("baseline: column length mismatch")
	}
	var sum int64
	rows := 0
	if mask == nil {
		for i := range a {
			sum += int64(a[i]) * int64(b[i])
		}
		rows = len(a)
	} else {
		for i := mask.First(); i != -1; i = mask.NextAfter(i) {
			sum += int64(a[i]) * int64(b[i])
			rows++
		}
	}
	vectors := float64(rows)/float64(c.cfg.SIMDLanes) + 1
	c.ChargeStream(vectors*3, int64(rows)*8)
	return sum
}
