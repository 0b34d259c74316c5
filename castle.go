package castle

// castle.go is the public API: a facade over the internal packages that
// covers the full workflow — build or load a database, submit SQL, choose
// an execution device and CAPE design point, and read back results with
// simulation metrics. The internal packages stay importable only within
// this module; external users program against these types.

import (
	"context"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"castle/internal/cape"
	"castle/internal/exec"
	"castle/internal/optimizer"
	"castle/internal/plan"
	"castle/internal/sql"
	"castle/internal/ssb"
	"castle/internal/stats"
	"castle/internal/storage"
	"castle/internal/telemetry"
)

// DB is a columnar analytic database with its statistics catalog and
// prepared-plan cache. Queries may run concurrently (each execution gets
// its own simulated engine); schema changes (CreateTable, ImportCSV,
// column adds) must not race with in-flight queries, matching the usual
// analytic contract of load-then-serve. A change stales only the
// statistics of the table it touched: the next query recollects that
// table and shares every other table's statistics with the previous
// catalog.
type DB struct {
	store *storage.Database

	// mu guards the lazily collected catalog, the stale-table set and the
	// mutation version so concurrent first-queries collect statistics
	// exactly once.
	mu  sync.Mutex
	cat *stats.Catalog
	// stale names the tables changed since cat was collected.
	stale   map[string]bool
	version uint64
	// statsEpoch counts catalog collections. Plans are priced from the
	// histograms, so the plan cache's consistency token folds this in: a
	// statistics refresh stales every cached placement even when the schema
	// version alone has not moved.
	statsEpoch uint64

	plans *optimizer.PlanCache
}

func newDB(store *storage.Database) *DB {
	return &DB{store: store, stale: make(map[string]bool), plans: optimizer.NewPlanCache(0)}
}

// New returns an empty database. Add tables with CreateTable, then query.
func New() *DB {
	return newDB(storage.NewDatabase())
}

// GenerateSSB returns a Star Schema Benchmark database at the given scale
// factor (SF 1 ≈ 6M-row lineorder) with deterministic contents for a seed.
func GenerateSSB(sf float64, seed uint64) *DB {
	return newDB(ssb.Generate(ssb.Config{SF: sf, Seed: seed}))
}

// SSBQueries returns the 13 benchmark queries (paper numbering 1..13 =
// flights Q1.1..Q4.3).
func SSBQueries() []SSBQuery {
	qs := ssb.Queries()
	out := make([]SSBQuery, len(qs))
	for i, q := range qs {
		out[i] = SSBQuery{Num: q.Num, Flight: q.Flight, SQL: q.SQL}
	}
	return out
}

// SSBQuery names one benchmark query.
type SSBQuery struct {
	Num    int
	Flight string
	SQL    string
}

// Open loads a database saved with Save (the CSTL binary format).
func Open(path string) (*DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	store, err := storage.ReadBinary(f)
	if err != nil {
		return nil, fmt.Errorf("castle: reading %s: %w", path, err)
	}
	return newDB(store), nil
}

// Save writes the database to path in the CSTL binary format.
func (db *DB) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return db.store.WriteBinary(f)
}

// ImportCSV adds a relation from a CSV file with a header row; columns
// whose values all parse as unsigned integers become integer columns, the
// rest are dictionary-encoded strings. Importing under an existing name
// replaces that relation. The import stales that table's statistics and
// every cached plan: the next query recollects statistics for this table
// only and re-plans against the new contents.
func (db *DB) ImportCSV(tableName, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	t, err := storage.ReadCSV(tableName, f)
	if err != nil {
		return err
	}
	db.store.Put(t)
	db.mutate(tableName)
	return nil
}

// mutate records a schema or data change to one table: its statistics are
// stale and plans bound against the previous contents must not be reused.
func (db *DB) mutate(table string) {
	db.mu.Lock()
	db.stale[table] = true
	db.version++
	db.mu.Unlock()
}

// storeVersion returns the current mutation version (the plan cache's
// consistency token).
func (db *DB) storeVersion() uint64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.version
}

// TableBuilder accumulates columns for a new relation.
type TableBuilder struct {
	db  *DB
	tbl *storage.Table
}

// CreateTable starts a new relation; chain Int/String column calls.
func (db *DB) CreateTable(name string) *TableBuilder {
	t := storage.NewTable(name)
	db.store.Add(t)
	db.mutate(name)
	return &TableBuilder{db: db, tbl: t}
}

// Int adds an integer column (32-bit, CAPE's native element size).
func (b *TableBuilder) Int(name string, values []uint32) *TableBuilder {
	b.tbl.AddIntColumn(name, values)
	b.db.mutate(b.tbl.Name)
	return b
}

// String adds a dictionary-encoded string column.
func (b *TableBuilder) String(name string, values []string) *TableBuilder {
	b.tbl.AddStringColumn(name, values)
	b.db.mutate(b.tbl.Name)
	return b
}

// Tables lists relation names in creation order.
func (db *DB) Tables() []string {
	ts := db.store.Tables()
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.Name
	}
	return out
}

// RowCount returns a relation's cardinality (0 for unknown tables).
func (db *DB) RowCount(table string) int {
	t := db.store.Table(table)
	if t == nil {
		return 0
	}
	return t.Rows()
}

// catalog lazily collects statistics: every table on first use, then only
// the tables changed since. Safe under concurrent QueryWith calls: the
// mutex makes the collect-once decision atomic, so simultaneous
// first-queries share a single catalog.
func (db *DB) catalog() *stats.Catalog {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.cat == nil || len(db.stale) > 0 {
		db.recollect(db.cat)
	}
	return db.cat
}

// recollect replaces the catalog with one that shares prev's statistics
// for every unchanged table (nil prev: none) and advances the stats epoch.
// It builds a new catalog rather than editing prev, which in-flight
// queries may still hold. Called with mu held.
func (db *DB) recollect(prev *stats.Catalog) {
	db.cat = stats.Update(prev, db.store, db.stale)
	clear(db.stale)
	db.statsEpoch++
}

// RefreshStats recollects statistics for every table immediately and
// advances the stats epoch, staling every cached plan: placements are
// priced from the histograms, so a plan prepared against old statistics
// may pick the wrong device for the data now present.
func (db *DB) RefreshStats() {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.recollect(nil)
}

// cacheToken derives the plan cache's consistency token from the mutation
// version and the stats epoch: a cached plan is reusable only when neither
// the stored data nor the statistics it was priced against have changed.
func (db *DB) cacheToken() uint64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return optimizer.Token(db.version, db.statsEpoch)
}

// Device selects the simulated execution engine.
type Device int

// Devices.
const (
	// DeviceCAPE executes on the associative-processor simulator.
	DeviceCAPE Device = iota
	// DeviceCPU executes on the AVX-512 out-of-order baseline model.
	DeviceCPU
	// DeviceHybrid routes dynamically: large-group aggregations and
	// huge-dimension joins fall back to the CPU, everything else runs on
	// CAPE (the paper's §7.2/§7.3 deployment model).
	DeviceHybrid
)

// String names the device for logs and API payloads.
func (d Device) String() string {
	switch d {
	case DeviceCAPE:
		return "cape"
	case DeviceCPU:
		return "cpu"
	case DeviceHybrid:
		return "hybrid"
	}
	return fmt.Sprintf("device(%d)", int(d))
}

// validate rejects out-of-range device values instead of letting them fall
// through to an arbitrary execution path.
func (d Device) validate() error {
	if d < DeviceCAPE || d > DeviceHybrid {
		return fmt.Errorf("castle: unknown device %d (valid: DeviceCAPE, DeviceCPU, DeviceHybrid)", int(d))
	}
	return nil
}

// ErrUnsupported marks a query whose shape the forced device cannot run —
// a grouped SUM(a*b) on CAPE with its enhancements (the adaptive data
// layout) on. DeviceHybrid routes such queries to the CPU.
var ErrUnsupported = plan.ErrUnsupported

// ParseDevice maps a device name ("cape", "cpu", "hybrid") to its Device.
func ParseDevice(s string) (Device, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "cape":
		return DeviceCAPE, nil
	case "cpu":
		return DeviceCPU, nil
	case "hybrid":
		return DeviceHybrid, nil
	}
	return 0, fmt.Errorf("castle: unknown device %q (valid: cape, cpu, hybrid)", s)
}

// Placement selects the device-assignment granularity for DeviceHybrid.
type Placement int

// Placements.
const (
	// PlacementWholeQuery routes the entire query to one engine with the
	// §7.2 crossover heuristics (the historical hybrid behaviour).
	PlacementWholeQuery Placement = iota
	// PlacementPerOperator lets the optimizer assign each physical operator
	// its own device: the fused fact stage (scan+filter+probes), each
	// dimension build, and the aggregation tail are placed independently
	// with explicit transfer costs on CAPE<->CPU crossings, so a query can
	// filter selectively on CAPE and aggregate its high-cardinality groups
	// on the CPU within one execution.
	PlacementPerOperator
)

// String names the placement mode for logs and API payloads.
func (p Placement) String() string {
	switch p {
	case PlacementWholeQuery:
		return "whole-query"
	case PlacementPerOperator:
		return "per-operator"
	}
	return fmt.Sprintf("placement(%d)", int(p))
}

// ParsePlacement maps a placement name ("whole-query", "per-operator") to
// its Placement.
func ParsePlacement(s string) (Placement, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "whole-query":
		return PlacementWholeQuery, nil
	case "per-operator":
		return PlacementPerOperator, nil
	}
	return 0, fmt.Errorf("castle: unknown placement %q (valid: whole-query, per-operator)", s)
}

func (p Placement) validate() error {
	if p < PlacementWholeQuery || p > PlacementPerOperator {
		return fmt.Errorf("castle: unknown placement %d (valid: PlacementWholeQuery, PlacementPerOperator)", int(p))
	}
	return nil
}

// PlanShape forces a join-plan shape (§3.4); ShapeAuto lets the AP-aware
// optimizer choose.
type PlanShape int

// Plan shapes.
const (
	ShapeAuto PlanShape = iota
	ShapeLeftDeep
	ShapeRightDeep
	ShapeZigZag
)

// Options configure one query execution.
type Options struct {
	Device Device
	// Placement selects the device-assignment granularity when Device is
	// DeviceHybrid: whole-query crossover routing (the default) or
	// per-operator placement with explicit transfer costs. Ignored for
	// DeviceCAPE and DeviceCPU, whose device is forced.
	Placement Placement
	// Shape forces a plan shape on CAPE (ShapeAuto = optimizer's choice).
	Shape PlanShape
	// MAXVL overrides the CAPE vector length (0 = the paper's 32,768).
	MAXVL int
	// DisableEnhancements runs unmodified CAPE (no ADL/MKS/ABA).
	DisableEnhancements bool
	// DisableFusion turns off operator fusion (§7.4 ablation).
	DisableFusion bool
	// DisablePlanCache bypasses the prepared-plan cache for this query:
	// the statement is parsed, bound and optimized from scratch and the
	// result is not cached.
	DisablePlanCache bool
	// Parallelism is the number of CAPE tiles (or baseline CPU cores) the
	// fact sweep may fan out across. Values <= 1 run serially; K > 1
	// partitions the sweep into morsels executed concurrently and merges
	// the partial aggregates deterministically, so results are bit-identical
	// to serial execution. The value is clamped to the available morsels;
	// it does not affect plan-cache identity. Negative values are rejected.
	// Stmt.Run takes the fan-out per run instead.
	Parallelism int
	// Streaming runs the pull-based batch pipeline: operators exchange
	// MAXVL-sized batches instead of materializing whole intermediates, and
	// device crossings double-buffer so each batch's transfer overlaps the
	// next batch's compute. Results are bit-identical to materializing;
	// mixed placements get an "xfer-overlap" credit row in the breakdown
	// and peak intermediate memory drops to O(K·MAXVL).
	Streaming bool
	// AdaptivePlacement enables the mid-query re-placement checkpoint for
	// per-operator placed executions (DeviceHybrid + PlacementPerOperator):
	// after the fact stage completes, the observed survivor count is
	// compared against the planner's estimate, and past the divergence
	// threshold the placement search re-runs for the unexecuted aggregation
	// tail with the observed cardinality — the tail switches devices when
	// the model flips. Results are bit-identical either way; only cycle
	// accounting can change. Adaptive runs always materialize the fact
	// stage's survivors (the checkpoint needs the complete count), so
	// Streaming is ignored when this is set.
	AdaptivePlacement bool
	// ScanSharing lets QueryGroupContext fuse the statement with other
	// eligible same-fact members into one shared fact sweep (one scan, N
	// predicate sets). Member results are bit-identical to solo execution;
	// only the scan stream is charged once and attributed pro-rata. Ignored
	// by the single-query entry points.
	ScanSharing bool
	// Telemetry, when non-nil, records the query lifecycle: a span tree
	// (query → parse/bind/optimize/execute → per-operator) into its trace
	// recorder and cycle/row counters into its metrics registry. Nil costs
	// nothing.
	Telemetry *Telemetry
}

// perOperator reports whether the optimizer places each operator on its
// own device.
func (o Options) perOperator() bool {
	return o.Device == DeviceHybrid && o.Placement == PlacementPerOperator
}

// validate rejects option values no execution path accepts.
func (o Options) validate() error {
	if err := o.Device.validate(); err != nil {
		return err
	}
	if err := o.Placement.validate(); err != nil {
		return err
	}
	if o.Parallelism < 0 {
		return fmt.Errorf("castle: negative Parallelism %d", o.Parallelism)
	}
	return nil
}

// Telemetry bundles a span recorder and a metrics registry. Create one with
// NewTelemetry, pass it via Options.Telemetry across any number of queries,
// then export with WriteChromeTrace (Perfetto / chrome://tracing) and
// WritePrometheus.
type Telemetry = telemetry.Telemetry

// NewTelemetry returns a telemetry sink with default capacity.
func NewTelemetry() *Telemetry { return telemetry.New() }

// Breakdown is the per-operator cycle breakdown behind EXPLAIN ANALYZE.
type Breakdown = telemetry.Breakdown

// OperatorStats is one operator row of a Breakdown.
type OperatorStats = telemetry.OperatorStats

// ParallelStats describes how an execution's fact sweep fanned out: tile
// (or core) count, per-tile work, and the elapsed-versus-work cycle views.
type ParallelStats = exec.ParallelStats

// AdaptiveStats reports what the mid-query re-placement checkpoint saw and
// did (Options.AdaptivePlacement).
type AdaptiveStats = exec.AdaptiveStats

// Metrics reports the simulation cost of one execution.
type Metrics struct {
	// Cycles is the end-to-end cycle count at 2.7 GHz.
	Cycles int64
	// Seconds is the simulated wall time.
	Seconds float64
	// BytesMoved is DRAM traffic in both directions.
	BytesMoved int64
	// Plan describes the executed physical plan (CAPE only).
	Plan string
	// CSBBreakdown gives the Figure 7 class shares (CAPE only).
	CSBBreakdown map[string]float64
	// DeviceUsed names the engine that ran ("CAPE" or "CPU") — relevant
	// for DeviceHybrid.
	DeviceUsed string
	// Breakdown is the per-operator cycle breakdown of the execution (the
	// EXPLAIN ANALYZE table). Its operator cycles sum exactly to Cycles.
	Breakdown *Breakdown
	// Parallel profiles the fact sweep's fan-out (Tiles == 1 when serial).
	// Cycles above reports the elapsed view; Parallel.WorkCycles adds back
	// the tile cycles that overlapped under the critical tile — the energy
	// and §6.3 byte-accounting view.
	Parallel ParallelStats
	// EstCycles is the placement cost model's predicted total for the
	// placement that executed (transfers included); the same model prices
	// the per-operator "est" column of the Breakdown. Zero when no
	// prediction applied.
	EstCycles int64
	// AltEstCycles is the predicted total of the best alternative placement
	// the optimizer rejected (the other device for forced/uniform runs, the
	// runner-up fact/agg assignment for per-operator placement). When
	// Cycles exceeds it, perfect information would have flipped the
	// placement — the would-flip counter tracks exactly that. Meaningful
	// only when AltFeasible is true.
	AltEstCycles int64
	// AltFeasible reports whether a rejected alternative placement existed
	// at all: a grouped SUM(a*b) tail can only run on the CPU, so such
	// plans have no alternative and their AltEstCycles is not a runner-up
	// estimate. The would-flip counter never fires for them.
	AltFeasible bool
	// Replaced reports whether the adaptive checkpoint moved the
	// aggregation tail to a different device mid-query.
	Replaced bool
	// Adaptive carries the checkpoint's accounting (estimate, observation,
	// divergence, outcome) when AdaptivePlacement ran; nil otherwise.
	Adaptive *AdaptiveStats
	// FlightSeq is the sequence number of the flight record this execution
	// committed to Options.Telemetry's flight recorder (0 without
	// telemetry).
	FlightSeq uint64
	// Cluster carries the scale-out cost accounting when the query ran
	// through a Cluster: per-node elapsed/work cycle views, cross-node
	// shuffle bytes, and shard-pruning decisions. Nil for single-node
	// executions.
	Cluster *ClusterStats
	// StreamBatches counts the batches the streaming pipeline pulled
	// (0 for materializing runs).
	StreamBatches int64
	// PeakBatchBytes is the high-water mark of bytes resident in streaming
	// batches — O(K·MAXVL) by construction (0 for materializing runs).
	PeakBatchBytes int64
	// XferOverlapCycles is the transfer time hidden under compute by
	// double-buffered crossings; the breakdown's "xfer-overlap" row credits
	// exactly this amount back, so Cycles already reflects the overlap.
	XferOverlapCycles int64
	// GroupID identifies the fused shared-scan group this execution was a
	// member of (0 when the query ran solo). Members of one group share the
	// id; Cycles then reports the member's attributed share, and the group
	// members' Cycles sum to the fused run's engine total exactly.
	GroupID uint64
	// GroupSize is the member count of the fused group (0 when solo).
	GroupSize int
	// SharedScanCycles is the fused fact-scan stream charged once for the
	// whole group (the same value on every member); this member's
	// attributed share appears as the breakdown's "shared-scan" row.
	SharedScanCycles int64
}

// Rows is a decoded result relation: group-key columns first (strings
// decoded through their dictionaries), then one column per aggregate.
type Rows struct {
	Columns []string
	Data    [][]string
	// Raw exposes the undecoded row values for programmatic use: group
	// keys as encoded uint32s and aggregates as int64s.
	Raw []RawRow
}

// RawRow is one result row in encoded form.
type RawRow struct {
	Keys []uint32
	Aggs []int64
}

// Format renders the relation as an aligned text table.
func (r *Rows) Format() string {
	var b strings.Builder
	for _, c := range r.Columns {
		fmt.Fprintf(&b, "%-24s", c)
	}
	b.WriteByte('\n')
	for _, row := range r.Data {
		for _, v := range row {
			fmt.Fprintf(&b, "%-24s", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Query executes SQL on the full CAPE design point (all enhancements, the
// AP-aware optimizer) and returns the result relation.
func (db *DB) Query(sqlText string) (*Rows, error) {
	rows, _, err := db.QueryWith(sqlText, Options{})
	return rows, err
}

// QueryWith executes SQL with explicit options and returns the result
// relation plus simulation metrics.
func (db *DB) QueryWith(sqlText string, opt Options) (*Rows, *Metrics, error) {
	return db.QueryContext(context.Background(), sqlText, opt)
}

// capeConfig builds the CAPE design point the options select.
func capeConfig(opt Options) cape.Config {
	cfg := cape.DefaultConfig()
	if !opt.DisableEnhancements {
		cfg = cfg.WithEnhancements()
	}
	if opt.MAXVL > 0 {
		cfg.MAXVL = opt.MAXVL
	}
	return cfg
}

// Prepare compiles a statement once under opt: it validates the options,
// parses, binds and optimizes through the prepared-plan cache (one lookup;
// a hit skips all three), resolves hybrid routing and places the plan on
// its devices. The returned Stmt tells a scheduler which engine to lease
// (Device) and which table it sweeps (Fact) before anything runs. A failed
// preparation leaves a flight record on opt.Telemetry.
func (db *DB) Prepare(sqlText string, opt Options) (*Stmt, error) {
	start := time.Now()
	err := opt.validate()
	var stmt *Stmt
	if err == nil {
		sp := opt.Telemetry.StartSpan("prepare")
		stmt, err = db.prepare(sp, sqlText, opt)
		sp.End()
	}
	if err != nil {
		opt.Telemetry.RecordFailure(sqlText, start, err)
		return nil, err
	}
	return stmt, nil
}

// prepare compiles a statement for valid options, consulting the
// prepared-plan cache first. On a hit the parse/bind/optimize spans are
// skipped entirely and the parent span is stamped plan_cache=hit.
func (db *DB) prepare(parent *telemetry.Span, sqlText string, opt Options) (*Stmt, error) {
	if opt.Device == DeviceCPU {
		// The CPU runs no plan shape: forced CPU plans the optimizer's own
		// choice and shares its cache entry with the auto-shape devices.
		opt.Shape = ShapeAuto
	}
	cfg := capeConfig(opt)
	shapeForced := opt.Shape != ShapeAuto
	key := optimizer.Fingerprint(sqlText, "optimized", cfg.MAXVL, internalShape(opt.Shape), shapeForced)
	// Collect statistics before deriving the token, so the epoch stays put
	// between the Get and the Put. The statement plans and runs against
	// this catalog.
	cat := db.catalog()
	version := db.cacheToken()
	stmt := &Stmt{db: db, sql: sqlText, opt: opt, cfg: cfg, cat: cat}
	if !opt.DisablePlanCache {
		if cp, ok := db.plans.Get(key, version); ok {
			parent.SetStr("plan_cache", "hit")
			db.countPlanCache(opt.Telemetry, true)
			stmt.pp = place(cp.Phys, cat, cfg, opt)
			return stmt, nil
		}
	}

	sp := parent.Child("parse")
	parsed, err := sql.Parse(sqlText)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = parent.Child("bind")
	bound, err := plan.Bind(parsed, db.store)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = parent.Child("optimize")
	var phys *plan.Physical
	if shapeForced {
		phys, err = optimizer.BestWithShapeTraced(bound, cat, cfg.MAXVL, internalShape(opt.Shape), sp)
	} else {
		phys, err = optimizer.OptimizeTraced(bound, cat, cfg.MAXVL, sp)
	}
	sp.End()
	if err != nil {
		return nil, err
	}
	if !opt.DisablePlanCache {
		db.plans.Put(key, version, optimizer.CachedPlan{Bound: bound, Phys: phys})
		parent.SetStr("plan_cache", "miss")
		db.countPlanCache(opt.Telemetry, false)
	}
	stmt.pp = place(phys, cat, cfg, opt)
	return stmt, nil
}

// countPlanCache records a plan-cache outcome on the query's metrics
// registry (nil telemetry costs nothing).
func (db *DB) countPlanCache(tel *Telemetry, hit bool) {
	if tel == nil {
		return
	}
	if hit {
		tel.Metrics().Counter(telemetry.MetricPlanCacheHits, "Prepared-plan cache hits.").Inc()
	} else {
		tel.Metrics().Counter(telemetry.MetricPlanCacheMisses, "Prepared-plan cache misses.").Inc()
	}
}

// PlanCacheStats reports prepared-plan cache effectiveness for this DB.
type PlanCacheStats = optimizer.PlanCacheStats

// PlanCacheStats snapshots the prepared-plan cache counters.
func (db *DB) PlanCacheStats() PlanCacheStats { return db.plans.Stats() }

// QueryContext executes SQL with explicit options under a context: a
// canceled or expired ctx stops the simulated work at the next operator
// boundary and returns ctx.Err(). The database stays fully usable after a
// cancellation (each execution runs on its own simulated engine). It is
// Prepare and Run under one "query" span and one flight record.
func (db *DB) QueryContext(ctx context.Context, sqlText string, opt Options) (*Rows, *Metrics, error) {
	return db.run(ctx, nil, sqlText, opt, opt.Parallelism)
}

// Stmt is a statement compiled once by Prepare: parsed, bound, optimized
// and placed under one set of Options, with hybrid routing resolved. A Stmt
// may Run any number of times, concurrently: each Run executes on fresh
// engines against the statistics the statement was prepared with, and
// records its own flight record. Prepare again after a schema change, an
// import or RefreshStats to plan against the new contents.
type Stmt struct {
	db  *DB
	sql string
	opt Options
	cfg cape.Config
	cat *stats.Catalog
	// pp is the compiled plan. The cost model's annotations on it also
	// price the breakdown's est column.
	pp *plan.PlacedPlan
}

// Device is the engine the compiled plan's fact stage runs on — DeviceCAPE
// or DeviceCPU, never DeviceHybrid. It is the resource to lease before Run.
func (s *Stmt) Device() Device {
	if s.pp.FactDevice() == plan.DeviceCPU {
		return DeviceCPU
	}
	return DeviceCAPE
}

// Fact is the fact table the statement sweeps.
func (s *Stmt) Fact() string { return s.pp.Phys.Query.Fact }

// Run executes the statement with its fact sweep fanned out across
// parallelism tiles or cores, in place of Options.Parallelism. Cancellation
// behaves as in QueryContext, and a failed run leaves a flight record.
func (s *Stmt) Run(ctx context.Context, parallelism int) (*Rows, *Metrics, error) {
	return s.db.run(ctx, s, s.sql, s.opt, parallelism)
}

// run executes stmt — or, when stmt is nil, sqlText prepared under opt —
// under one "query" span, and records the attempt's flight record whether
// it succeeds or fails.
func (db *DB) run(ctx context.Context, stmt *Stmt, sqlText string, opt Options, parallelism int) (rows *Rows, m *Metrics, err error) {
	start := time.Now()
	defer func() {
		if err != nil {
			// Failed executions still leave a flight record, so
			// /debug/queries shows what was asked and how long the attempt
			// ran before failing.
			opt.Telemetry.RecordFailure(sqlText, start, err)
		}
	}()
	opt.Parallelism = parallelism
	if err := opt.validate(); err != nil {
		return nil, nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	tel := opt.Telemetry
	qs := tel.StartSpan("query")
	defer qs.End()
	phases := []string{"execute"}
	var ends []time.Time
	if stmt == nil {
		if stmt, err = db.prepare(qs, sqlText, opt); err != nil {
			return nil, nil, err
		}
		phases, ends = []string{"prepare", "execute"}, []time.Time{time.Now()}
	}

	pp, cat, cfg := stmt.pp, stmt.cat, stmt.cfg
	perOperator := opt.perOperator()
	ro := exec.RunOptions{
		CAPE:        cfg,
		Catalog:     cat,
		Fusion:      !opt.DisableFusion,
		Parallelism: parallelism,
		Streaming:   opt.Streaming,
		Telemetry:   tel,
		Span:        qs.Child("execute"),
	}
	pred := pp
	if perOperator && opt.AdaptivePlacement {
		// The replan hook re-runs the tail placement search with the
		// observed cardinality; the plan it returns carries the
		// observed-source estimates the breakdown attaches below.
		ro.Adaptive = &exec.AdaptiveOptions{
			EstSurvivors: pp.EstSurvivors,
			Replan: func(observed int64) plan.Device {
				pred, _ = optimizer.ReplaceTail(pp, cat, cfg.MAXVL, optimizer.DefaultCostModel(), observed)
				return pred.AggDevice()
			},
		}
	}
	if perOperator {
		ro.Span.SetStr("placement", PlacementPerOperator.String())
	}
	out, err := exec.Execute(ctx, pp, db.store, ro)
	if out != nil && out.Adaptive != nil {
		ro.Span.SetStr("adaptive", fmt.Sprintf("fired=%v replaced=%v", out.Adaptive.Fired, out.Adaptive.Replaced))
	}
	ro.Span.End()
	if err != nil {
		return nil, nil, err
	}

	m = &Metrics{
		Cycles:            out.Cycles,
		Seconds:           out.Seconds,
		BytesMoved:        out.BytesMoved,
		CSBBreakdown:      out.ClassShare,
		DeviceUsed:        out.Device,
		Breakdown:         out.Breakdown,
		Parallel:          out.Parallel,
		Adaptive:          out.Adaptive,
		StreamBatches:     out.Stream.Batches,
		PeakBatchBytes:    out.Stream.PeakBatchBytes,
		XferOverlapCycles: out.Stream.OverlapCycles,
		EstCycles:         pred.EstCycles(),
		AltEstCycles:      pred.AltEstCycles,
		AltFeasible:       pred.AltFeasible,
	}
	// A per-operator run reports its placed tree; forced CPU reports none.
	switch {
	case perOperator:
		m.Plan = pred.String()
	case opt.Device != DeviceCPU:
		m.Plan = pp.Phys.String()
	}
	if out.Adaptive != nil {
		m.Replaced = out.Adaptive.Replaced
	}
	shape := ""
	if pp.FactDevice() == plan.DeviceCAPE {
		shape = pp.Phys.Shape().String()
	}
	applyEstimates(m.Breakdown, pred)
	qs.SetInt("est_cycles", m.EstCycles)
	db.recordMisestimates(tel, m)
	db.recordQueryMetrics(tel, qs, m, shape)
	m.FlightSeq = db.recordFlight(tel, sqlText, opt, m, len(out.Result.Rows), start, phases, ends...)
	return db.decode(out.Result), m, nil
}

// place chooses the compiled plan for opt. Forced devices and whole-query
// hybrid routing run the uniform plan the cost model already prices for
// prediction; per-operator placement runs the optimizer's placed pipeline
// (priced with the overlapped transfer term when streaming, and with the
// materializing model when the adaptive checkpoint needs the whole fact
// stage first).
func place(phys *plan.Physical, cat *stats.Catalog, cfg cape.Config, opt Options) *plan.PlacedPlan {
	maxvl := cfg.MAXVL
	switch {
	case opt.perOperator() && opt.Streaming && !opt.AdaptivePlacement:
		return optimizer.PlacePlanStreaming(phys, cat, maxvl)
	case opt.perOperator():
		return optimizer.PlacePlan(phys, cat, maxvl)
	case opt.Device == DeviceCPU:
		return optimizer.PredictUniform(phys, cat, maxvl, plan.DeviceCPU)
	case opt.Device == DeviceHybrid:
		return optimizer.PredictUniform(phys, cat, maxvl, exec.DecideDevice(phys, cat, cfg, 0, 0))
	}
	return optimizer.PredictUniform(phys, cat, maxvl, plan.DeviceCAPE)
}

// applyEstimates attaches a placed plan's per-operator predictions, with
// their sources, to a breakdown's est columns.
func applyEstimates(b *Breakdown, pred *plan.PlacedPlan) {
	cells := pred.EstimateCells()
	tc := make(map[string]telemetry.EstimateCell, len(cells))
	for k, c := range cells {
		tc[k] = telemetry.EstimateCell{Cycles: c.Cycles, Source: c.Source}
	}
	b.ApplyEstimateCells(tc)
}

// recordMisestimates feeds the predicted-vs-actual telemetry: a divergence
// histogram per operator kind and device, and the placement-would-flip
// counter when measured cycles overtook the rejected placement's estimate.
func (db *DB) recordMisestimates(tel *Telemetry, m *Metrics) {
	if tel == nil || m.Breakdown == nil {
		return
	}
	reg := tel.Metrics()
	for _, o := range m.Breakdown.Operators {
		if !o.Estimated() {
			continue
		}
		// Symmetric ratio as a percentage: 100 = perfect, 200 = 2x off in
		// either direction. The zero cases are guarded, not floored: both
		// sides zero observes as exact, a one-sided zero has no finite
		// ratio and is skipped.
		div, ok := telemetry.DivergencePct(o.EstCycles, o.Cycles)
		if !ok {
			continue
		}
		dev := o.Device
		if dev == "" {
			dev = m.DeviceUsed
		}
		src := o.EstSource
		if src == "" {
			src = "assumed"
		}
		reg.Histogram(telemetry.MetricEstimateDivergence,
			"Per-operator predicted-vs-actual cycle divergence (percent; 100 = exact).",
			telemetry.L("kind", opKindOfRow(o.Operator)),
			telemetry.L("device", strings.ToLower(dev)),
			telemetry.L("source", src)).Observe(div)
	}
	// Plans with no feasible alternative placement (AltFeasible false) have
	// nothing to flip to; counting them would inflate the signal with
	// decisions no planner could have made differently.
	if m.AltFeasible && m.AltEstCycles > 0 && m.Cycles > m.AltEstCycles {
		reg.Counter(telemetry.MetricPlacementWouldFlip,
			"Queries whose measured cycles exceeded the rejected placement's estimate.",
			telemetry.L("device", strings.ToLower(m.DeviceUsed))).Inc()
	}
}

// opKindOfRow maps a breakdown row name to its operator kind label.
func opKindOfRow(name string) string {
	switch {
	case strings.HasPrefix(name, "prep:"):
		return "dimbuild"
	case strings.HasPrefix(name, "join:"):
		return "joinprobe"
	case strings.HasPrefix(name, "xfer:"), name == "xfer-overlap":
		return "xfer"
	case name == "filter":
		return "filter"
	case name == "aggregate":
		return "aggregate"
	case name == "merge":
		return "merge"
	}
	return "other"
}

// recordFlight commits the flight record of a successful execution that
// began at start. The named phases partition its wall time: each ends at
// the matching instant in ends, the last one now. Every boundary is
// rounded to microseconds once, so the phases sum to the wall time
// exactly. The server amends them with its queue/lease/exec/serialize
// lifecycle when the query came through Do.
func (db *DB) recordFlight(tel *Telemetry, sqlText string, opt Options, m *Metrics, rowCount int, start time.Time, names []string, ends ...time.Time) uint64 {
	if tel == nil {
		return 0
	}
	wall := time.Since(start).Microseconds()
	phases := make([]telemetry.FlightPhase, len(names))
	var from int64
	for i, name := range names {
		to := wall
		if i < len(ends) {
			to = ends[i].Sub(start).Microseconds()
		}
		phases[i] = telemetry.FlightPhase{Name: name, Micros: to - from}
		from = to
	}
	placement := ""
	if opt.Device == DeviceHybrid {
		placement = opt.Placement.String()
	}
	return tel.Flight().Record(telemetry.FlightRecord{
		SQL:            sqlText,
		Fingerprint:    telemetry.FingerprintSQL(sqlText),
		Start:          start,
		WallMicros:     wall,
		Status:         "ok",
		Device:         m.DeviceUsed,
		Placement:      placement,
		Plan:           m.Plan,
		RowCount:       rowCount,
		Cycles:         m.Cycles,
		EstCycles:      m.EstCycles,
		AltEstCycles:   m.AltEstCycles,
		Replaced:       m.Replaced,
		Batches:        m.StreamBatches,
		PeakBatchBytes: m.PeakBatchBytes,
		GroupID:        m.GroupID,
		GroupSize:      m.GroupSize,
		Phases:         phases,
		Ops:            telemetry.FlightOps(m.Breakdown),
	})
}

// recordQueryMetrics updates the run-level counters and histograms after a
// query completes, and stamps summary attributes on the root span.
func (db *DB) recordQueryMetrics(tel *Telemetry, qs *telemetry.Span, m *Metrics, shape string) {
	qs.SetInt("cycles", m.Cycles)
	qs.SetStr("device", m.DeviceUsed)
	if tel == nil {
		return
	}
	reg := tel.Metrics()
	dev := strings.ToLower(m.DeviceUsed)
	reg.Counter(telemetry.MetricQueries, "Queries executed.",
		telemetry.L("device", dev)).Inc()
	reg.Counter(telemetry.MetricBytesMoved, "Simulated DRAM bytes moved in both directions.",
		telemetry.L("device", dev)).Add(m.BytesMoved)
	if shape != "" {
		reg.Counter(telemetry.MetricPlanShapes, "Executed physical plan shapes.",
			telemetry.L("shape", shape)).Inc()
	}
	reg.Histogram(telemetry.MetricQueryCycles, "Simulated cycles per query.").
		Observe(float64(m.Cycles))
	reg.Histogram(telemetry.MetricQuerySeconds, "Simulated seconds per query.").
		Observe(m.Seconds)
	if m.XferOverlapCycles > 0 {
		reg.Counter(telemetry.MetricXferOverlapCycles,
			"Transfer cycles hidden under compute by double-buffered streaming.",
			telemetry.L("device", dev)).Add(m.XferOverlapCycles)
	}
	if m.PeakBatchBytes > 0 {
		reg.Gauge(telemetry.MetricPeakBatchBytes,
			"Peak bytes resident in streaming batches (last streamed query).").
			Set(m.PeakBatchBytes)
	}
	if a := m.Adaptive; a != nil && a.Replaced {
		from := plan.DeviceCAPE
		if a.TailDevice == plan.DeviceCAPE {
			from = plan.DeviceCPU
		}
		reg.Counter(telemetry.MetricReplacements,
			"Aggregation tails re-placed mid-query by the adaptive checkpoint.",
			telemetry.L("direction", from.String()+"->"+a.TailDevice.String())).Inc()
	}
}

func internalShape(s PlanShape) plan.Shape {
	switch s {
	case ShapeLeftDeep:
		return plan.LeftDeep
	case ShapeRightDeep:
		return plan.RightDeep
	default:
		return plan.ZigZag
	}
}

// PlanChoice describes one candidate plan from Explain.
type PlanChoice struct {
	Shape    string
	Order    []string
	Searches int64
	Chosen   bool
}

// Explain enumerates the optimizer's candidate plans for a query with
// their estimated search counts (Figure 5's cost unit).
func (db *DB) Explain(sqlText string) ([]PlanChoice, error) {
	stmt, err := sql.Parse(sqlText)
	if err != nil {
		return nil, err
	}
	bound, err := plan.Bind(stmt, db.store)
	if err != nil {
		return nil, err
	}
	cat := db.catalog()
	cfg := cape.DefaultConfig()
	best, err := optimizer.Optimize(bound, cat, cfg.MAXVL)
	if err != nil {
		return nil, err
	}
	var out []PlanChoice
	for _, c := range optimizer.Enumerate(bound, cat, cfg.MAXVL) {
		order := make([]string, len(c.Joins))
		same := c.SwitchAt == best.Switch && len(c.Joins) == len(best.Joins)
		for i, j := range c.Joins {
			order[i] = j.Dim
			if same && best.Joins[i].Dim != j.Dim {
				same = false
			}
		}
		out = append(out, PlanChoice{
			Shape:    c.Shape().String(),
			Order:    order,
			Searches: c.Searches,
			Chosen:   same,
		})
	}
	return out, nil
}

// ExplainAnalyze executes the query and returns the rendered per-operator
// cycle breakdown (the EXPLAIN ANALYZE table) alongside the result rows and
// metrics.
func (db *DB) ExplainAnalyze(sqlText string, opt Options) (*Rows, *Metrics, string, error) {
	rows, m, err := db.QueryWith(sqlText, opt)
	if err != nil {
		return nil, nil, "", err
	}
	return rows, m, m.Breakdown.Format(), nil
}

// decode converts an internal result into the public Rows form.
func (db *DB) decode(res *exec.Result) *Rows {
	out := &Rows{}
	for _, g := range res.GroupBy {
		out.Columns = append(out.Columns, g.String())
	}
	for _, a := range res.AggExprs {
		label := a.String()
		if a.Alias != "" {
			label = a.Alias
		}
		out.Columns = append(out.Columns, label)
	}
	for _, row := range res.Rows {
		raw := RawRow{
			Keys: append([]uint32(nil), row.Keys...),
			Aggs: append([]int64(nil), row.Aggs...),
		}
		out.Raw = append(out.Raw, raw)
		rec := make([]string, 0, len(row.Keys)+len(row.Aggs))
		for i, g := range res.GroupBy {
			col := db.store.MustTable(g.Table).MustColumn(g.Column)
			if col.Dict != nil {
				rec = append(rec, col.Dict.Decode(row.Keys[i]))
			} else {
				rec = append(rec, fmt.Sprintf("%d", row.Keys[i]))
			}
		}
		for _, v := range row.Aggs {
			rec = append(rec, fmt.Sprintf("%d", v))
		}
		out.Data = append(out.Data, rec)
	}
	return out
}
