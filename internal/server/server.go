// Package server is the concurrent query service in front of castle.DB: an
// admission-controlled worker pool that prepares each request once
// (DB.Prepare resolves its device), leases that simulated execution
// resource (CAPE tile or CPU slot), runs the prepared statement with a
// per-request deadline, and exposes the whole lifecycle through the
// telemetry registry. The HTTP layer in http.go is a thin JSON skin
// over Do; embedders can drive Do directly.
//
// Admission is a bounded queue: requests beyond the queue depth are shed
// immediately with ErrOverloaded (HTTP 429) rather than queued without
// bound, so latency under overload stays flat instead of growing with the
// backlog.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"strings"
	"sync"
	"time"

	"castle"
	"castle/internal/telemetry"
)

// Sentinel errors the service reports for admission decisions.
var (
	// ErrOverloaded means the admission queue was full and the request was
	// shed without queuing.
	ErrOverloaded = errors.New("server: overloaded, request shed")
	// ErrClosed means the server is draining or stopped.
	ErrClosed = errors.New("server: closed")
	// ErrEmptySQL rejects requests with no statement.
	ErrEmptySQL = errors.New("server: empty sql")
)

// Config sizes the service. The zero value picks workable defaults.
type Config struct {
	// Device is the default execution device for requests that don't name
	// one: "cape", "cpu" or "hybrid". Empty selects "hybrid", the paper's
	// deployment model.
	Device string
	// Placement is the default device-assignment granularity for hybrid
	// requests: "whole-query" (empty selects it) or "per-operator", which
	// lets the optimizer split one query's pipeline across both devices.
	Placement string
	// QueueDepth bounds the admission queue (default 64). Requests arriving
	// with the queue full are shed with ErrOverloaded.
	QueueDepth int
	// CAPETiles is the number of CAPE tiles available (default 2).
	CAPETiles int
	// CPUSlots is the number of baseline-CPU slots available (default 2).
	CPUSlots int
	// MaxTilesPerQuery caps the elastic lease one query may hold: the
	// scheduler grants one tile blocking plus up to MaxTilesPerQuery-1 more
	// only when they are idle, and the query's fact sweep fans out across
	// the granted lease (Stmt.Run's parallelism is the lease size).
	// Values <= 1 keep the one-tile-per-query behaviour.
	MaxTilesPerQuery int
	// DefaultTimeout applies when a request carries no deadline (default
	// 30s, or MaxTimeout when that is set lower).
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested deadlines (default the larger of 2m
	// and DefaultTimeout). New rejects a MaxTimeout below DefaultTimeout.
	MaxTimeout time.Duration
	// SlowQueryMillis, when > 0, logs one line per request whose end-to-end
	// wall time crosses the threshold: fingerprint, device, lifecycle phase
	// attribution and predicted-vs-actual cycles.
	SlowQueryMillis int64
	// SlowQueryLog receives slow-query lines (default os.Stderr).
	SlowQueryLog io.Writer
	// ClusterNodes, when >= 1, serves queries through a scatter-gather
	// cluster of that many shards instead of the single-node DB (results
	// are bit-identical; the simulated cost model changes). 0 disables
	// clustering.
	ClusterNodes int
	// ClusterReplicas is the replica count per shard (0 selects 1).
	ClusterReplicas int
	// ClusterPartition selects the partitioning scheme: "hash" (default)
	// or "range".
	ClusterPartition string
	// ClusterPartitionKey is the fact column to partition on (empty
	// selects "lo_orderdate"). Must exist in the schema.
	ClusterPartitionKey string
	// ScanSharing enables the coalescing admission window: requests arriving
	// within CoalesceWindow of each other whose prepared statements sweep
	// the same fact table on the same device are grouped into one fused
	// shared-scan execution — one queue slot, one device lease, one fact
	// sweep serving every member. Identical-fingerprint members share a
	// single result. Member answers are bit-identical to solo execution.
	// Ignored when the server is clustered.
	ScanSharing bool
	// CoalesceWindow is how long the first request of a prospective group
	// waits for companions before the group flushes (default 2ms when
	// ScanSharing is set). The wait lands in the request's queue phase.
	CoalesceWindow time.Duration
	// MaxGroupSize caps members per coalesced group (default 8); a group
	// reaching the cap flushes immediately without waiting out the window.
	MaxGroupSize int
	// Options is the base query configuration (design point, plan shape).
	// The server sets Device, Placement, Telemetry and ScanSharing per
	// request (from the request, Config.Device/Placement and
	// Config.ScanSharing), turns AdaptivePlacement on for a request's
	// Adaptive flag and DisablePlanCache on for its NoCache flag, and runs
	// each query at the parallelism of its elastic lease.
	Options castle.Options
}

func (c Config) withDefaults() Config {
	if c.Device == "" {
		c.Device = "hybrid"
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CAPETiles <= 0 {
		c.CAPETiles = 2
	}
	if c.CPUSlots <= 0 {
		c.CPUSlots = 2
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
		if c.MaxTimeout > 0 && c.MaxTimeout < c.DefaultTimeout {
			c.DefaultTimeout = c.MaxTimeout
		}
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = max(2*time.Minute, c.DefaultTimeout)
	}
	if c.ScanSharing && c.CoalesceWindow <= 0 {
		c.CoalesceWindow = 2 * time.Millisecond
	}
	if c.MaxGroupSize <= 0 {
		c.MaxGroupSize = 8
	}
	return c
}

// Request is one query submission.
type Request struct {
	// SQL is the statement to run.
	SQL string `json:"sql"`
	// Device optionally overrides the server's default device
	// ("cape", "cpu", "hybrid").
	Device string `json:"device,omitempty"`
	// Placement optionally overrides the server's default placement
	// granularity for hybrid execution ("whole-query", "per-operator").
	Placement string `json:"placement,omitempty"`
	// TimeoutMillis optionally sets the request deadline (capped by
	// Config.MaxTimeout; 0 means Config.DefaultTimeout).
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
	// NoCache bypasses the prepared-plan cache for this request.
	NoCache bool `json:"no_cache,omitempty"`
	// Adaptive enables the mid-query re-placement checkpoint for this
	// request (hybrid + per-operator placement only; see
	// castle.Options.AdaptivePlacement). Config.Options.AdaptivePlacement
	// sets the server-wide default; this flag turns it on per request.
	Adaptive bool `json:"adaptive,omitempty"`
}

// Timings is the server-side lifecycle attribution of one request: where
// its wall-clock time went between admission and response. The four phases
// partition WallMicros (within microsecond rounding).
type Timings struct {
	// QueueMicros covers preparing the statement (a plan-cache lookup
	// when it was seen before) and the admission-queue wait before a
	// worker picked the request up.
	QueueMicros int64 `json:"queue_micros"`
	// LeaseMicros is the wait for the execution lease (CAPE tiles or CPU
	// slots) on the prepared statement's device.
	LeaseMicros int64 `json:"lease_micros"`
	// ExecMicros is the execution itself (Stmt.Run).
	ExecMicros int64 `json:"exec_micros"`
	// SerializeMicros covers building and delivering the response.
	SerializeMicros int64 `json:"serialize_micros"`
}

// Response is one query result with its simulation cost.
type Response struct {
	Columns  []string   `json:"columns"`
	Rows     [][]string `json:"rows"`
	RowCount int        `json:"row_count"`
	// Device names the engine that executed ("CAPE", "CPU", or "CAPE+CPU"
	// when a per-operator placement mixed devices).
	Device string `json:"device"`
	// Cycles and SimSeconds are the simulated execution cost.
	Cycles     int64   `json:"cycles"`
	SimSeconds float64 `json:"sim_seconds"`
	// EstCycles is the placement cost model's predicted cycle total for the
	// placement that ran (0 when no prediction applied).
	EstCycles int64 `json:"est_cycles,omitempty"`
	// WallMicros is real service time, admission to completion.
	WallMicros int64 `json:"wall_micros"`
	// TimingsMicros attributes WallMicros to lifecycle phases, so clients
	// can report server-side attribution rather than just end-to-end p50/p99.
	TimingsMicros Timings `json:"timings_micros"`
	// Replaced reports that the adaptive checkpoint moved the aggregation
	// tail to a different device mid-query.
	Replaced bool `json:"replaced,omitempty"`
	// FlightSeq is the flight-record sequence number for this request;
	// /debug/queries/{seq} returns the full post-mortem.
	FlightSeq uint64 `json:"flight_seq,omitempty"`
	// Shards is the cluster shard count when the server is clustered
	// (0 on single-node deployments).
	Shards int `json:"shards,omitempty"`
	// ShardsPruned counts shards skipped by partition-key pruning for this
	// query (range partitioning only).
	ShardsPruned int `json:"shards_pruned,omitempty"`
	// ShuffleBytes is the simulated cross-node shuffle traffic of this
	// query's gather phase.
	ShuffleBytes int64 `json:"shuffle_bytes,omitempty"`
	// GroupID identifies the fused shared-scan group that served this
	// request (0 when it executed solo). Cycles then reports this member's
	// attributed share of the fused run.
	GroupID uint64 `json:"group_id,omitempty"`
	// GroupSize is the fused group's member count (0 when solo).
	GroupSize int `json:"group_size,omitempty"`
}

// Server is the admission controller plus worker pool. Create with New,
// submit with Do (or the HTTP handler), stop with Close.
type Server struct {
	db        *castle.DB
	cfg       Config
	device    castle.Device    // resolved Config.Device
	placement castle.Placement // resolved Config.Placement
	tel       *castle.Telemetry
	sched     *Scheduler
	cluster   *castle.Cluster // non-nil when Config.ClusterNodes >= 1
	queue     chan *task

	mu     sync.RWMutex // guards closed against concurrent enqueues
	closed bool
	wg     sync.WaitGroup

	coal *coalescer // non-nil when the coalescing window is enabled

	depth      *telemetry.Gauge
	inFlight   *telemetry.Gauge
	shedFull   *telemetry.Counter // shed: admission queue full at arrival
	shedFlush  *telemetry.Counter // shed: queue full when a coalesced group flushed
	slowCount  *telemetry.Counter
	dedupCount *telemetry.Counter
	latency    *telemetry.Histogram
	queueWait  *telemetry.Histogram
	leaseSize  *telemetry.Histogram
	coalWait   *telemetry.Histogram
	phaseHists map[string]*telemetry.Histogram
	slowLog    *log.Logger
	slowThresh time.Duration
}

type task struct {
	ctx context.Context
	req Request
	// opt is the request's resolved options. stmt is the request compiled
	// under them, prepared before admission on a single-node server (a
	// clustered one prepares at its coordinator from opt).
	opt  castle.Options
	stmt *castle.Stmt
	// enqueued is when the prepared task reached admission; the queue-wait
	// and coalescing-window histograms measure from it.
	enqueued time.Time
	done     chan taskResult // buffered: workers never block on delivery

	// Lifecycle timestamps, filled as the task advances: worker pickup,
	// lease grant, execution end. Together with the arrival and completion
	// instants they partition the request's wall time into the
	// queue/lease/exec/serialize phases. Cluster executions additionally
	// record the scatter/gather boundary, splitting exec into
	// scatter/gather phases.
	pickup     time.Time
	leased     time.Time
	execDone   time.Time
	scatterEnd time.Time

	// members, when non-nil, marks a fused group task: the worker executes
	// every member against one shared fact sweep under one lease, then
	// delivers to each member's own done channel. A group occupies one
	// admission-queue slot.
	members []*task
}

type taskResult struct {
	resp *Response
	err  error
}

// New builds a server over db. The telemetry sink is shared by every
// request (the registry and trace recorder are thread-safe and bounded);
// pass nil to have the server create one. Workers are started immediately —
// one per execution resource, so the pools can saturate.
func New(db *castle.DB, tel *castle.Telemetry, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.MaxTimeout < cfg.DefaultTimeout {
		return nil, fmt.Errorf("server: MaxTimeout %s is below DefaultTimeout %s", cfg.MaxTimeout, cfg.DefaultTimeout)
	}
	device, err := castle.ParseDevice(cfg.Device)
	if err != nil {
		return nil, err
	}
	placement, err := castle.ParsePlacement(cfg.Placement)
	if err != nil {
		return nil, err
	}
	if tel == nil {
		tel = castle.NewTelemetry()
	}
	reg := tel.Metrics()
	s := &Server{
		db:        db,
		cfg:       cfg,
		device:    device,
		placement: placement,
		tel:       tel,
		sched:     NewScheduler(cfg.CAPETiles, cfg.CPUSlots, reg),
		queue:     make(chan *task, cfg.QueueDepth),
		depth: reg.Gauge(telemetry.MetricServerQueueDepth,
			"Requests waiting in the admission queue."),
		inFlight: reg.Gauge(telemetry.MetricServerInFlight,
			"Requests admitted but not yet completed (queued or executing)."),
		shedFull: reg.Counter(telemetry.MetricServerShed,
			"Requests shed, by reason.", telemetry.L("reason", "queue_full")),
		shedFlush: reg.Counter(telemetry.MetricServerShed,
			"Requests shed, by reason.", telemetry.L("reason", "window_flush")),
		slowCount: reg.Counter(telemetry.MetricServerSlowQueries,
			"Requests whose wall time crossed the slow-query threshold."),
		dedupCount: reg.Counter(telemetry.MetricCoalescedQueries,
			"Member queries served by fused shared-scan executions.",
			telemetry.L("kind", "deduped")),
		latency: reg.Histogram(telemetry.MetricServerLatency,
			"End-to-end request wall time in microseconds."),
		queueWait: reg.Histogram(telemetry.MetricServerQueueWait,
			"Queue wait before a worker picked the request up, in microseconds."),
		leaseSize: reg.Histogram(telemetry.MetricServerLeaseSize,
			"Tiles leased per query (elastic-lease fan-out granted)."),
		coalWait: reg.Histogram(telemetry.MetricCoalesceWait,
			"Wait in the coalescing window before the group flushed, in microseconds."),
		phaseHists: make(map[string]*telemetry.Histogram, 4),
		slowThresh: time.Duration(cfg.SlowQueryMillis) * time.Millisecond,
	}
	phases := []string{"queue", "lease", "exec", "serialize"}
	// Non-zero shard counts (including invalid negative ones) flow through
	// cluster construction so topology errors surface descriptively here
	// rather than as a silently single-node server.
	if cfg.ClusterNodes != 0 {
		cl, err := db.Cluster(castle.ClusterOptions{
			Nodes:        cfg.ClusterNodes,
			Replicas:     cfg.ClusterReplicas,
			Partition:    cfg.ClusterPartition,
			PartitionKey: cfg.ClusterPartitionKey,
			Telemetry:    tel,
		})
		if err != nil {
			return nil, err
		}
		s.cluster = cl
		phases = append(phases, "scatter", "gather")
	}
	for _, phase := range phases {
		s.phaseHists[phase] = reg.Histogram(telemetry.MetricServerPhaseMicros,
			"Per-request lifecycle phase durations in microseconds.",
			telemetry.L("phase", phase))
	}
	if cfg.SlowQueryMillis > 0 {
		w := cfg.SlowQueryLog
		if w == nil {
			w = os.Stderr
		}
		s.slowLog = log.New(w, "", log.LstdFlags|log.Lmicroseconds)
	}
	// Pre-register the per-status request counters so /metrics shows the
	// full vocabulary at zero before the first request lands.
	for _, status := range []string{"ok", "error", "deadline", "canceled", "shed", "closed"} {
		s.requests(status)
	}
	reg.Counter(telemetry.MetricPlanCacheHits, "Prepared-plan cache hits.")
	reg.Counter(telemetry.MetricPlanCacheMisses, "Prepared-plan cache misses.")
	if cfg.ScanSharing && s.cluster == nil {
		s.coal = newCoalescer(s, cfg.CoalesceWindow, cfg.MaxGroupSize)
		// Pre-register the shared-scan vocabulary so /metrics shows it at
		// zero before the first group fuses.
		for _, dev := range []string{"cape", "cpu"} {
			reg.Counter(telemetry.MetricSharedSweeps,
				"Fused shared-scan executions (one per coalesced group).",
				telemetry.L("device", dev))
		}
		reg.Counter(telemetry.MetricCoalescedQueries,
			"Member queries served by fused shared-scan executions.",
			telemetry.L("kind", "fused"))
	}
	workers := cfg.CAPETiles + cfg.CPUSlots
	s.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go s.worker()
	}
	return s, nil
}

// Telemetry returns the server's shared telemetry sink (backs /metrics).
func (s *Server) Telemetry() *castle.Telemetry { return s.tel }

// DB returns the database the server fronts.
func (s *Server) DB() *castle.DB { return s.db }

// maxTiles normalizes Config.MaxTilesPerQuery (values <= 1 mean one tile).
func (s *Server) maxTiles() int {
	if s.cfg.MaxTilesPerQuery < 1 {
		return 1
	}
	return s.cfg.MaxTilesPerQuery
}

func (s *Server) requests(status string) *telemetry.Counter {
	return s.tel.Metrics().Counter(telemetry.MetricServerRequests,
		"Completed requests by outcome.", telemetry.L("status", status))
}

// retryAfterSeconds derives the Retry-After hint attached to 429 sheds:
// the current queue backlog (plus the shed request itself) times the
// observed mean execution phase, rounded up to whole seconds with a
// one-second floor. Before any request has completed the hint is the floor.
func (s *Server) retryAfterSeconds() int64 {
	depth := s.depth.Value()
	if depth < 0 {
		depth = 0
	}
	var meanExec float64
	if h := s.phaseHists["exec"]; h != nil {
		if n := h.Count(); n > 0 {
			meanExec = h.Sum() / float64(n)
		}
	}
	secs := int64(math.Ceil(float64(depth+1) * meanExec / 1e6))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// statusOf maps a Do outcome to its metrics label.
func statusOf(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrOverloaded):
		return "shed"
	case errors.Is(err, ErrClosed):
		return "closed"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, context.Canceled):
		return "canceled"
	default:
		return "error"
	}
}

// Do admits, schedules and executes one request, honoring both the caller's
// ctx and the request deadline. It returns ErrOverloaded without blocking
// when the queue is full.
func (s *Server) Do(ctx context.Context, req Request) (*Response, error) {
	start := time.Now()
	resp, err := s.do(ctx, req, start)
	s.requests(statusOf(err)).Inc()
	if err == nil || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		s.latency.Observe(float64(time.Since(start).Microseconds()))
	}
	return resp, err
}

func (s *Server) do(ctx context.Context, req Request, start time.Time) (*Response, error) {
	if strings.TrimSpace(req.SQL) == "" {
		return nil, ErrEmptySQL
	}
	opt, err := s.options(req)
	if err != nil {
		return nil, err
	}
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMillis > 0 {
		// Cap in milliseconds before converting: past ~292 years the
		// product overflows time.Duration and wraps negative.
		timeout = s.cfg.MaxTimeout
		if req.TimeoutMillis < s.cfg.MaxTimeout.Milliseconds() {
			timeout = time.Duration(req.TimeoutMillis) * time.Millisecond
		}
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	t := &task{ctx: ctx, req: req, opt: opt, done: make(chan taskResult, 1)}
	if s.cluster == nil {
		// Prepare before admission: a statement that fails to compile never
		// takes a queue slot, and the worker leases the device it compiled to.
		if t.stmt, err = s.db.Prepare(req.SQL, opt); err != nil {
			return nil, err
		}
	}
	t.enqueued = time.Now()

	if resp, err, coalesced := s.tryCoalesce(t, start); coalesced {
		return resp, err
	}

	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, ErrClosed
	}
	select {
	case s.queue <- t:
		s.mu.RUnlock()
		s.depth.Add(1)
		s.inFlight.Add(1)
		defer s.inFlight.Add(-1)
	default:
		s.mu.RUnlock()
		s.shedFull.Inc()
		return nil, ErrOverloaded
	}

	select {
	case r := <-t.done:
		if r.resp != nil {
			s.finishTimings(t, r.resp, start)
		}
		return r.resp, r.err
	case <-ctx.Done():
		// The worker that eventually dequeues this task sees the dead ctx
		// and drops it; done is buffered so it never blocks.
		return nil, ctx.Err()
	}
}

// finishTimings closes the books on a successful request: the enqueue,
// pickup, lease and execution-end instants partition the wall time into
// queue/lease/exec/serialize phases that sum exactly to WallMicros (each
// boundary is rounded to microseconds once, so the telescoping differences
// cannot drift). The phases land on the response, the phase histograms, the
// request's flight record, and — past the threshold — the slow-query log.
func (s *Server) finishTimings(t *task, resp *Response, start time.Time) {
	end := time.Now()
	wall := end.Sub(start).Microseconds()
	p1 := t.pickup.Sub(start).Microseconds()
	p2 := t.leased.Sub(start).Microseconds()
	p3 := t.execDone.Sub(start).Microseconds()
	tm := Timings{
		QueueMicros:     p1,
		LeaseMicros:     p2 - p1,
		ExecMicros:      p3 - p2,
		SerializeMicros: wall - p3,
	}
	resp.WallMicros = wall
	resp.TimingsMicros = tm
	s.phaseHists["queue"].Observe(float64(tm.QueueMicros))
	s.phaseHists["lease"].Observe(float64(tm.LeaseMicros))
	s.phaseHists["serialize"].Observe(float64(tm.SerializeMicros))
	var phases []telemetry.FlightPhase
	if s.cluster != nil && !t.scatterEnd.IsZero() {
		// Clustered executions split exec at the scatter/gather boundary the
		// coordinator recorded; the Timings struct keeps the four-phase shape
		// (exec = scatter + gather) for response compatibility.
		pS := t.scatterEnd.Sub(start).Microseconds()
		scatter, gather := pS-p2, p3-pS
		s.phaseHists["scatter"].Observe(float64(scatter))
		s.phaseHists["gather"].Observe(float64(gather))
		phases = []telemetry.FlightPhase{
			{Name: "queue", Micros: tm.QueueMicros},
			{Name: "lease", Micros: tm.LeaseMicros},
			{Name: "scatter", Micros: scatter},
			{Name: "gather", Micros: gather},
			{Name: "serialize", Micros: tm.SerializeMicros},
		}
	} else {
		s.phaseHists["exec"].Observe(float64(tm.ExecMicros))
		phases = []telemetry.FlightPhase{
			{Name: "queue", Micros: tm.QueueMicros},
			{Name: "lease", Micros: tm.LeaseMicros},
			{Name: "exec", Micros: tm.ExecMicros},
			{Name: "serialize", Micros: tm.SerializeMicros},
		}
	}
	s.tel.Flight().Amend(resp.FlightSeq, func(fr *telemetry.FlightRecord) {
		fr.WallMicros = wall
		fr.Phases = phases
	})
	if s.slowLog != nil && end.Sub(start) >= s.slowThresh {
		s.slowCount.Inc()
		s.slowLog.Printf("slow query (%.1fms): seq=%d fp=%s device=%s cycles=%d est=%d queue=%dµs lease=%dµs exec=%dµs serialize=%dµs sql=%q",
			float64(wall)/1e3, resp.FlightSeq, telemetry.FingerprintSQL(t.req.SQL),
			resp.Device, resp.Cycles, resp.EstCycles,
			tm.QueueMicros, tm.LeaseMicros, tm.ExecMicros, tm.SerializeMicros, t.req.SQL)
	}
}

// worker drains the admission queue until Close closes it.
func (s *Server) worker() {
	defer s.wg.Done()
	for t := range s.queue {
		t.pickup = time.Now()
		s.depth.Add(-1)
		if t.members != nil {
			s.runGroup(t)
			continue
		}
		s.queueWait.Observe(float64(t.pickup.Sub(t.enqueued).Microseconds()))
		resp, err := s.run(t)
		t.done <- taskResult{resp: resp, err: err}
	}
}

// options resolves a request's query options: Config.Options with the
// request's device and placement (or the server's defaults), the server's
// telemetry and scan sharing, the request's NoCache and Adaptive flags,
// and the per-query tile budget a clustered execution fans out across.
func (s *Server) options(req Request) (castle.Options, error) {
	opt := s.cfg.Options
	opt.Device, opt.Placement = s.device, s.placement
	var err error
	if req.Device != "" {
		if opt.Device, err = castle.ParseDevice(req.Device); err != nil {
			return opt, err
		}
	}
	if req.Placement != "" {
		if opt.Placement, err = castle.ParsePlacement(req.Placement); err != nil {
			return opt, err
		}
	}
	opt.Telemetry = s.tel
	opt.ScanSharing = s.coal != nil
	opt.DisablePlanCache = opt.DisablePlanCache || req.NoCache
	opt.AdaptivePlacement = opt.AdaptivePlacement || req.Adaptive
	opt.Parallelism = s.maxTiles()
	return opt, nil
}

// run executes one admitted task: lease the prepared statement's device,
// then run the statement under the request ctx across the granted lease.
func (s *Server) run(t *task) (*Response, error) {
	if err := t.ctx.Err(); err != nil {
		return nil, err
	}
	if s.cluster != nil {
		return s.runCluster(t)
	}
	lease, err := s.sched.AcquireN(t.ctx, t.stmt.Device(), s.maxTiles())
	if err != nil {
		return nil, err
	}
	defer lease.Release()
	t.leased = time.Now()
	s.leaseSize.Observe(float64(lease.Size()))

	rows, m, err := t.stmt.Run(t.ctx, lease.Size())
	t.execDone = time.Now()
	if err != nil {
		return nil, err
	}
	resp := &Response{
		Columns:    rows.Columns,
		Rows:       rows.Data,
		RowCount:   len(rows.Data),
		Device:     m.DeviceUsed,
		Cycles:     m.Cycles,
		SimSeconds: m.Seconds,
		EstCycles:  m.EstCycles,
		Replaced:   m.Replaced,
		FlightSeq:  m.FlightSeq,
	}
	return resp, nil
}

// runCluster executes one admitted task across the sharded cluster. The
// per-node queues and semaphores model the execution resources, so this
// path skips the single-node scheduler lease (the lease timestamp still
// lands, as a zero-width phase, so the lifecycle telescopes); every node
// fans its fact sweep out across the full per-query tile budget.
func (s *Server) runCluster(t *task) (*Response, error) {
	t.leased = time.Now()
	rows, m, err := s.cluster.QueryContext(t.ctx, t.req.SQL, t.opt)
	t.execDone = time.Now()
	if err != nil {
		return nil, err
	}
	t.scatterEnd = m.Cluster.ScatterEnd
	return &Response{
		Columns:      rows.Columns,
		Rows:         rows.Data,
		RowCount:     len(rows.Data),
		Device:       m.DeviceUsed,
		Cycles:       m.Cycles,
		SimSeconds:   m.Seconds,
		EstCycles:    m.EstCycles,
		FlightSeq:    m.FlightSeq,
		Shards:       m.Cluster.Shards,
		ShardsPruned: m.Cluster.PrunedShards,
		ShuffleBytes: m.Cluster.ShuffleBytes,
	}, nil
}

// Close drains the server: no new requests are admitted, queued and
// in-flight requests run to completion, then the workers exit. Safe to call
// more than once.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	// Flush pending coalescing windows before closing the queue: their
	// members were admitted and run to completion like queued requests.
	// stopAndFlush also prevents any later timer from touching the queue.
	if s.coal != nil {
		s.coal.stopAndFlush()
	}
	close(s.queue)
	s.wg.Wait()
	return nil
}

// String describes the service sizing (for startup logs).
func (s *Server) String() string {
	base := fmt.Sprintf("server{device=%s placement=%s queue=%d cape_tiles=%d cpu_slots=%d max_tiles_per_query=%d timeout=%s}",
		s.cfg.Device, s.placement, cap(s.queue), s.sched.Capacity(castle.DeviceCAPE),
		s.sched.Capacity(castle.DeviceCPU), s.maxTiles(), s.cfg.DefaultTimeout)
	if s.cluster != nil {
		return base + " " + s.cluster.String()
	}
	return base
}
