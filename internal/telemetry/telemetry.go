// Package telemetry is Castle's observability subsystem: hierarchical
// query-lifecycle spans (query -> phase -> operator) carrying wall-clock
// time and simulated cycle/traffic attributes, a metrics registry
// (counters, gauges, log-bucket histograms) with Prometheus text
// exposition, and the per-operator EXPLAIN ANALYZE breakdown.
//
// The package depends only on the standard library and knows nothing about
// the simulator: producers attach cycle counts and class names as plain
// attributes, so the trace and metrics formats stay stable as the engine
// evolves. Everything is safe for concurrent use, and every entry point is
// nil-receiver safe — a disabled pipeline passes *Telemetry(nil) around and
// pays only a nil check per call site.
package telemetry

import (
	"context"
	"errors"
	"io"
	"time"
)

// Telemetry couples a span recorder, a metrics registry and a query flight
// recorder for one observation scope (typically one process; tests use one
// per query).
type Telemetry struct {
	trace   *TraceRecorder
	metrics *Registry
	flight  *FlightRecorder
}

// New returns a Telemetry with a default-capacity span recorder, an empty
// metrics registry and a default-capacity flight recorder.
func New() *Telemetry {
	return &Telemetry{trace: NewTraceRecorder(0), metrics: NewRegistry(), flight: NewFlightRecorder(0)}
}

// Trace returns the span recorder (nil for a nil Telemetry).
func (t *Telemetry) Trace() *TraceRecorder {
	if t == nil {
		return nil
	}
	return t.trace
}

// Metrics returns the metrics registry (nil for a nil Telemetry).
func (t *Telemetry) Metrics() *Registry {
	if t == nil {
		return nil
	}
	return t.metrics
}

// Flight returns the query flight recorder (nil for a nil Telemetry).
func (t *Telemetry) Flight() *FlightRecorder {
	if t == nil {
		return nil
	}
	return t.flight
}

// RecordFailure commits the flight record of a statement that failed
// after start: its SQL, the error, and one "total" phase spanning the
// attempt. The status is "deadline" or "canceled" for context errors and
// "error" otherwise. A nil Telemetry records nothing.
func (t *Telemetry) RecordFailure(sql string, start time.Time, err error) {
	if t == nil {
		return
	}
	status := "error"
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		status = "deadline"
	case errors.Is(err, context.Canceled):
		status = "canceled"
	}
	wall := time.Since(start).Microseconds()
	t.flight.Record(FlightRecord{
		SQL:         sql,
		Fingerprint: FingerprintSQL(sql),
		Start:       start,
		WallMicros:  wall,
		Status:      status,
		Error:       err.Error(),
		Phases:      []FlightPhase{{Name: "total", Micros: wall}},
	})
}

// StartSpan opens a root span. Returns nil (a no-op span) when t is nil.
func (t *Telemetry) StartSpan(name string) *Span {
	if t == nil {
		return nil
	}
	return t.trace.start(name, nil)
}

// WriteChromeTrace exports recorded spans as Chrome trace-event JSON
// (viewable in Perfetto / chrome://tracing). A nil Telemetry writes an
// empty-but-valid trace.
func (t *Telemetry) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		return NewTraceRecorder(1).WriteChromeTrace(w)
	}
	return t.trace.WriteChromeTrace(w)
}

// WritePrometheus exports the registry in Prometheus text exposition
// format. A nil Telemetry writes nothing.
func (t *Telemetry) WritePrometheus(w io.Writer) error {
	if t == nil {
		return nil
	}
	return t.metrics.WritePrometheus(w)
}

// Standard metric names recorded by the Castle stack. Keeping them in one
// place makes dashboards and tests resilient to call-site refactors.
const (
	// MetricQueries counts queries run, labelled by device.
	MetricQueries = "castle_queries_total"
	// MetricCSBCycles counts simulated CSB cycles, labelled by Figure 7
	// instruction class. Matches cape.Stats.CSBCyclesByClass exactly.
	MetricCSBCycles = "castle_csb_cycles_total"
	// MetricCPCycles counts simulated control-processor cycles.
	MetricCPCycles = "castle_cp_cycles_total"
	// MetricMemCycles counts simulated VMU/memory transfer cycles.
	MetricMemCycles = "castle_mem_cycles_total"
	// MetricCPUCycles counts simulated baseline-CPU cycles.
	MetricCPUCycles = "castle_cpu_cycles_total"
	// MetricRowsScanned counts table rows scanned (fact and dimension).
	MetricRowsScanned = "castle_rows_scanned_total"
	// MetricBytesMoved counts simulated DRAM traffic, labelled by device.
	MetricBytesMoved = "castle_bytes_moved_total"
	// MetricPlanShapes counts optimizer plan-shape choices.
	MetricPlanShapes = "castle_plan_shape_total"
	// MetricQueryCycles is a histogram of end-to-end query cycles.
	MetricQueryCycles = "castle_query_cycles"
	// MetricQuerySeconds is a histogram of simulated query wall time.
	MetricQuerySeconds = "castle_query_seconds"
	// MetricPlanCacheHits counts prepared-plan cache hits.
	MetricPlanCacheHits = "castle_plan_cache_hits_total"
	// MetricPlanCacheMisses counts prepared-plan cache misses.
	MetricPlanCacheMisses = "castle_plan_cache_misses_total"
	// MetricEstimateDivergence is a histogram of how far the placement cost
	// model's per-operator cycle predictions land from the measured actuals,
	// labelled by operator kind and device. Observations are the larger of
	// est/actual and actual/est as a percentage, so 100 means a perfect
	// prediction and 200 means off by 2x in either direction.
	MetricEstimateDivergence = "castle_estimate_divergence_pct"
	// MetricPlacementWouldFlip counts queries whose measured cycle total
	// exceeded the predicted cost of the best alternative placement — the
	// executions where perfect information would have flipped the
	// placement decision. Plans with no feasible alternative (a grouped
	// SUM(a*b) tail can only run on the CPU) are never counted.
	MetricPlacementWouldFlip = "castle_placement_would_flip_total"
	// MetricReplacements counts queries whose aggregation tail was re-placed
	// mid-query by the adaptive checkpoint, labelled by the direction the
	// tail moved (e.g. "CAPE->CPU").
	MetricReplacements = "castle_replacements_total"
	// MetricPeakBatchBytes gauges the peak bytes resident in streaming
	// batches during the most recent streamed query (O(K·MAXVL) by design).
	MetricPeakBatchBytes = "castle_peak_batch_bytes"
	// MetricXferOverlapCycles counts transfer cycles hidden under compute
	// by the double-buffered streaming pipeline (the xfer-overlap credit).
	MetricXferOverlapCycles = "castle_xfer_overlap_cycles_total"
)

// Metric names recorded by the query service (internal/server). Histograms
// observe microseconds: the shared power-of-two bucket ladder starts at 1,
// so sub-second latencies need a sub-second unit to resolve.
const (
	// MetricServerQueueDepth gauges requests sitting in the admission queue.
	MetricServerQueueDepth = "castle_server_queue_depth"
	// MetricServerShed counts requests rejected because the queue was full.
	MetricServerShed = "castle_server_shed_total"
	// MetricServerRequests counts completed requests, labelled by status
	// (ok, error, deadline, canceled, shed, closed).
	MetricServerRequests = "castle_server_requests_total"
	// MetricServerLatency is a histogram of end-to-end request wall time in
	// microseconds (admission to response).
	MetricServerLatency = "castle_server_request_micros"
	// MetricServerQueueWait is a histogram of time spent queued before a
	// worker picked the request up, in microseconds.
	MetricServerQueueWait = "castle_server_queue_wait_micros"
	// MetricServerTilesBusy gauges execution resources in use, labelled by
	// device (cape tiles, cpu slots).
	MetricServerTilesBusy = "castle_server_tiles_busy"
	// MetricServerTilesLeased gauges resources currently leased to
	// in-flight queries, labelled by device. Unlike the busy gauge it
	// counts elastic leases: a query fanning its fact sweep across K tiles
	// holds K here.
	MetricServerTilesLeased = "castle_server_tiles_leased"
	// MetricServerLeaseSize is a histogram of tiles leased per query (the
	// elastic-lease fan-out the scheduler actually granted).
	MetricServerLeaseSize = "castle_server_lease_size"
	// MetricServerInFlight gauges requests admitted but not yet completed
	// (queued or executing).
	MetricServerInFlight = "castle_server_in_flight_requests"
	// MetricServerPhaseMicros is a histogram of per-request lifecycle phase
	// durations in microseconds, labelled by phase (queue, lease, exec,
	// serialize). The four phases partition the end-to-end latency.
	MetricServerPhaseMicros = "castle_server_phase_micros"
	// MetricServerSlowQueries counts requests whose end-to-end latency
	// crossed the configured slow-query threshold.
	MetricServerSlowQueries = "castle_server_slow_queries_total"
	// MetricSharedSweeps counts fused shared-scan executions (one per
	// coalesced group that ran a fused fact sweep), labelled by device.
	MetricSharedSweeps = "castle_shared_sweeps_total"
	// MetricCoalescedQueries counts member queries served by a fused
	// shared-scan execution (a group of N adds N; identical-fingerprint
	// members that shared one result still count individually), labelled by
	// kind (fused, deduped).
	MetricCoalescedQueries = "castle_coalesced_queries_total"
	// MetricCoalesceWait is a histogram of how long queries waited in the
	// coalescing window before their group flushed, in microseconds.
	MetricCoalesceWait = "castle_coalesce_wait_micros"
)

// Metric names recorded by the scatter-gather cluster tier
// (internal/cluster).
const (
	// MetricNodeQueueDepth gauges queries queued or executing on one
	// simulated node, labelled by node ("shard<i>/r<j>"). The coordinator's
	// replica load balancer picks the replica with the smallest value.
	MetricNodeQueueDepth = "castle_node_queue_depth"
	// MetricShuffleBytes counts cross-node shuffle traffic (partial
	// aggregate rows shipped from shard executors to the coordinator),
	// labelled by shard index.
	MetricShuffleBytes = "castle_shuffle_bytes_total"
	// MetricClusterPhaseMicros is a histogram of coordinator phase
	// durations in microseconds, labelled by phase (scatter, gather).
	MetricClusterPhaseMicros = "castle_cluster_phase_micros"
	// MetricClusterShardsPruned counts shards skipped by range-partition
	// min/max pruning.
	MetricClusterShardsPruned = "castle_cluster_shards_pruned_total"
)
