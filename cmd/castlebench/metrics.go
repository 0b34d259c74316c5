package main

import "castle/internal/ssb"

// metric declares one reported number. The lists below are what
// BENCHMARK.json declares; a test keeps the two in step.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload's untraced run. Each workload defines a read: a facade query on
// the closed loops, an HTTP request on the serve workloads.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"heap_p95_mb", "MB", "lower", 0.15},
	{"ok_frac", "ratio", "higher", 0.05},
	{"p50_ms", "ms", "lower", 0.25},
	{"p99_ms", "ms", "lower", 0.25},
	{"queries_per_s", "1/s", "higher", 0.25},
	{"sim_speedup_geomean", "x", "higher", 0.0001},
	{"write_stall_p50_ms", "ms", "lower", 0.20},
}

// perLayer are the traced run's metrics, one or more per layer.
func perLayer() []metric {
	var flights []string
	for _, q := range ssb.Queries() {
		flights = append(flights, q.Flight)
	}
	out := []metric{
		{Name: "server.queue_ms.p50", Unit: "ms", Better: "lower"},
		{Name: "server.queue_ms.p99", Unit: "ms", Better: "lower"},
		{Name: "server.lease_ms.p99", Unit: "ms", Better: "lower"},
		{Name: "server.exec_ms.p50", Unit: "ms", Better: "lower"},
		{Name: "server.exec_ms.p99", Unit: "ms", Better: "lower"},
		{Name: "server.serialize_ms.p50", Unit: "ms", Better: "lower"},
		{Name: "server.http_codec_us.p50", Unit: "us", Better: "lower"},
		{Name: "server.shed_frac", Unit: "ratio", Better: "lower"},
		{Name: "server.exec_busy_frac", Unit: "ratio", Better: "lower"},
		{Name: "server.cape_routed_frac", Unit: "ratio", Better: "higher"},
		{Name: "server.coalesce.hit_frac", Unit: "ratio", Better: "higher"},
		{Name: "server.coalesce.group_size_mean", Unit: "count", Better: "higher"},
		{Name: "server.coalesce.dedup_frac", Unit: "ratio", Better: "higher"},
		{Name: "server.coalesce.wait_ms.mean", Unit: "ms", Better: "lower"},
		{Name: "gen.late_ms.p99", Unit: "ms", Better: "lower"},
		{Name: "plancache.hit_frac", Unit: "ratio", Better: "higher"},
		{Name: "plancache.evictions", Unit: "count", Better: "lower"},
		{Name: "plancache.flushes", Unit: "count", Better: "lower"},
		{Name: "castle.other_us.p50", Unit: "us", Better: "lower"},
		{Name: "sql.parse_us.p50", Unit: "us", Better: "lower"},
		{Name: "plan.bind_us.p50", Unit: "us", Better: "lower"},
		{Name: "optimizer.optimize_us.p50", Unit: "us", Better: "lower"},
		{Name: "stats.collect_ms.p50", Unit: "ms", Better: "lower"},
		{Name: "storage.read_csv_ms.p50", Unit: "ms", Better: "lower"},
	}
	for _, f := range flights {
		out = append(out, metric{Name: "cape.exec_ms." + f, Unit: "ms", Better: "lower"})
	}
	out = append(out,
		metric{Name: "cape.vinstrs_per_query", Unit: "count", Better: "lower"},
		metric{Name: "cape.ns_per_vinstr", Unit: "ns", Better: "lower"},
		metric{Name: "cape.allocs_per_query", Unit: "count", Better: "lower"},
		metric{Name: "cape.alloc_mb_per_query", Unit: "MB", Better: "lower"},
	)
	for _, f := range flights {
		out = append(out, metric{Name: "cape.sim_cycles." + f, Unit: "cycles", Better: "lower"})
	}
	for _, f := range flights {
		out = append(out, metric{Name: "cpu.exec_ms." + f, Unit: "ms", Better: "lower"})
	}
	out = append(out, metric{Name: "cpu.allocs_per_query", Unit: "count", Better: "lower"})
	for _, f := range flights {
		out = append(out, metric{Name: "cpu.sim_cycles." + f, Unit: "cycles", Better: "lower"})
	}
	return append(out,
		metric{Name: "runtime.gc_cpu_frac", Unit: "ratio", Better: "lower"},
		metric{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
	)
}

func perLayerNames() []string {
	var out []string
	for _, m := range perLayer() {
		out = append(out, m.Name)
	}
	return out
}
