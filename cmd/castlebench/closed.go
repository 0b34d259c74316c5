package main

import (
	"math/rand/v2"
	"time"
)

// picker chooses each closed-loop read: seeded shuffled passes over the 13
// templates for sim-cape, uniform draws from the ad-hoc pool for
// adhoc-ingest.
func (r *run) picker(stream uint64) func() *stmt {
	rng := rand.New(rand.NewPCG(r.cfg.seed, stream))
	if r.cfg.workload == adhocIngest {
		return func() *stmt { return r.or.pool[rng.IntN(len(r.or.pool))] }
	}
	return shuffledPasses(rng, r.or.templates)
}

// shuffledPasses returns the items in shuffled passes: every item once per
// pass, in a fresh order each pass. Unlike independent draws this keeps the
// mix exact, so a latency percentile that falls near the boundary between
// fast and slow statements does not move with how many of each a seed drew.
func shuffledPasses(rng *rand.Rand, items []*stmt) func() *stmt {
	var order []int
	return func() *stmt {
		if len(order) == 0 {
			order = rng.Perm(len(items))
		}
		s := items[order[0]]
		order = order[1:]
		return s
	}
}

// closedOut is what one closed-loop phase measured.
type closedOut struct {
	lat     []float64 // ms per read, from send to answer
	stall   []float64 // ms from an import's start to the next read's answer
	elapsed time.Duration
}

func (c closedOut) rate() float64 {
	return float64(len(c.lat)+len(c.stall)) / c.elapsed.Seconds()
}

// closedLoop runs the single client for d. Each read goes through read;
// on adhoc-ingest the same client re-imports the date table every
// writeEvery, between reads, and the read after an import counts as that
// import's stall instead of as a plain read.
func (r *run) closedLoop(d time.Duration, pick func() *stmt, write func(), read func(*stmt)) closedOut {
	var out closedOut
	start := time.Now()
	deadline := start.Add(d)
	nextWrite := start.Add(writeEvery)
	for time.Now().Before(deadline) {
		var stallFrom time.Time
		if r.cfg.workload == adhocIngest && !time.Now().Before(nextWrite) {
			stallFrom = time.Now()
			write()
			for !time.Now().Before(nextWrite) {
				nextWrite = nextWrite.Add(writeEvery)
			}
		}
		s := pick()
		t0 := time.Now()
		read(s)
		done := time.Now()
		if stallFrom.IsZero() {
			out.lat = append(out.lat, ms(done.Sub(t0)))
		} else {
			out.stall = append(out.stall, ms(done.Sub(stallFrom)))
		}
	}
	out.elapsed = time.Since(start)
	return out
}

// facadeWrite re-imports the date table through the facade.
func (r *run) facadeWrite() {
	if err := r.env.db.ImportCSV("date", r.csv); err != nil {
		r.attempted++
		r.fail("import: %v", err)
	}
}

func (r *run) measureClosed() {
	out := r.closedLoop(r.cfg.window, r.picker(1), r.facadeWrite, r.readFacade)
	r.reportReads(out.lat)
	r.metrics["queries_per_s"] = out.rate()
	r.notef("queries_per_s: %d reads in %.2fs", len(out.lat)+len(out.stall), out.elapsed.Seconds())
	if r.cfg.workload == adhocIngest {
		st := summarize(out.stall)
		r.metrics["write_stall_p50_ms"] = st.P50
		r.notef("write_stall_p50_ms: %d imports", st.N)
	}
}

// reportReads sets p50_ms and p99_ms from per-read latencies.
func (r *run) reportReads(lat []float64) {
	d := summarize(lat)
	r.metrics["p50_ms"], r.metrics["p99_ms"] = d.P50, d.P99
	r.notef("p50_ms/p99_ms: n=%d; highest percentile with >=%d samples beyond it: p%.2f = %.3f ms",
		d.N, minBeyond, d.TailPct, d.Tail)
}
