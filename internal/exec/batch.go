package exec

// batch.go is the streaming execution layer: the pipeline's unit of work
// (Batch) and the double-buffered transfer channel that accounts a
// CAPE<->CPU crossing when execution streams instead of materializing.
//
// The cycle model is classic double buffering. The producer emits batch i
// with compute cycles C_i, then exports it with transfer cycles T_i into
// one of two buffers while the consumer drains the other. Batch 1's compute
// is the fill edge and batch n's transfer is the drain edge — neither can
// hide — but every interior transfer overlaps the next batch's compute:
//
//	elapsed = C_1 + sum_{i=1..n-1} max(T_i, C_{i+1}) + T_n
//
// Both engines still charge every cycle of work (the books are work
// accounting), so the breakdown reports the hidden portion as an explicit
// negative "xfer-overlap" credit row:
//
//	credit = sum_{i=1..n-1} min(T_i, C_{i+1})
//
// which is zero for 0 or 1 batches (pure fill + drain) and min(T_1, C_2)
// for two. The rows still partition the streamed TotalCycles exactly.

import "castle/internal/plan"

// Batch is one MAXVL-sized unit of survivor tuples flowing through a
// streaming pipeline: absolute fact-row indices in ascending order plus the
// dimension-attribute values the aggregation tail needs (keyed "dim.attr",
// aligned with Rows). The materializing path uses the same shape as its
// per-lane shipment; streaming discards each batch after consumption, which
// is what bounds peak memory at O(K·MAXVL).
type Batch struct {
	// Base is the first fact row of the partition this batch was produced
	// from (survivor rows are >= Base).
	Base  int
	Rows  []int
	Attrs map[string][]uint32
}

// NewBatch returns an empty batch carrying the given attribute keys.
func NewBatch(base int, attrKeys []string) *Batch {
	b := &Batch{Base: base, Attrs: make(map[string][]uint32, len(attrKeys))}
	for _, k := range attrKeys {
		b.Attrs[k] = nil
	}
	return b
}

// append moves o's survivor tuples onto the end of b: a materializing lane
// accumulates every partition's batch into one shipment.
func (b *Batch) append(o *Batch) {
	b.Rows = append(b.Rows, o.Rows...)
	for k, v := range o.Attrs {
		b.Attrs[k] = append(b.Attrs[k], v...)
	}
}

// Len returns the number of survivor tuples in the batch.
func (b *Batch) Len() int { return len(b.Rows) }

// ShipBytes is the batch's wire size across a device crossing: one 4-byte
// field per shipped tuple column (row identifier plus carried attributes).
func (b *Batch) ShipBytes(shipCols int) int64 {
	return int64(4 * len(b.Rows) * shipCols)
}

// ShipTupleFields returns the width of one shipped survivor tuple in 4-byte
// fields for a query (the row identifier plus every non-fact group-by
// attribute) — the factor behind the O(K·MAXVL) peak-memory bound.
func ShipTupleFields(q *plan.Query) int {
	_, cols := shipTailCols(q)
	return cols
}

// xferChannel is the double-buffered transfer channel accountant for one
// producer lane. record is called once per batch with the batch's compute
// cycles, its transfer cycles, and its resident bytes; the channel folds the
// overlap credit incrementally: batch i-1's transfer hides under batch i's
// compute, so each call credits min(prevXfer, compute).
type xferChannel struct {
	batches    int64
	credit     int64
	xferCycles int64

	prevXfer  int64
	prevBytes int64
	peakBytes int64
}

// record accounts one produced batch. compute and xfer are the lane's cycle
// deltas for producing and exporting the batch; bytes is the batch's wire
// size. Peak residency is the double-buffer high-water mark: the previous
// batch (being drained) plus this one (being filled).
func (ch *xferChannel) record(compute, xfer, bytes int64) {
	if ch.batches > 0 {
		hidden := ch.prevXfer
		if compute < hidden {
			hidden = compute
		}
		ch.credit += hidden
	}
	if resident := ch.prevBytes + bytes; resident > ch.peakBytes {
		ch.peakBytes = resident
	}
	ch.prevXfer = xfer
	ch.prevBytes = bytes
	ch.xferCycles += xfer
	ch.batches++
}

func newXferChannels(k int) []*xferChannel {
	chans := make([]*xferChannel, k)
	for i := range chans {
		chans[i] = &xferChannel{}
	}
	return chans
}

// streamStats sums a fact stage's lane channels: batches and peak bytes add
// across lanes. The run-level overlap credit is the lane's own when the
// stage ran serially (laneCycles nil); a fan-out's is bounded by the
// critical lane — the lanes already overlap each other, so only the
// transfer cycles that shorten the critical path count.
func streamStats(chans []*xferChannel, laneCycles []int64) StreamStats {
	var st StreamStats
	credits := make([]int64, len(chans))
	for i, ch := range chans {
		st.Batches += ch.batches
		st.PeakBatchBytes += ch.peakBytes
		credits[i] = ch.credit
	}
	if laneCycles == nil {
		st.OverlapCycles = credits[0]
	} else {
		st.OverlapCycles = overlapElapsedCredit(laneCycles, credits)
	}
	return st
}

// StreamStats summarizes one streaming run: batches produced across all
// lanes, transfer cycles hidden under compute (the xfer-overlap credit), and
// the peak resident batch bytes (summed across lanes — each lane holds at
// most two buffers).
type StreamStats struct {
	Batches        int64
	OverlapCycles  int64
	PeakBatchBytes int64
}

// overlapElapsedCredit converts per-lane work cycles and per-lane overlap
// credits into the run-level elapsed credit for a fan-out: the engines
// already advanced by the critical lane's full work, but with overlap each
// lane's effective elapsed is cy_t - credit_t, so the run saves the
// difference between the two critical paths. Never negative.
func overlapElapsedCredit(laneCycles, laneCredits []int64) int64 {
	var maxWork, maxEffective int64
	for t := range laneCycles {
		if laneCycles[t] > maxWork {
			maxWork = laneCycles[t]
		}
		if eff := laneCycles[t] - laneCredits[t]; eff > maxEffective {
			maxEffective = eff
		}
	}
	if c := maxWork - maxEffective; c > 0 {
		return c
	}
	return 0
}
