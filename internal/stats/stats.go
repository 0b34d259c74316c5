// Package stats computes the table statistics Castle's query optimizer and
// ABA consume: row counts, per-column min/max and distinct-value counts.
// Database systems collect these at ingestion time by default (§5.1 cites
// Selinger-style min/max statistics); Castle does the same when a relation
// is registered.
package stats

import (
	"fmt"

	"castle/internal/storage"
)

// ColumnStats summarises one column.
type ColumnStats struct {
	Min, Max uint32
	// Distinct is the exact number of distinct values.
	Distinct int
	// BitWidth is the operating bitwidth ABA can use for the column.
	BitWidth int
	// Hist is an equi-depth histogram used for range selectivity on
	// skewed distributions (nil when collection was skipped).
	Hist *Histogram
}

// TableStats summarises one relation.
type TableStats struct {
	Rows    int
	Columns map[string]ColumnStats
}

// Catalog holds statistics for every relation in a database.
type Catalog struct {
	tables map[string]*TableStats
}

// Collect scans the database and builds a statistics catalog.
func Collect(db *storage.Database) *Catalog {
	return Update(nil, db, nil)
}

// Update builds a catalog for db that shares prev's statistics for every
// table not named in stale and collects the rest: the stale tables, and
// any table prev has no statistics for. A nil prev collects every table.
// A table's statistics depend only on its own contents, so the result
// equals Collect(db). prev is left unchanged, so queries still holding it
// can keep reading it.
func Update(prev *Catalog, db *storage.Database, stale map[string]bool) *Catalog {
	c := &Catalog{tables: make(map[string]*TableStats)}
	var buf sampleBuf
	for _, t := range db.Tables() {
		var ts *TableStats
		if prev != nil && !stale[t.Name] {
			ts = prev.tables[t.Name]
		}
		if ts == nil {
			ts = collectTable(t, &buf)
		}
		c.tables[t.Name] = ts
	}
	return c
}

// collectTable scans one relation; buf is the histogram sample scratch
// its columns share.
func collectTable(t *storage.Table, buf *sampleBuf) *TableStats {
	ts := &TableStats{Rows: t.Rows(), Columns: make(map[string]ColumnStats)}
	for _, col := range t.Columns() {
		ts.Columns[col.Name] = ColumnStats{
			Min:      col.Min,
			Max:      col.Max,
			Distinct: countDistinct(col.Data),
			BitWidth: col.BitWidth(),
			Hist:     buf.histogram(col.Data, defaultBuckets),
		}
	}
	return ts
}

// countDistinct counts distinct values — exactly for small columns, with
// the deterministic KMV sketch beyond sketchExactCap rows (an exact map
// over a multi-million-row fact column would dominate collection time).
func countDistinct(data []uint32) int {
	if len(data) > sketchExactCap {
		return estimateDistinctKMV(data)
	}
	seen := make(map[uint32]struct{}, 1024)
	for _, v := range data {
		seen[v] = struct{}{}
	}
	return len(seen)
}

// Table returns statistics for the named relation, or nil.
func (c *Catalog) Table(name string) *TableStats { return c.tables[name] }

// MustTable returns statistics for the named relation or panics.
func (c *Catalog) MustTable(name string) *TableStats {
	t := c.tables[name]
	if t == nil {
		panic(fmt.Sprintf("stats: no statistics for table %s", name))
	}
	return t
}

// Column returns statistics for table.column; ok is false if either is
// unknown.
func (c *Catalog) Column(table, column string) (ColumnStats, bool) {
	t := c.tables[table]
	if t == nil {
		return ColumnStats{}, false
	}
	cs, ok := t.Columns[column]
	return cs, ok
}

// EqSelectivity estimates the fraction of rows matching column = literal
// under the uniform-distribution assumption (1/NDV, the classic Selinger
// estimate).
func (cs ColumnStats) EqSelectivity() float64 {
	if cs.Distinct == 0 {
		return 0
	}
	return 1 / float64(cs.Distinct)
}

// RangeSelectivity estimates the fraction of rows with lo <= value <= hi,
// using the equi-depth histogram when available and falling back to the
// classic min/max uniform assumption otherwise.
func (cs ColumnStats) RangeSelectivity(lo, hi uint32) float64 {
	if cs.Max < cs.Min {
		return 0
	}
	if hi > cs.Max {
		hi = cs.Max
	}
	if lo < cs.Min {
		lo = cs.Min
	}
	if hi < lo {
		return 0
	}
	if cs.Hist != nil {
		return cs.Hist.RangeFraction(lo, hi)
	}
	span := float64(cs.Max-cs.Min) + 1
	return (float64(hi-lo) + 1) / span
}

// InSelectivity estimates the fraction of rows matching an IN list of k
// values.
func (cs ColumnStats) InSelectivity(k int) float64 {
	s := float64(k) * cs.EqSelectivity()
	if s > 1 {
		s = 1
	}
	return s
}
