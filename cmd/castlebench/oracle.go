package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"strings"

	"castle"
	"castle/internal/exec"
	"castle/internal/plan"
	"castle/internal/reference"
	"castle/internal/sql"
	"castle/internal/ssb"
	"castle/internal/storage"
)

// dataSeed fixes the SSB contents, so simulated cycles compare exactly
// across runs; the workload seed moves only what the clients send.
const dataSeed = 1

// crossChecks is how many ad-hoc statements are also run through the slow
// scalar oracle, on top of the hash-join oracle that checks all of them.
const crossChecks = 32

// oracle is the benchmark's own copy of the data and the answers every
// read is checked against. It shares no state with the database under test.
type oracle struct {
	store     *storage.Database
	templates []*stmt
	pool      []*stmt // ad-hoc statements (adhoc-ingest only)
}

// stmt is one statement a client may send, with its checked answer.
type stmt struct {
	Flight string
	SQL    string
	bound  *plan.Query
	want   string // canonical answer rows

	// The facade's simulated cycles on each forced device: set by simCheck
	// for the templates, by the first read for ad-hoc statements.
	cpuCycles, capeCycles int64
	// rows is a template's decoded answer, which a served answer must equal.
	rows [][]string
}

// canon renders answer rows as one comparable string. n is the row count;
// row returns one row's encoded keys and aggregates.
func canon(n int, row func(i int) ([]uint32, []int64)) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		keys, aggs := row(i)
		for _, k := range keys {
			fmt.Fprintf(&b, "%d,", k)
		}
		b.WriteByte('|')
		for _, a := range aggs {
			fmt.Fprintf(&b, "%d,", a)
		}
		b.WriteByte(';')
	}
	return b.String()
}

func canonRaw(rows []castle.RawRow) string {
	return canon(len(rows), func(i int) ([]uint32, []int64) { return rows[i].Keys, rows[i].Aggs })
}

func canonExec(rows []exec.Row) string {
	return canon(len(rows), func(i int) ([]uint32, []int64) { return rows[i].Keys, rows[i].Aggs })
}

func canonRef(rows []reference.Row) string {
	return canon(len(rows), func(i int) ([]uint32, []int64) { return rows[i].Keys, rows[i].Aggs })
}

func bindOn(store *storage.Database, text string) (*plan.Query, error) {
	st, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	return plan.Bind(st, store)
}

// newOracle generates the data and answers the 13 SSB templates with the
// scalar oracle in internal/reference.
func newOracle(sf float64) (*oracle, error) {
	o := &oracle{store: ssb.Generate(ssb.Config{SF: sf, Seed: dataSeed})}
	for _, q := range ssb.Queries() {
		b, err := bindOn(o.store, q.SQL)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.Flight, err)
		}
		o.templates = append(o.templates, &stmt{Flight: q.Flight, SQL: q.SQL, bound: b,
			want: canonRef(reference.Run(b, o.store).Rows)})
	}
	return o, nil
}

func (o *oracle) flights() []string {
	out := make([]string, len(o.templates))
	for i, t := range o.templates {
		out[i] = t.Flight
	}
	return out
}

// addPool draws the ad-hoc statements and answers each with exec.Reference.
// A seeded sample of crossChecks is also answered by internal/reference; the
// two oracles share no code, so they guard each other.
func (o *oracle) addPool(seed uint64) error {
	for _, a := range adhocPool(seed, o.flights(), adhocPoolSize) {
		b, err := bindOn(o.store, a.SQL)
		if err != nil {
			return fmt.Errorf("ad-hoc statement does not bind: %w\n%s", err, a.SQL)
		}
		o.pool = append(o.pool, &stmt{Flight: a.Flight, SQL: a.SQL, bound: b,
			want: canonExec(exec.Reference(b, o.store).Rows)})
	}
	rng := rand.New(rand.NewPCG(seed, 0xC4EC))
	for _, i := range rng.Perm(len(o.pool))[:crossChecks] {
		s := o.pool[i]
		if got := canonRef(reference.Run(s.bound, o.store).Rows); got != s.want {
			return fmt.Errorf("oracles disagree on ad-hoc statement %d (%s)", i, s.Flight)
		}
	}
	return nil
}

// simCheck runs every template through the facade on both forced devices,
// checks the answers, records each device's simulated cycles and returns the
// geomean of CPU cycles over CAPE cycles: the reproduction's headline number.
// The plan cache is bypassed so the check leaves the cache as setup left it.
func (o *oracle) simCheck(ctx context.Context, db *castle.DB) (float64, error) {
	ratios := make([]float64, 0, len(o.templates))
	for _, t := range o.templates {
		for _, dev := range []castle.Device{castle.DeviceCPU, castle.DeviceCAPE} {
			rows, m, err := db.QueryContext(ctx, t.SQL, castle.Options{Device: dev, Parallelism: 1, DisablePlanCache: true})
			if err != nil {
				return 0, fmt.Errorf("%s on %s: %w", t.Flight, dev, err)
			}
			if canonRaw(rows.Raw) != t.want {
				return 0, fmt.Errorf("%s on %s: wrong answer", t.Flight, dev)
			}
			if dev == castle.DeviceCPU {
				t.cpuCycles, t.rows = m.Cycles, rows.Data
			} else {
				t.capeCycles = m.Cycles
			}
		}
		ratios = append(ratios, float64(t.cpuCycles)/float64(t.capeCycles))
	}
	return geomean(ratios), nil
}
