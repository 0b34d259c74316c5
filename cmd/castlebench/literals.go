package main

import (
	"fmt"
	"math/rand/v2"
)

// adhocPoolSize is twice the facade's 256-entry plan cache, so a uniform
// draw from the pool misses and evicts instead of settling into hits.
const adhocPoolSize = 512

// adhocStmt is one statement of the ad-hoc pool: an SSB flight's shape with
// freshly drawn literals.
type adhocStmt struct {
	Flight string
	SQL    string
}

var (
	ssbRegions = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	// ssbNations are the nations each region's queries draw from, with the
	// SSB city stem (the name padded or cut to nine characters).
	ssbNations = map[string][]string{
		"AFRICA":      {"ALGERIA", "ETHIOPIA", "KENYA", "MOROCCO", "MOZAMBIQUE"},
		"AMERICA":     {"ARGENTINA", "BRAZIL", "CANADA", "PERU", "UNITED STATES"},
		"ASIA":        {"INDIA", "INDONESIA", "JAPAN", "CHINA", "VIETNAM"},
		"EUROPE":      {"FRANCE", "GERMANY", "ROMANIA", "RUSSIA", "UNITED KINGDOM"},
		"MIDDLE EAST": {"EGYPT", "IRAN", "IRAQ", "JORDAN", "SAUDI ARABIA"},
	}
	monthAbbr = []string{"Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"}
)

func cityOf(nation string, k int) string {
	n := fmt.Sprintf("%-9s", nation)
	return n[:9] + fmt.Sprint(k)
}

// litGen draws SSB literals from one seeded stream.
type litGen struct{ r *rand.Rand }

func (g litGen) year() int        { return 1992 + g.r.IntN(7) }
func (g litGen) region() string   { return ssbRegions[g.r.IntN(len(ssbRegions))] }
func (g litGen) mfgr() int        { return 1 + g.r.IntN(5) }
func (g litGen) category() string { return fmt.Sprintf("MFGR#%d%d", g.mfgr(), 1+g.r.IntN(5)) }
func (g litGen) nation(region string) string {
	ns := ssbNations[region]
	return ns[g.r.IntN(len(ns))]
}

// yearRange returns lo <= hi within the SSB date range.
func (g litGen) yearRange() (int, int) {
	lo := g.year()
	return lo, lo + g.r.IntN(1999-lo)
}

// twoCities returns two distinct cities of one nation.
func (g litGen) twoCities(nation string) (string, string) {
	a := g.r.IntN(10)
	b := (a + 1 + g.r.IntN(9)) % 10
	return cityOf(nation, a), cityOf(nation, b)
}

// flightSQL renders one statement of the given SSB flight with drawn
// literals. The shapes are the thirteen SSB queries' own.
func (g litGen) flightSQL(flight string) string {
	switch flight {
	case "Q1.1":
		d := g.r.IntN(9)
		return fmt.Sprintf(`SELECT SUM(lo_extendedprice * lo_discount) AS revenue FROM lineorder, date
WHERE lo_orderdate = d_datekey AND d_year = %d AND lo_discount BETWEEN %d AND %d AND lo_quantity < %d`,
			g.year(), d, d+2, 20+g.r.IntN(11))
	case "Q1.2":
		d, q := g.r.IntN(9), 20+g.r.IntN(11)
		return fmt.Sprintf(`SELECT SUM(lo_extendedprice * lo_discount) AS revenue FROM lineorder, date
WHERE lo_orderdate = d_datekey AND d_yearmonthnum = %d AND lo_discount BETWEEN %d AND %d AND lo_quantity BETWEEN %d AND %d`,
			g.year()*100+1+g.r.IntN(12), d, d+2, q, q+9)
	case "Q1.3":
		d, q := g.r.IntN(9), 20+g.r.IntN(11)
		return fmt.Sprintf(`SELECT SUM(lo_extendedprice * lo_discount) AS revenue FROM lineorder, date
WHERE lo_orderdate = d_datekey AND d_weeknuminyear = %d AND d_year = %d AND lo_discount BETWEEN %d AND %d AND lo_quantity BETWEEN %d AND %d`,
			1+g.r.IntN(52), g.year(), d, d+2, q, q+9)
	case "Q2.1":
		return fmt.Sprintf(`SELECT SUM(lo_revenue), d_year, p_brand1 FROM lineorder, date, part, supplier
WHERE lo_orderdate = d_datekey AND lo_partkey = p_partkey AND lo_suppkey = s_suppkey
AND p_category = '%s' AND s_region = '%s' GROUP BY d_year, p_brand1`, g.category(), g.region())
	case "Q2.2":
		// Two-digit brand numbers keep the string range in numeric order.
		cat, b := g.category(), 10+g.r.IntN(24)
		return fmt.Sprintf(`SELECT SUM(lo_revenue), d_year, p_brand1 FROM lineorder, date, part, supplier
WHERE lo_orderdate = d_datekey AND lo_partkey = p_partkey AND lo_suppkey = s_suppkey
AND p_brand1 BETWEEN '%s%d' AND '%s%d' AND s_region = '%s' GROUP BY d_year, p_brand1`, cat, b, cat, b+7, g.region())
	case "Q2.3":
		return fmt.Sprintf(`SELECT SUM(lo_revenue), d_year, p_brand1 FROM lineorder, date, part, supplier
WHERE lo_orderdate = d_datekey AND lo_partkey = p_partkey AND lo_suppkey = s_suppkey
AND p_brand1 = '%s%d' AND s_region = '%s' GROUP BY d_year, p_brand1`, g.category(), 1+g.r.IntN(40), g.region())
	case "Q3.1":
		reg := g.region()
		lo, hi := g.yearRange()
		return fmt.Sprintf(`SELECT c_nation, s_nation, d_year, SUM(lo_revenue) AS revenue FROM customer, lineorder, supplier, date
WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey AND lo_orderdate = d_datekey
AND c_region = '%s' AND s_region = '%s' AND d_year >= %d AND d_year <= %d GROUP BY c_nation, s_nation, d_year`, reg, reg, lo, hi)
	case "Q3.2":
		n := g.nation(g.region())
		lo, hi := g.yearRange()
		return fmt.Sprintf(`SELECT c_city, s_city, d_year, SUM(lo_revenue) AS revenue FROM customer, lineorder, supplier, date
WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey AND lo_orderdate = d_datekey
AND c_nation = '%s' AND s_nation = '%s' AND d_year >= %d AND d_year <= %d GROUP BY c_city, s_city, d_year`, n, n, lo, hi)
	case "Q3.3":
		n := g.nation(g.region())
		c1, c2 := g.twoCities(n)
		lo, hi := g.yearRange()
		return fmt.Sprintf(`SELECT c_city, s_city, d_year, SUM(lo_revenue) AS revenue FROM customer, lineorder, supplier, date
WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey AND lo_orderdate = d_datekey
AND (c_city = '%s' OR c_city = '%s') AND (s_city = '%s' OR s_city = '%s')
AND d_year >= %d AND d_year <= %d GROUP BY c_city, s_city, d_year`, c1, c2, c1, c2, lo, hi)
	case "Q3.4":
		n := g.nation(g.region())
		c1, c2 := g.twoCities(n)
		return fmt.Sprintf(`SELECT c_city, s_city, d_year, SUM(lo_revenue) AS revenue FROM customer, lineorder, supplier, date
WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey AND lo_orderdate = d_datekey
AND (c_city = '%s' OR c_city = '%s') AND (s_city = '%s' OR s_city = '%s')
AND d_yearmonth = '%s%d' GROUP BY c_city, s_city, d_year`, c1, c2, c1, c2, monthAbbr[g.r.IntN(12)], g.year())
	case "Q4.1":
		reg, m := g.region(), g.mfgr()
		return fmt.Sprintf(`SELECT d_year, c_nation, SUM(lo_revenue - lo_supplycost) AS profit FROM date, customer, supplier, part, lineorder
WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey AND lo_partkey = p_partkey AND lo_orderdate = d_datekey
AND c_region = '%s' AND s_region = '%s' AND (p_mfgr = 'MFGR#%d' OR p_mfgr = 'MFGR#%d') GROUP BY d_year, c_nation`,
			reg, reg, m, 1+m%5)
	case "Q4.2":
		reg, m, y := g.region(), g.mfgr(), 1992+g.r.IntN(6)
		return fmt.Sprintf(`SELECT d_year, s_nation, p_category, SUM(lo_revenue - lo_supplycost) AS profit FROM date, customer, supplier, part, lineorder
WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey AND lo_partkey = p_partkey AND lo_orderdate = d_datekey
AND c_region = '%s' AND s_region = '%s' AND (d_year = %d OR d_year = %d) AND (p_mfgr = 'MFGR#%d' OR p_mfgr = 'MFGR#%d')
GROUP BY d_year, s_nation, p_category`, reg, reg, y, y+1, m, 1+m%5)
	case "Q4.3":
		reg := g.region()
		y := 1992 + g.r.IntN(6)
		return fmt.Sprintf(`SELECT d_year, s_city, p_brand1, SUM(lo_revenue - lo_supplycost) AS profit FROM date, customer, supplier, part, lineorder
WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey AND lo_partkey = p_partkey AND lo_orderdate = d_datekey
AND s_nation = '%s' AND c_region = '%s' AND (d_year = %d OR d_year = %d) AND p_category = '%s'
GROUP BY d_year, s_city, p_brand1`, g.nation(reg), reg, y, y+1, g.category())
	}
	panic("castlebench: unknown flight " + flight)
}

// adhocPool draws n distinct statements, cycling through the flights so
// every shape is represented about equally. Distinct means distinct text,
// which is what the plan cache keys on.
func adhocPool(seed uint64, flights []string, n int) []adhocStmt {
	g := litGen{r: rand.New(rand.NewPCG(seed, 0xAD0C))}
	seen := make(map[string]bool, n)
	out := make([]adhocStmt, 0, n)
	for i := 0; len(out) < n; i++ {
		f := flights[i%len(flights)]
		sql := g.flightSQL(f)
		if seen[sql] {
			continue
		}
		seen[sql] = true
		out = append(out, adhocStmt{Flight: f, SQL: sql})
	}
	return out
}
