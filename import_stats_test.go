package castle

// import_stats_test.go checks the facade's per-table statistics upkeep
// from inside the package: after every change the lazily maintained
// catalog must equal a full collect, and a change must recollect only the
// table it touched.

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"castle/internal/stats"
)

// TestImportRecollectsOnlyItsTable imports a new table, re-imports it with
// other contents, builds a table column by column and refreshes, querying
// after every step. Each step must leave a catalog equal to a full collect
// and show up as exactly one plan-cache flush; until the refresh,
// lineorder's statistics must be the very ones collected first.
func TestImportRecollectsOnlyItsTable(t *testing.T) {
	db := GenerateSSB(0.01, 20260704)
	sql := SSBQueries()[0].SQL
	opt := Options{Device: DeviceCPU}
	dir := t.TempDir()
	writeCSV := func(name string, rows int, mul uint32) string {
		t.Helper()
		var b strings.Builder
		b.WriteString("x_key,x_val,x_tag\n")
		for i := 0; i < rows; i++ {
			fmt.Fprintf(&b, "%d,%d,tag%d\n", i, uint32(i)*mul%1000, i%7)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	var flushes int64
	var lineorder *stats.TableStats
	// step queries, then checks the catalog and that the change before it
	// flushed the plan cache wantFlushes times.
	step := func(name string, wantFlushes int64) {
		t.Helper()
		if _, _, err := db.QueryWith(sql, opt); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := db.catalog(), stats.Collect(db.store); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: catalog differs from a full collect", name)
		}
		if lineorder != nil && db.catalog().Table("lineorder") != lineorder {
			t.Fatalf("%s: a change to another table recollected lineorder", name)
		}
		st := db.PlanCacheStats()
		if st.Flushes != flushes+wantFlushes {
			t.Fatalf("%s: %d plan-cache flushes, want %d", name, st.Flushes, flushes+wantFlushes)
		}
		flushes = st.Flushes
	}

	step("first query", 0)
	lineorder = db.catalog().Table("lineorder")

	if err := db.ImportCSV("extra", writeCSV("a.csv", 3000, 7)); err != nil {
		t.Fatal(err)
	}
	step("import", 1)
	extra := db.catalog().Table("extra")
	if extra == nil || extra.Rows != 3000 {
		t.Fatalf("imported table statistics: %+v", extra)
	}

	if err := db.ImportCSV("extra", writeCSV("b.csv", 500, 13)); err != nil {
		t.Fatal(err)
	}
	step("re-import", 1)
	if got := db.catalog().Table("extra"); got == extra || got.Rows != 500 {
		t.Fatalf("re-import kept the old statistics: %+v", got)
	}

	db.CreateTable("built").Int("b_id", []uint32{3, 1, 4, 1, 5}).
		String("b_name", []string{"a", "b", "c", "d", "e"})
	step("create table", 1)
	if got := db.catalog().Table("built"); got == nil || len(got.Columns) != 2 {
		t.Fatalf("built table statistics: %+v", got)
	}

	db.RefreshStats()
	if db.catalog().Table("lineorder") == lineorder {
		t.Fatal("RefreshStats kept lineorder's old statistics")
	}
	lineorder = nil
	step("refresh", 1)
}
