package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden benchmark report")

// TestBenchReportGolden pins the whole SF 0.01 benchmark report byte for
// byte: the geomean, every query's cycles and every curve. Each number is
// simulated, so any drift is a model change. Regenerate with
// `go test ./internal/experiments -run TestBenchReportGolden -update` only
// when a change sets out to move the model, and review the diff.
func TestBenchReportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark report skipped in -short mode")
	}
	var buf bytes.Buffer
	if err := RunBench(0.01).WriteBenchJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()

	path := filepath.Join("testdata", "bench_sf0.01.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("benchmark report diverged from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("benchmark report diverged from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
