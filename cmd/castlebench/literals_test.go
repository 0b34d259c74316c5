package main

import (
	"testing"

	"castle/internal/optimizer"
	"castle/internal/plan"
	"castle/internal/ssb"
)

func TestAdhocPoolIsDistinctAndBinds(t *testing.T) {
	var flights []string
	for _, q := range ssb.Queries() {
		flights = append(flights, q.Flight)
	}
	store := ssb.Generate(ssb.Config{SF: 0.002, Seed: dataSeed})
	for _, seed := range []uint64{1, 2} {
		pool := adhocPool(seed, flights, adhocPoolSize)
		fps := make(map[string]bool)
		perFlight := make(map[string]int)
		for _, s := range pool {
			// The key the plan cache files a forced-CPU statement under.
			fps[optimizer.Fingerprint(s.SQL, "cpu", 0, plan.ZigZag, false)] = true
			perFlight[s.Flight]++
			if _, err := bindOn(store, s.SQL); err != nil {
				t.Fatalf("seed %d: %s does not bind: %v\n%s", seed, s.Flight, err, s.SQL)
			}
		}
		if len(fps) < adhocPoolSize {
			t.Errorf("seed %d: %d distinct plan-cache keys, want >= %d", seed, len(fps), adhocPoolSize)
		}
		if len(perFlight) != len(flights) {
			t.Errorf("seed %d: pool covers %d of %d flights", seed, len(perFlight), len(flights))
		}
	}
	a, b := adhocPool(1, flights, 20), adhocPool(1, flights, 20)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("one seed drew two pools")
		}
	}
}
