package main

import (
	"math/rand/v2"
	"sort"
	"sync"
	"time"
)

// poissonSchedule returns the arrival offsets of round(rate·d) requests in
// [0, d), sorted. A Poisson process conditioned on its count places its
// arrivals uniformly at random, so this keeps Poisson burstiness while every
// run at one rate offers exactly the same number of requests: the arrival
// count stops being a source of run-to-run noise.
func poissonSchedule(seed uint64, rate float64, d time.Duration) []time.Duration {
	n := int(rate*d.Seconds() + 0.5)
	rng := rand.New(rand.NewPCG(seed, 0x5C4ED01E))
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Int64N(int64(d)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// openLoop offers one request per schedule entry from a single generator
// goroutine: it sleeps until each request is due, then hands it to send on
// a goroutine of its own, so a slow answer never delays later arrivals.
// send receives the due time and must time the request from it, not from
// when it was actually sent, so a stall in the generator counts against the
// requests it delayed. openLoop waits for every request it sent and returns
// how late the generator sent each one, in milliseconds.
func openLoop(start time.Time, sched []time.Duration, send func(i int, due time.Time)) []float64 {
	late := make([]float64, len(sched))
	var wg sync.WaitGroup
	for i, off := range sched {
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late[i] = float64(time.Since(due).Microseconds()) / 1e3
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			send(i, due)
		}(i, due)
	}
	wg.Wait()
	return late
}
