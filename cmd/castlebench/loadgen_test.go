package main

import (
	"slices"
	"sync"
	"testing"
	"time"
)

func TestPoissonScheduleIsSeeded(t *testing.T) {
	a := poissonSchedule(7, 50, 2*time.Second)
	b := poissonSchedule(7, 50, 2*time.Second)
	c := poissonSchedule(8, 50, 2*time.Second)
	if !slices.Equal(a, b) {
		t.Fatal("one seed gave two schedules")
	}
	if slices.Equal(a, c) {
		t.Fatal("two seeds gave one schedule")
	}
	if len(a) != 100 {
		t.Fatalf("%d arrivals at 50/s for 2s, want 100", len(a))
	}
	if !slices.IsSorted(a) || a[0] < 0 || a[len(a)-1] >= 2*time.Second {
		t.Fatalf("arrivals not sorted within [0, 2s): first %v last %v", a[0], a[len(a)-1])
	}
}

func TestOpenLoopTimesFromDueWhenLate(t *testing.T) {
	// Every request was due 50ms before the generator started, so the
	// generator is late for all of them; latency must count that wait.
	const behind = 50 * time.Millisecond
	sched := []time.Duration{0, time.Millisecond, 2 * time.Millisecond}
	start := time.Now().Add(-behind)
	var mu sync.Mutex
	var lat []time.Duration
	late := openLoop(start, sched, func(i int, due time.Time) {
		done := time.Now() // an instant answer
		mu.Lock()
		lat = append(lat, done.Sub(due))
		mu.Unlock()
	})
	if len(lat) != len(sched) || len(late) != len(sched) {
		t.Fatalf("%d answers and %d lateness samples for %d arrivals", len(lat), len(late), len(sched))
	}
	for i, l := range lat {
		if l < behind-2*time.Millisecond {
			t.Errorf("request %d: latency %v does not include the generator's %v delay", i, l, behind)
		}
	}
	for i, l := range late {
		if l < ms(behind)-2 {
			t.Errorf("request %d: lateness %.1fms, want about %v", i, l, behind)
		}
	}
}

func TestOpenLoopKeepsSchedule(t *testing.T) {
	sched := []time.Duration{0, 20 * time.Millisecond, 40 * time.Millisecond}
	start := time.Now()
	var mu sync.Mutex
	var sent []time.Duration
	openLoop(start, sched, func(i int, due time.Time) {
		mu.Lock()
		sent = append(sent, time.Since(start))
		mu.Unlock()
		time.Sleep(30 * time.Millisecond) // slower than the arrival gap
	})
	slices.Sort(sent)
	for i, s := range sent {
		if s < sched[i] {
			t.Errorf("request %d sent at %v, before it was due at %v", i, s, sched[i])
		}
	}
	if sent[2] > 40*time.Millisecond+25*time.Millisecond {
		t.Errorf("a slow answer delayed the next arrival: third request sent at %v", sent[2])
	}
}
