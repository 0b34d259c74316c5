package server

// scheduler.go models CAPE's deployment as schedulable resources: the paper
// places CAPE "along other cores" in a tiled architecture (§7.2), so the
// serving layer sees N CAPE tiles and M CPU slots. Each tile runs one query
// at a time — queries that route to the same device serialize once the
// pool drains, while CAPE- and CPU-bound queries proceed independently.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"castle"
	"castle/internal/telemetry"
)

// Scheduler hands out execution tokens for concrete devices. Tokens are
// tile (or slot) ids; a buffered channel per device makes acquisition
// naturally queue-fair and cancellable.
type Scheduler struct {
	pools  map[castle.Device]chan int
	busy   map[castle.Device]*telemetry.Gauge
	leased map[castle.Device]*telemetry.Gauge
	// acquires counts granted leases (not tiles): a coalesced group of N
	// queries takes exactly one, which tests assert against.
	acquires atomic.Int64
}

// NewScheduler builds pools of capeTiles CAPE tiles and cpuSlots CPU slots
// (minimum one each) and registers the busy gauges so an idle server still
// exposes them at zero.
func NewScheduler(capeTiles, cpuSlots int, reg *telemetry.Registry) *Scheduler {
	if capeTiles < 1 {
		capeTiles = 1
	}
	if cpuSlots < 1 {
		cpuSlots = 1
	}
	s := &Scheduler{
		pools:  make(map[castle.Device]chan int, 2),
		busy:   make(map[castle.Device]*telemetry.Gauge, 2),
		leased: make(map[castle.Device]*telemetry.Gauge, 2),
	}
	for dev, n := range map[castle.Device]int{
		castle.DeviceCAPE: capeTiles,
		castle.DeviceCPU:  cpuSlots,
	} {
		pool := make(chan int, n)
		for i := 0; i < n; i++ {
			pool <- i
		}
		s.pools[dev] = pool
		if reg != nil {
			s.busy[dev] = reg.Gauge(telemetry.MetricServerTilesBusy,
				"Execution resources in use.", telemetry.L("device", dev.String()))
			s.leased[dev] = reg.Gauge(telemetry.MetricServerTilesLeased,
				"Execution resources leased to in-flight queries (elastic leases count every tile).",
				telemetry.L("device", dev.String()))
		}
	}
	return s
}

// Capacity reports the pool size for a device (0 for unknown devices).
func (s *Scheduler) Capacity(dev castle.Device) int {
	return cap(s.pools[dev])
}

// Acquires reports how many leases have been granted over the scheduler's
// lifetime. Leases, not tiles: an elastic lease of K tiles counts once,
// and a coalesced group running under one lease counts once for the whole
// group.
func (s *Scheduler) Acquires() int64 { return s.acquires.Load() }

// Acquire blocks until a tile of the requested concrete device frees up or
// ctx ends. DeviceHybrid has no pool — callers resolve routing first (see
// Stmt.Device). The returned release is idempotent and must be called.
func (s *Scheduler) Acquire(ctx context.Context, dev castle.Device) (func(), error) {
	lease, err := s.AcquireN(ctx, dev, 1)
	if err != nil {
		return nil, err
	}
	return lease.Release, nil
}

// Lease is a grant of one or more tiles of a single device. Release is
// idempotent and returns every tile to the pool.
type Lease struct {
	release func()
	size    int
}

// Size is the number of tiles the lease holds.
func (l *Lease) Size() int { return l.size }

// Release returns every leased tile to its pool. Idempotent.
func (l *Lease) Release() { l.release() }

// AcquireN grants an elastic lease of up to want tiles of a concrete
// device: the first tile is acquired blocking (so the request queues
// fairly and cannot starve), then up to want-1 more are taken only if they
// are free right now. Because at most one acquisition ever blocks — and a
// query already holding tiles never waits for more — concurrent elastic
// requests cannot deadlock; they simply get smaller leases under
// contention. want < 1 is treated as 1.
func (s *Scheduler) AcquireN(ctx context.Context, dev castle.Device, want int) (*Lease, error) {
	pool, ok := s.pools[dev]
	if !ok {
		return nil, fmt.Errorf("server: no resource pool for device %q (resolve hybrid routing before acquiring)", dev)
	}
	if want < 1 {
		want = 1
	}
	var tiles []int
	select {
	case tile := <-pool:
		tiles = append(tiles, tile)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	for len(tiles) < want {
		select {
		case tile := <-pool:
			tiles = append(tiles, tile)
		default:
			want = len(tiles) // pool drained: run with what we have
		}
	}
	n := len(tiles)
	s.acquires.Add(1)
	// busy counts queries occupying the device; leased counts the tiles
	// they hold (equal while every lease is size one).
	if g := s.busy[dev]; g != nil {
		g.Add(1)
	}
	if g := s.leased[dev]; g != nil {
		g.Add(int64(n))
	}
	var once sync.Once
	release := func() {
		once.Do(func() {
			if g := s.busy[dev]; g != nil {
				g.Add(-1)
			}
			if g := s.leased[dev]; g != nil {
				g.Add(-int64(n))
			}
			for _, tile := range tiles {
				pool <- tile
			}
		})
	}
	return &Lease{release: release, size: n}, nil
}
