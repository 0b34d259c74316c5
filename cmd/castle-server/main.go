// Command castle-server serves SQL over HTTP against the CAPE simulator:
// it generates (or loads) a database, starts the admission-controlled query
// service, and exposes POST /query, GET /metrics (Prometheus text format)
// and GET /healthz. SIGINT/SIGTERM drain gracefully: in-flight and queued
// queries finish, then the process exits 0.
//
// Usage:
//
//	castle-server -sf 0.01 -listen :8642              # serve SSB at SF 0.01
//	castle-server -load ssb.cstl -device hybrid
//
// To measure the service under load, run cmd/castlebench's serve-mix and
// serve-hot workloads: they drive the same handler in process and check
// every answer.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"castle"
	"castle/internal/server"
)

func main() {
	listen := flag.String("listen", ":8642", "address to serve HTTP on")
	sf := flag.Float64("sf", 0.01, "SSB scale factor to generate")
	seed := flag.Uint64("seed", 1, "SSB generator seed")
	loadPath := flag.String("load", "", "load a CSTL binary database instead of generating SSB")
	device := flag.String("device", "hybrid", "default execution device: cape, cpu, or hybrid")
	placement := flag.String("placement", "whole-query", "hybrid device granularity: whole-query or per-operator")
	adaptive := flag.Bool("adaptive", false, "enable the mid-query re-placement checkpoint for per-operator hybrid requests")
	capeTiles := flag.Int("cape-tiles", 2, "number of CAPE tiles to schedule")
	cpuSlots := flag.Int("cpu-slots", 2, "number of baseline-CPU slots to schedule")
	maxTiles := flag.Int("max-tiles", 1, "elastic lease size: tiles/slots a single query may fan its fact sweep across")
	queueDepth := flag.Int("queue", 64, "admission queue depth (beyond this, requests are shed with 429)")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-request deadline")
	slowMs := flag.Int64("slow-query-ms", 0, "log requests slower than this many milliseconds with phase attribution (0 disables)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this separate address (empty disables)")
	clusterNodes := flag.Int("cluster-nodes", 0, "shard the database across this many simulated nodes behind a scatter-gather coordinator (0 = single-node)")
	clusterReplicas := flag.Int("cluster-replicas", 1, "replicas per shard; the coordinator load-balances by queue depth")
	clusterPartition := flag.String("cluster-partition", "hash", "fact-table partitioning scheme: hash or range (range enables shard pruning)")
	clusterKey := flag.String("cluster-partition-key", "lo_orderdate", "fact column to partition on")
	scanSharing := flag.Bool("scan-sharing", false, "coalesce concurrent same-table queries into fused shared scans")
	coalesceWindow := flag.Duration("coalesce-window", 2*time.Millisecond, "how long an arriving query waits for sweep-mates before flushing (with -scan-sharing)")
	maxGroup := flag.Int("max-group", 8, "largest fused shared-scan group (with -scan-sharing)")
	flag.Parse()

	if _, err := castle.ParseDevice(*device); err != nil {
		fatalf("%v", err)
	}
	if _, err := castle.ParsePlacement(*placement); err != nil {
		fatalf("%v", err)
	}

	var db *castle.DB
	if *loadPath != "" {
		var err error
		if db, err = castle.Open(*loadPath); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("loaded database from %s\n", *loadPath)
	} else {
		fmt.Printf("generating SSB at SF=%.2f...\n", *sf)
		db = castle.GenerateSSB(*sf, *seed)
	}

	svc, err := server.New(db, nil, server.Config{
		Device:              *device,
		Placement:           *placement,
		QueueDepth:          *queueDepth,
		CAPETiles:           *capeTiles,
		CPUSlots:            *cpuSlots,
		MaxTilesPerQuery:    *maxTiles,
		DefaultTimeout:      *timeout,
		SlowQueryMillis:     *slowMs,
		ClusterNodes:        *clusterNodes,
		ClusterReplicas:     *clusterReplicas,
		ClusterPartition:    *clusterPartition,
		ClusterPartitionKey: *clusterKey,
		ScanSharing:         *scanSharing,
		CoalesceWindow:      *coalesceWindow,
		MaxGroupSize:        *maxGroup,
		Options:             castle.Options{AdaptivePlacement: *adaptive},
	})
	if err != nil {
		// Topology errors (negative shard/replica counts, a partition key
		// absent from the schema, an unknown scheme) land here descriptively.
		fatalf("%v", err)
	}

	if *debugAddr != "" {
		// Profiling gets its own mux on its own listener, so pprof never
		// shares the serving port (or its admission queue) with queries.
		debugMux := http.NewServeMux()
		debugMux.HandleFunc("/debug/pprof/", pprof.Index)
		debugMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		debugMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		debugMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		debugMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			fmt.Printf("pprof listening on %s\n", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, debugMux); err != nil {
				fmt.Fprintf(os.Stderr, "castle-server: pprof listener: %v\n", err)
			}
		}()
	}

	httpSrv := &http.Server{Addr: *listen, Handler: svc.Handler()}
	errCh := make(chan error, 1)
	go func() {
		fmt.Printf("%v listening on %s\n", svc, *listen)
		errCh <- httpSrv.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		fmt.Println("shutting down: draining in-flight queries...")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			fatalf("shutdown: %v", err)
		}
		if err := svc.Close(); err != nil {
			fatalf("drain: %v", err)
		}
		fmt.Println("drained cleanly")
	case err := <-errCh:
		fatalf("serve: %v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "castle-server: "+format+"\n", args...)
	os.Exit(1)
}
