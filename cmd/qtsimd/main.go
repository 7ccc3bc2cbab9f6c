// Command qtsimd is the multi-tenant simulation daemon: it serves the
// internal/serve HTTP/JSON job API, multiplexing concurrent NEGF
// simulations over the process's shared worker pool under admission
// control.
//
// A job is the same versioned RunConfig document cmd/qtsim consumes, so a
// run tuned on the command line can be submitted unchanged:
//
//	qtsimd -addr :8080 &
//	curl -d @examples/run.json localhost:8080/v1/jobs
//	curl localhost:8080/v1/jobs/j1/stream        # NDJSON, one line per Born iteration
//	curl -X POST localhost:8080/v1/jobs/j1/cancel
//	curl localhost:8080/v1/jobs/j1/result
//
// Observability is always on: /metrics exposes the registry (global solver
// counters plus per-job serve.job_* series) in Prometheus text format, and
// /healthz reports the queue snapshot. SIGINT/SIGTERM drain gracefully:
// the listener closes, queued jobs are cancelled, running jobs get their
// contexts cancelled and stop within one Born iteration.
//
// With -peers the daemon instead becomes one rank of a multi-process TCP
// cluster and executes a single distributed run end-to-end (see peer.go):
//
//	qtsimd -peer-rank 0 -peers 127.0.0.1:9000,127.0.0.1:9001 -peer-config run.json -result-out r0.json
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"negfsim/internal/campaign"
	"negfsim/internal/obs"
	"negfsim/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address for the job API")
	maxConcurrent := flag.Int("max-concurrent", 2, "simulations run simultaneously")
	queueDepth := flag.Int("queue-depth", 16, "jobs admitted beyond the running ones before 429")
	workerBudget := flag.Int("worker-budget", runtime.GOMAXPROCS(0), "total grid-point parallelism shared by all running jobs")
	retain := flag.Int("retain", 64, "finished jobs kept queryable before eviction")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget")
	peers := flag.String("peers", "", "comma-separated peer addresses (index = rank); runs ONE distributed job SPMD-style instead of serving")
	peerRank := flag.Int("peer-rank", -1, "rank this process hosts when -peers is set")
	peerConfig := flag.String("peer-config", "", "run config JSON for peer mode (must carry a \"dist\" grid matching the peer count)")
	resultOut := flag.String("result-out", "", "peer mode: write the run's result JSON here (default stdout)")
	dieAfterIter := flag.Int("die-after-iter", 0, "peer mode fault drill: SIGKILL self after N completed Born iterations")
	flag.Parse()

	obs.Enable()
	if *peers != "" {
		if err := runPeer(*peerRank, *peers, *peerConfig, *resultOut, *dieAfterIter); err != nil {
			log.Fatalf("qtsimd: peer: %v", err)
		}
		return
	}
	sched := serve.New(serve.Config{
		MaxConcurrent: *maxConcurrent,
		QueueDepth:    *queueDepth,
		WorkerBudget:  *workerBudget,
		Retain:        *retain,
	})

	// Campaigns (bias-ladder sweeps) ride on the same scheduler: the
	// campaign API mounts its /v1/campaigns routes next to the job API,
	// each ladder point an ordinary warm-started job submission.
	mgr := campaign.NewManager(campaign.ServeBackend{S: sched}, *maxConcurrent)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("qtsimd: %v", err)
	}
	mux := http.NewServeMux()
	campaign.NewAPI(mgr).Register(mux)
	mux.Handle("/", serve.NewAPI(sched))
	srv := &http.Server{Handler: mux}

	// Print the bound address (not the flag value) so -addr :0 scripts and
	// the smoke test can discover the port.
	fmt.Printf("qtsimd listening on %s (max-concurrent=%d queue-depth=%d worker-budget=%d)\n",
		ln.Addr(), *maxConcurrent, *queueDepth, *workerBudget)

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("qtsimd: %v, draining", sig)
	case err := <-errc:
		log.Fatalf("qtsimd: serve: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("qtsimd: http shutdown: %v", err)
	}
	if err := mgr.Close(ctx); err != nil {
		log.Printf("qtsimd: campaign shutdown: %v", err)
	}
	if err := sched.Close(ctx); err != nil {
		log.Printf("qtsimd: scheduler shutdown: %v", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("qtsimd: serve: %v", err)
	}
	log.Print("qtsimd: drained")
}
