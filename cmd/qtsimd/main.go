// Command qtsimd is the simulation daemon, in one of three roles:
//
//	qtsimd -addr 127.0.0.1:8081 &                  # a worker: the job API
//	qtsimd -addr 127.0.0.1:8082 &
//	qtsimd -fleet examples/fleet.json              # the front over the fleet
//	curl -H 'X-Tenant: alice' -d @examples/run.json localhost:8090/v1/jobs
//	curl localhost:8090/v1/jobs/f1/stream          # NDJSON, one line per Born iteration
//
// A worker multiplexes concurrent runs over the process's worker pool under
// admission control; a job is the RunConfig document cmd/qtsim reads. The
// front (-fleet) shards jobs across workers, dedupes identical submissions,
// serves repeats from a content-addressed cache, warm-starts near-miss bias
// points and enforces per-tenant quotas; the fleet file is its whole
// configuration. Both mount the campaign API, /metrics and /healthz
// (docs/API.md) and drain on SIGINT/SIGTERM. With -peers the process hosts
// one rank of a multi-process TCP run instead (peer.go). A flag the
// selected role does not read exits 2.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"syscall"
	"time"

	"negfsim/internal/campaign"
	"negfsim/internal/front"
	"negfsim/internal/obs"
	"negfsim/internal/serve"
)

// options is the parsed command line.
type options struct {
	role                                            string // "worker", "front" or "peer"
	addr, fleet, peers, peerConfig, resultOut       string
	maxConcurrent, queueDepth, workerBudget, retain int
	peerRank, dieAfterIter                          int
	drainTimeout                                    time.Duration
}

// roleFlags lists the flags each role reads.
var roleFlags = map[string][]string{
	"worker": {"addr", "max-concurrent", "queue-depth", "worker-budget", "retain", "drain-timeout"},
	"front":  {"fleet", "drain-timeout"},
	"peer":   {"peers", "peer-rank", "peer-config", "result-out", "die-after-iter"},
}

// parseArgs parses the command line and selects the role: -peers makes a
// peer, -fleet a front, anything else a worker. A flag the role does not
// read, or -fleet with -peers, is an error naming the flag; errors are
// reported on out.
func parseArgs(args []string, out io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("qtsimd", flag.ContinueOnError)
	fs.SetOutput(out)
	fs.StringVar(&o.addr, "addr", "127.0.0.1:8080", "worker: listen address for the job API")
	fs.IntVar(&o.maxConcurrent, "max-concurrent", 2, "worker: simulations run simultaneously")
	fs.IntVar(&o.queueDepth, "queue-depth", 16, "worker: jobs admitted beyond the running ones before 429")
	fs.IntVar(&o.workerBudget, "worker-budget", runtime.GOMAXPROCS(0), "worker: total grid-point parallelism shared by all running jobs")
	fs.IntVar(&o.retain, "retain", 64, "worker: finished jobs kept queryable before eviction")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second, "worker and front: graceful shutdown budget")
	fs.StringVar(&o.fleet, "fleet", "", "run the front role from this fleet file (see examples/fleet.json) instead of a worker")
	fs.StringVar(&o.peers, "peers", "", "comma-separated peer addresses (index = rank); runs ONE distributed job SPMD-style instead of serving")
	fs.IntVar(&o.peerRank, "peer-rank", -1, "peer: rank this process hosts")
	fs.StringVar(&o.peerConfig, "peer-config", "", "peer: run config JSON (must carry a \"dist\" grid matching the peer count)")
	fs.StringVar(&o.resultOut, "result-out", "", "peer: write the run's result JSON here (default stdout)")
	fs.IntVar(&o.dieAfterIter, "die-after-iter", 0, "peer fault drill: SIGKILL self after N completed Born iterations")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	o.role = "worker"
	if o.fleet != "" {
		o.role = "front"
	}
	if o.peers != "" {
		o.role = "peer"
	}
	var err error
	if o.peers != "" && o.fleet != "" {
		err = errors.New("-fleet and -peers select different roles; give one")
	}
	fs.Visit(func(f *flag.Flag) {
		if err == nil && !slices.Contains(roleFlags[o.role], f.Name) {
			err = fmt.Errorf("-%s is not read by the %s role", f.Name, o.role)
		}
	})
	if err == nil && fs.NArg() > 0 {
		err = fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if err != nil {
		fmt.Fprintf(out, "qtsimd: %v\n", err)
	}
	return o, err
}

func main() {
	o, err := parseArgs(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		os.Exit(2)
	}

	obs.Enable()
	switch o.role {
	case "peer":
		if err := runPeer(o.peerRank, o.peers, o.peerConfig, o.resultOut, o.dieAfterIter); err != nil {
			log.Fatalf("qtsimd: peer: %v", err)
		}
	case "front":
		runFront(o)
	default:
		runWorker(o)
	}
}

// runWorker serves the job API over this process's own scheduler.
func runWorker(o options) {
	sched := serve.New(serve.Config{
		MaxConcurrent: o.maxConcurrent,
		QueueDepth:    o.queueDepth,
		WorkerBudget:  o.workerBudget,
		Retain:        o.retain,
	})
	// Campaigns (bias-ladder sweeps) ride on the same scheduler: each
	// ladder point is an ordinary warm-started job submission.
	mgr := campaign.NewManager(campaign.ServeBackend{S: sched}, o.maxConcurrent)
	mux := http.NewServeMux()
	campaign.NewAPI(mgr).Register(mux)
	mux.Handle("/", serve.NewAPI(sched))

	serveUntilSignal(o.addr, mux, o.drainTimeout,
		fmt.Sprintf("(max-concurrent=%d queue-depth=%d worker-budget=%d)", o.maxConcurrent, o.queueDepth, o.workerBudget),
		drainStep{"campaign", mgr.Close}, drainStep{"scheduler", sched.Close})
}

// runFront serves the front-tier API over the fleet the -fleet file names.
func runFront(o options) {
	fc, err := front.LoadFleetConfig(o.fleet)
	if err != nil {
		log.Fatalf("qtsimd: %v", err)
	}
	cfg := fc.FrontConfig()
	f := front.New(cfg)
	// Campaigns submitted to the front fan their ladder points across the
	// fleet; each point names its chain predecessor's front job as its
	// seed, so the campaign tier never ships checkpoints itself here.
	mgr := campaign.NewManager(campaign.FrontBackend{F: f, Tenant: "campaign"}, 4)
	mux := http.NewServeMux()
	campaign.NewAPI(mgr).Register(mux)
	mux.Handle("/", front.NewAPI(f).Handler())

	serveUntilSignal(fc.Listen, mux, o.drainTimeout,
		fmt.Sprintf("(front: workers=%d quota-rate=%.3g cache-max=%d)", len(cfg.Workers), cfg.QuotaRate, cfg.CacheMax),
		drainStep{"campaign", mgr.Close}, drainStep{"front", f.Close})
}

// drainStep is one component closed, in order, after the HTTP server stops.
type drainStep struct {
	name  string
	close func(context.Context) error
}

// serveUntilSignal listens on addr, prints the bound address and detail on
// stdout, and serves h until SIGINT or SIGTERM. It then shuts the HTTP
// server down and runs steps in order, all within budget, and logs
// "drained".
func serveUntilSignal(addr string, h http.Handler, budget time.Duration, detail string, steps ...drainStep) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("qtsimd: %v", err)
	}
	srv := &http.Server{Handler: h}
	// Print the bound address (not the configured one) so listeners on
	// port 0 — scripts and the smoke tests — can discover the port.
	fmt.Printf("qtsimd listening on %s %s\n", ln.Addr(), detail)

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

	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("qtsimd: http shutdown: %v", err)
	}
	for _, s := range steps {
		if err := s.close(ctx); err != nil {
			log.Printf("qtsimd: %s shutdown: %v", s.name, err)
		}
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("qtsimd: serve: %v", err)
	}
	log.Print("qtsimd: drained")
}
