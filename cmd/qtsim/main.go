// Command qtsim runs a self-consistent dissipative quantum transport
// simulation on a synthetic nano-device and reports currents, heat flow and
// the convergence history.
//
// A run is described by one versioned core.RunConfig document: -config
// loads it from a JSON file (see examples/run.json; examples/gate.json and
// examples/adapt.json spell out the gate and adaptive-grid blocks), and
// without -config the built-in default run is used. The same document,
// unchanged, is the body of a qtsimd job submission. Example:
//
//	qtsim -config examples/run.json
//
// With -metrics-addr the process serves Prometheus-style metrics, expvar
// and net/http/pprof while the simulation runs; with -trace-out it writes
// one JSON line per outer Born iteration (a Table 7-style phase
// breakdown). Either flag enables the observability layer and an
// end-of-run summary table. See docs/OBSERVABILITY.md.
//
// A document with "dist": "TExTA" runs the SSE phase on a simulated rank
// grid with fault tolerance ("comm_timeout_ms" bounds failure detection;
// `qtpaper tiles -p N` finds the model-optimal grid for N processes).
// -checkpoint resumes from a restartable snapshot if the file exists and
// persists one every iteration (distributed) or at the end (serial);
// -inject-fault ITER:RANK[:OP] kills a rank mid-run to demonstrate
// checkpointed recovery (the run rebuilds a smaller cluster and still
// converges to the fault-free observables).
package main

import (
	"context"
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"negfsim/internal/comm"
	"negfsim/internal/core"
	"negfsim/internal/obs"
)

// traceLine is the JSON schema of one -trace-out record. The four phase
// durations sum exactly to wall: "other" absorbs residual computation and
// bookkeeping, so consumers can treat the line as a complete partition of
// the iteration (the Table 7 reading). Span deltas are cumulative across
// workers and may exceed wall under parallel execution.
type traceLine struct {
	Iter      int              `json:"iter"`
	WallNs    int64            `json:"wall_ns"`
	Phases    map[string]int64 `json:"phases_ns"`
	Residual  *float64         `json:"residual,omitempty"`
	Converged bool             `json:"converged"`
	Spans     map[string]int64 `json:"spans_ns,omitempty"`
}

// traceWriter serializes IterStats to the -trace-out file.
func traceWriter(f *os.File) func(core.IterStats) {
	enc := json.NewEncoder(f)
	return func(st core.IterStats) {
		other := st.Wall - st.GF - st.SSE - st.Mix
		if other < 0 {
			other = 0
		}
		line := traceLine{
			Iter:   st.Iter,
			WallNs: st.Wall.Nanoseconds(),
			Phases: map[string]int64{
				"gf":    st.GF.Nanoseconds(),
				"sse":   st.SSE.Nanoseconds(),
				"mix":   st.Mix.Nanoseconds(),
				"other": other.Nanoseconds(),
			},
			Converged: st.Converged,
		}
		if !math.IsNaN(st.Residual) {
			r := st.Residual
			line.Residual = &r
		}
		if len(st.Spans) > 0 {
			line.Spans = make(map[string]int64, len(st.Spans))
			for _, s := range st.Spans {
				line.Spans[s.Name] = s.Total.Nanoseconds()
			}
		}
		if err := enc.Encode(line); err != nil {
			log.Printf("trace write: %v", err)
		}
	}
}

// serveMetrics starts the diagnostics endpoint: Prometheus text at
// /metrics, the expvar JSON dump at /debug/vars, and the full pprof
// suite under /debug/pprof/.
func serveMetrics(addr string) {
	obs.PublishExpvar()
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go func() {
		if err := http.ListenAndServe(addr, mux); err != nil {
			log.Printf("metrics server: %v", err)
		}
	}()
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("qtsim: ")

	configPath := flag.String("config", "", "run config JSON file (see examples/run.json); default: the built-in default run")
	campaignPath := flag.String("campaign", "", "campaign request JSON file (see examples/campaign.json): run an I–V or T(E) bias ladder offline and exit")
	campaignOut := flag.String("campaign-out", "", "basename for -campaign artifacts; writes PREFIX.csv and PREFIX.json (default: CSV to stdout)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. :9090)")
	traceOut := flag.String("trace-out", "", "write one JSON line per Born iteration to this file")
	injectFault := flag.String("inject-fault", "", "kill a rank mid-run: ITER:RANK[:OP] (0-based Born iteration, rank id, comm op; requires a distributed run)")
	checkpoint := flag.String("checkpoint", "", "gob checkpoint file: resumed from if present, written after every iteration (distributed) or at the end (serial)")
	flag.Parse()

	cfg := core.DefaultRunConfig()
	if *configPath != "" {
		loaded, err := core.LoadRunConfig(*configPath)
		if err != nil {
			log.Fatal(err)
		}
		cfg = *loaded
	}

	observing := *metricsAddr != "" || *traceOut != ""
	if observing {
		obs.Enable()
	}
	if *metricsAddr != "" {
		serveMetrics(*metricsAddr)
	}

	if *campaignPath != "" {
		if err := runCampaign(*campaignPath, *campaignOut); err != nil {
			log.Fatal(err)
		}
		return
	}
	distCfg, distributed, err := cfg.DistConfig()
	if err != nil {
		log.Fatal(err)
	}
	var faultPlan *comm.FaultPlan
	var faultIter int
	if *injectFault != "" {
		if !distributed {
			log.Fatal("-inject-fault requires a distributed run (\"dist\" or \"space\" in the config)")
		}
		var rank, op int
		if _, err := fmt.Sscanf(*injectFault, "%d:%d:%d", &faultIter, &rank, &op); err != nil {
			op = 0
			if _, err := fmt.Sscanf(*injectFault, "%d:%d", &faultIter, &rank); err != nil {
				log.Fatalf("-inject-fault must look like ITER:RANK or ITER:RANK:OP, got %q", *injectFault)
			}
		}
		faultPlan = &comm.FaultPlan{Kill: true, KillRank: rank, KillAtOp: op}
	}
	var resume *core.Checkpoint
	if *checkpoint != "" {
		if f, err := os.Open(*checkpoint); err == nil {
			ck, lerr := core.LoadCheckpoint(f)
			f.Close()
			if lerr != nil {
				log.Fatal(lerr)
			}
			resume = ck
			fmt.Printf("resuming from %s (iteration %d)\n", *checkpoint, ck.Iterations)
		} else if !os.IsNotExist(err) {
			log.Fatal(err)
		}
	}

	opts, err := cfg.Options()
	if err != nil {
		log.Fatal(err)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		opts.OnIteration = traceWriter(f)
	}

	p := cfg.Device.Grid()
	sim, err := cfg.NewSimulatorWith(opts)
	if err != nil {
		log.Fatal(err)
	}
	dev := sim.Dev

	fmt.Printf("structure: kind=%s, NA=%d (%d×%d), Nkz=%d, NE=%d, Nω=%d, NB=%d, Norb=%d\n",
		cfg.Device.Kind(), p.NA, p.Cols(), p.Rows, p.Nkz, p.NE, p.Nw, p.NB, p.Norb)
	fmt.Printf("solver: %s kernel, ≤%d iterations, mixing %.2f, bias %.2f eV\n",
		opts.Variant, opts.MaxIter, opts.Mixing, cfg.Bias)

	if cfg.MixerOverridden() {
		log.Printf("note: mixer %q is ignored under dist/space — distributed placements currently mix linearly (docs/API.md)", cfg.Mixer)
	}

	// Only a clustered run persists CheckpointPath every iteration; a serial
	// Born run writes its converged state once, after Execute.
	plan := core.Plan{Config: cfg, Place: core.DistConfig{
		Resume: resume, Fault: faultPlan, FaultIter: faultIter, CheckpointPath: *checkpoint}}

	start := time.Now()
	out, err := sim.Execute(context.Background(), plan)
	if err != nil {
		log.Fatal(err)
	}
	res := out.Result
	recoveries := fmt.Sprintf("%d recover%s", res.Recoveries, map[bool]string{true: "y", false: "ies"}[res.Recoveries == 1])
	exchanged := fmt.Sprintf("%.2f MiB exchanged", float64(out.WireBytes)/(1<<20))
	if faultPlan != nil {
		exchanged += " (includes the collective the fault aborted; varies from run to run)"
	}
	// One summary line per choice that is on, after one blank line.
	sep := "\n"
	summary := func(format string, args ...any) {
		fmt.Printf(sep+format+"\n", args...)
		sep = ""
	}
	if a := res.Adapt; a != nil {
		solves := fmt.Sprintf("RGF solves: %d of %d uniform-grid equivalent (%.0f%% saved)",
			a.Solves, a.UniformSolves, 100*(1-float64(a.Solves)/float64(a.UniformSolves)))
		if a.SigmaSeeded > 0 {
			solves += fmt.Sprintf(", %d points Σ-seeded", a.SigmaSeeded)
		}
		summary("adaptive grid: %d/%d energy points after %d rounds (%s), %d refined, %d coarsened\n%s",
			a.PointsActive, a.PointsFine, a.Rounds, a.Reason, a.Refined, a.Coarsened, solves)
	}
	for _, line := range clusterLines(distCfg.TE, distCfg.TA, distCfg.Space, exchanged, recoveries) {
		summary("%s", line)
	}
	if cfg.Gate != nil {
		summary("Gummel: %d outer iterations (converged: %v)", out.GummelOuter, out.GummelConverged)
	}
	if *checkpoint != "" && !distributed {
		if err := core.CheckpointOf(cfg.Device, res).SaveFile(*checkpoint); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("checkpoint written to %s\n", *checkpoint)
	}
	wall := time.Since(start)

	fmt.Printf("\niterations: %d (converged: %v)\n", res.Iterations, res.Converged)
	for i, r := range res.Residuals {
		fmt.Printf("  iter %d: |ΔG| = %.3e\n", i+1, r)
	}
	fmt.Printf("\nelectron current:  I_L = %+.6e   I_R = %+.6e\n", res.Obs.CurrentL, res.Obs.CurrentR)
	fmt.Printf("phonon heat flow:  Q_L = %+.6e   Q_R = %+.6e\n", res.Obs.HeatL, res.Obs.HeatR)

	var dmax float64
	amax := 0
	for a, d := range res.Obs.DissipationPerAtom {
		if d > dmax {
			dmax, amax = d, a
		}
	}
	if dmax > 0 {
		fmt.Printf("hottest atom: #%d at column %d (dissipation %.3e)\n",
			amax, dev.Col(amax), dmax)
	}

	if observing {
		fmt.Println()
		obs.WriteSummary(os.Stdout, wall)
	}
}

// clusterLines is the summary of a run's cluster axes: one line for the
// distributed SSE on a te×ta grid (te > 0) and one for the spatially
// partitioned GF on space ranks (space ≥ 2). The run's Outcome carries one
// byte total, not one per axis, so a run on both axes prints exchanged and
// recoveries once, on a line of their own after both.
func clusterLines(te, ta, space int, exchanged, recoveries string) []string {
	dist := fmt.Sprintf("distributed SSE on %dx%d ranks", te, ta)
	spatial := fmt.Sprintf("spatially partitioned GF on %d ranks", space)
	tail := exchanged + ", " + recoveries
	switch {
	case te > 0 && space >= 2:
		return []string{dist, spatial, "run total: " + tail}
	case te > 0:
		return []string{dist + ": " + tail}
	case space >= 2:
		return []string{spatial + ": " + tail}
	}
	return nil
}
