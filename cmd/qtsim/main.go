// Command qtsim runs a self-consistent dissipative quantum transport
// simulation on a synthetic nano-device and reports currents, heat flow and
// the convergence history.
//
// Example:
//
//	qtsim -na 48 -rows 4 -bnum 4 -nkz 3 -ne 24 -variant dace -iters 6
//
// A run is described by a versioned core.RunConfig: -config loads one from
// a JSON file (see examples/run.json), and any device/solver flags given on
// the command line override the file's values. The same config document,
// unchanged, can be submitted to the qtsimd service. Without -config the
// built-in default config is used, so the flag-only invocation behaves as
// it always has.
//
// With -metrics-addr the process serves Prometheus-style metrics, expvar
// and net/http/pprof while the simulation runs; with -trace-out it writes
// one JSON line per outer Born iteration (a Table 7-style phase
// breakdown). Either flag enables the observability layer and an
// end-of-run summary table. See docs/OBSERVABILITY.md.
//
// With -dist TExTA (or "dist" in the config) the SSE phase runs on a
// simulated rank grid with fault tolerance; -dist N with a plain process
// count lets the §4.1 model search pick the TE×TA factorization. Fault
// tolerance: -checkpoint persists a restartable snapshot every iteration,
// -comm-timeout bounds failure detection, and -inject-fault ITER:RANK[:OP]
// kills a rank mid-run to demonstrate checkpointed recovery (the run
// rebuilds a smaller cluster and still converges to the fault-free
// observables).
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
	"strconv"
	"strings"
	"time"

	"negfsim/internal/comm"
	"negfsim/internal/core"
	"negfsim/internal/device"
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

// configFlags holds the flags that override RunConfig fields. The defaults
// never matter — a flag is only copied into the config when the user set it
// explicitly (flag.Visit), so file values survive unset flags.
type configFlags struct {
	na, rows, bnum, nkz, ne, nw, nb, norb int
	seed                                  uint64
	variant                               string
	iters                                 int
	tol, mix, bias, kt                    float64
	gate                                  float64
	dist                                  string
	space                                 int
	commTimeout                           time.Duration
	adapt                                 string
	adaptTol                              float64
}

// registerConfigFlags declares the config-overriding flags on fs. The
// defaults mirror DefaultRunConfig so `qtsim -help` shows the effective
// zero-flag run.
func registerConfigFlags(fs *flag.FlagSet) *configFlags {
	def := core.DefaultRunConfig()
	grid := def.Device.Grid()
	f := &configFlags{}
	fs.IntVar(&f.na, "na", grid.NA, "number of atoms (nanowire devices)")
	fs.IntVar(&f.rows, "rows", grid.Rows, "atoms per column (fin height; nanowire devices)")
	fs.IntVar(&f.bnum, "bnum", grid.Bnum, "RGF blocks (nanowire devices)")
	fs.IntVar(&f.nkz, "nkz", grid.Nkz, "electron/phonon momentum points (nanowire devices)")
	fs.IntVar(&f.ne, "ne", grid.NE, "energy grid points (nanowire devices)")
	fs.IntVar(&f.nw, "nw", grid.Nw, "phonon frequencies (nanowire devices)")
	fs.IntVar(&f.nb, "nb", grid.NB, "neighbors per atom (nanowire devices)")
	fs.IntVar(&f.norb, "norb", grid.Norb, "orbitals per atom (nanowire devices)")
	fs.Uint64Var(&f.seed, "seed", grid.Seed, "structure seed (nanowire devices)")
	fs.StringVar(&f.variant, "variant", def.Variant, "SSE kernel: reference | omen | dace")
	fs.IntVar(&f.iters, "iters", def.MaxIter, "max Born iterations")
	fs.Float64Var(&f.tol, "tol", def.Tol, "convergence tolerance on G")
	fs.Float64Var(&f.mix, "mix", def.Mixing, "self-energy mixing factor")
	fs.Float64Var(&f.bias, "bias", def.Bias, "source-drain bias (MuL−MuR) [eV]")
	fs.Float64Var(&f.kt, "kt", def.KT, "electron thermal energy [eV]")
	fs.Float64Var(&f.gate, "gate", math.NaN(), "gate voltage [V]; enables the coupled NEGF–Poisson solver")
	fs.StringVar(&f.dist, "dist", def.Dist, "run the SSE phase on a simulated TExTA rank grid, e.g. 2x2 (fault-tolerant)")
	fs.IntVar(&f.space, "space", def.Space, "partition every electron retarded solve across this many spatial ranks (device-dimension split; needs bnum ≥ 2·space−1)")
	fs.DurationVar(&f.commTimeout, "comm-timeout", 0, "per-operation deadline of the simulated cluster (default 10s)")
	fs.StringVar(&f.adapt, "adapt", "off", "adaptive energy grid: off | grid | grid+sigma (error-controlled refinement; see docs/API.md)")
	fs.Float64Var(&f.adaptTol, "adapt-tol", 1e-6, "adaptive refinement tolerance on the integrated current (with -adapt)")
	return f
}

// applyConfigFlags copies every explicitly-set flag of fs over cfg — the
// "flags override file values" half of the -config contract. fs must
// already be parsed. The per-field device flags describe the flat nanowire
// grid, so they reject configs whose device is another zoo kind (edit the
// config's "device" section for those).
func applyConfigFlags(fs *flag.FlagSet, f *configFlags, cfg *core.RunConfig) error {
	grid := cfg.Device.Grid()
	devTouched := false
	fs.Visit(func(fl *flag.Flag) {
		switch fl.Name {
		case "na":
			grid.NA = f.na
			devTouched = true
		case "rows":
			grid.Rows = f.rows
			devTouched = true
		case "bnum":
			grid.Bnum = f.bnum
			devTouched = true
		case "nkz":
			grid.Nkz = f.nkz
			grid.Nqz = f.nkz
			devTouched = true
		case "ne":
			grid.NE = f.ne
			devTouched = true
		case "nw":
			grid.Nw = f.nw
			devTouched = true
		case "nb":
			grid.NB = f.nb
			devTouched = true
		case "norb":
			grid.Norb = f.norb
			devTouched = true
		case "seed":
			grid.Seed = f.seed
			devTouched = true
		case "variant":
			cfg.Variant = f.variant
		case "iters":
			cfg.MaxIter = f.iters
		case "tol":
			cfg.Tol = f.tol
		case "mix":
			cfg.Mixing = f.mix
		case "bias":
			cfg.Bias = f.bias
		case "kt":
			cfg.KT = f.kt
		case "gate":
			g := core.DefaultGate(f.gate, 0)
			cfg.Gate = &g
		case "dist":
			cfg.Dist = f.dist
		case "space":
			cfg.Space = f.space
		case "comm-timeout":
			cfg.CommTimeoutMs = int(f.commTimeout / time.Millisecond)
		case "adapt":
			a := core.AdaptSpec{}
			if cfg.Adapt != nil {
				a = *cfg.Adapt
			}
			a.Mode = f.adapt
			cfg.Adapt = &a
		case "adapt-tol":
			a := core.AdaptSpec{}
			if cfg.Adapt != nil {
				a = *cfg.Adapt
			}
			a.TolCurrent = f.adaptTol
			cfg.Adapt = &a
		}
	})
	if devTouched {
		if k := cfg.Device.Kind(); k != "" && k != "nanowire" {
			return fmt.Errorf("device flags (-na, -rows, ...) describe the nanowire grid; the config's device kind is %q — edit its \"device\" section instead", k)
		}
		cfg.Device = device.WrapParams(grid)
	}
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("qtsim: ")

	f := registerConfigFlags(flag.CommandLine)
	configPath := flag.String("config", "", "run config JSON file (see examples/run.json); flags override file values")
	campaignPath := flag.String("campaign", "", "campaign request JSON file (see examples/campaign.json): run an I–V or T(E) bias ladder offline and exit")
	campaignOut := flag.String("campaign-out", "", "basename for -campaign artifacts; writes PREFIX.csv and PREFIX.json (default: CSV to stdout)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. :9090)")
	traceOut := flag.String("trace-out", "", "write one JSON line per Born iteration to this file")
	injectFault := flag.String("inject-fault", "", "kill a rank mid-run: ITER:RANK[:OP] (0-based Born iteration, rank id, comm op; requires a distributed run)")
	checkpoint := flag.String("checkpoint", "", "gob checkpoint file: resumed from if present, written after every iteration (distributed) or at the end (serial)")
	peers := flag.String("peers", "", "comma-separated peer addresses (index = rank): carry the distributed SSE over TCP across real processes, this one hosting -peer-rank")
	peerRank := flag.Int("peer-rank", 0, "rank this process hosts when -peers is set")
	flag.Parse()

	cfg := core.DefaultRunConfig()
	if *configPath != "" {
		loaded, err := core.LoadRunConfig(*configPath)
		if err != nil {
			log.Fatal(err)
		}
		cfg = *loaded
	}
	if err := applyConfigFlags(flag.CommandLine, f, &cfg); err != nil {
		log.Fatal(err)
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
	if n, aerr := strconv.Atoi(cfg.Dist); aerr == nil && n > 0 {
		// A plain process count: let the §4.1 model search choose the TE×TA
		// factorization before the config is validated.
		best, feasible := comm.SearchTiles(cfg.Device.Grid(), n, 0)
		if len(feasible) == 0 {
			log.Fatalf("no feasible decomposition of %d processes for this device", n)
		}
		cfg.Dist = fmt.Sprintf("%dx%d", best.TE, best.TA)
		fmt.Printf("dist: %d processes → %dx%d grid (model search)\n", n, best.TE, best.TA)
	}

	if err := cfg.Validate(); err != nil {
		log.Fatal(err)
	}

	distCfg, distributed, err := cfg.DistConfig()
	if err != nil {
		log.Fatal(err)
	}
	var faultPlan *comm.FaultPlan
	var faultIter int
	if *injectFault != "" {
		if !distributed {
			log.Fatal("-inject-fault requires a distributed run (-dist or \"dist\" in the config)")
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

	if *peers != "" && !distributed {
		log.Fatal("-peers requires a distributed run (-dist/-space or \"dist\"/\"space\" in the config)")
	}
	if cfg.MixerOverridden() {
		log.Printf("note: mixer %q is ignored under dist/space — distributed placements currently mix linearly (docs/API.md)", cfg.Mixer)
	}

	// Only a clustered run persists CheckpointPath every iteration; a serial
	// Born run writes its converged state once, after Execute.
	plan := core.Plan{Config: cfg, Place: core.DistConfig{
		Resume: resume, Fault: faultPlan, FaultIter: faultIter, CheckpointPath: *checkpoint}}
	if *peers != "" {
		// Reject what Execute would before dialling anyone.
		list := strings.Split(*peers, ",")
		if cfg.AdaptEnabled() {
			log.Fatal("-adapt does not compose with -peers (the grid controller must run in a single process)")
		}
		if err := distCfg.CheckRanks(len(list)); err != nil {
			log.Fatal(err)
		}
		cl, err := comm.NewClusterTCP(context.Background(), *peerRank, list)
		if err != nil {
			log.Fatal(err)
		}
		defer cl.Close()
		plan.Place.Cluster = cl
		fmt.Printf("peer %d of %d, TCP cluster over %s\n", *peerRank, len(list), *peers)
	}

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
	switch a := res.Adapt; {
	case a != nil:
		fmt.Printf("\nadaptive grid: %d/%d energy points after %d rounds (%s), %d refined, %d coarsened\n",
			a.PointsActive, a.PointsFine, a.Rounds, a.Reason, a.Refined, a.Coarsened)
		fmt.Printf("RGF solves: %d of %d uniform-grid equivalent (%.0f%% saved)",
			a.Solves, a.UniformSolves, 100*(1-float64(a.Solves)/float64(a.UniformSolves)))
		if a.SigmaSeeded > 0 {
			fmt.Printf(", %d points Σ-seeded", a.SigmaSeeded)
		}
		fmt.Println()
		if distributed {
			fmt.Printf("distributed rounds: %s\n", exchanged)
		}
	case distCfg.TE > 0:
		fmt.Printf("\ndistributed SSE on %dx%d ranks: %s, %s\n", distCfg.TE, distCfg.TA, exchanged, recoveries)
	case distributed:
		fmt.Printf("\nspatially partitioned GF on %d ranks: %s, %s\n", distCfg.Space, exchanged, recoveries)
	case cfg.Gate != nil:
		fmt.Printf("\nGummel: %d outer iterations (converged: %v)\n", out.GummelOuter, out.GummelConverged)
	}
	if *checkpoint != "" && !distributed && cfg.Gate == nil {
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
