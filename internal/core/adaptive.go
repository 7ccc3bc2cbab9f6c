package core

import (
	"context"
	"fmt"

	"negfsim/internal/egrid"
	"negfsim/internal/obs"
	"negfsim/internal/tensor"
)

// Adaptive-grid telemetry (see docs/OBSERVABILITY.md): the active point
// gauge tracks the current grid size, the counters accumulate refinement
// work across runs, and the egrid.refine span times the controller's
// plan/apply step between Born solves.
var (
	obsPointsActive = obs.GetGauge("egrid.points_active")
	obsRefinedPts   = obs.GetCounter("egrid.refined")
	obsCoarsenedPts = obs.GetCounter("egrid.coarsened")
	obsSigmaInterp  = obs.GetCounter("egrid.sigma_interp_hits")
	obsSpanRefine   = obs.GetTimer("egrid.refine")
)

// AdaptConfig configures the adaptive energy-grid runner
// (RunAdaptiveCtx). The zero value of every optional field keeps the
// documented default.
type AdaptConfig struct {
	// SigmaReuse, when true ("grid+sigma" mode), seeds each refinement
	// round's Born loop from the previous round's converged Σ≷/Π≷ —
	// newly activated energy points start from the self-energies the
	// SSE phase derived from the interpolated Green's functions instead
	// of a cold Born restart. False ("grid" mode) restarts each round
	// from Σ = Π = 0.
	SigmaReuse bool
	// Tol is the integrated-current tolerance driving refinement
	// (egrid.Config.TolCurrent; ≤ 0 means 1e-6).
	Tol float64
	// MinNE / MaxNE bound the active point count (≤ 0: the egrid
	// defaults — a ~NE/8 seed, the full grid as cap).
	MinNE, MaxNE int
	// MaxRounds bounds the refinement rounds (≤ 0 means 12).
	MaxRounds int
	// Resume, when non-nil, seeds round 0 with a checkpoint: its Σ≷/Π≷
	// warm-start the Born loop and, when it carries a grid state, the
	// controller resumes from that active set instead of the coarse
	// seed — the campaign warm-chaining path.
	Resume *Checkpoint
	// Dist is the placement every round's Born loop runs under (the zero
	// value is serial; its Resume field is overwritten per round). The GF
	// energy ownership rebalances to the active point set each round.
	// Multi-process peer clusters are rejected: the refinement decisions
	// must be taken by exactly one controller.
	Dist DistConfig
}

// AdaptReport summarizes an adaptive run: the grid the controller
// settled on and what it cost relative to the uniform grid.
type AdaptReport struct {
	// Rounds is the number of Born solves the refinement loop ran.
	Rounds int
	// Iterations is the total Born iterations across all rounds (the
	// Result's own Iterations field covers only the final round).
	Iterations int
	// PointsFine and PointsActive are the fine grid size and the final
	// active point count.
	PointsFine, PointsActive int
	// Refined, Coarsened and SigmaSeeded count the point insertions,
	// removals, and the inserted points that started from interpolated
	// self-energies instead of a cold Born restart.
	Refined, Coarsened, SigmaSeeded int
	// Solves is the electron RGF solves actually performed (points ×
	// kz × iterations, summed over rounds); UniformSolves is what the
	// same rounds would have cost on the full fine grid.
	Solves, UniformSolves int
	// EstError is the controller's final error estimate on the
	// integrated current (the last round-to-round change).
	EstError float64
	// Reason is why refinement stopped: "resolved", "max_ne" or
	// "max_rounds".
	Reason string
}

// RunAdaptive is RunAdaptiveCtx under context.Background().
func (s *Simulator) RunAdaptive(ac AdaptConfig) (*Result, int64, error) {
	return s.RunAdaptiveCtx(context.Background(), ac)
}

// RunAdaptiveCtx runs the error-controlled adaptive energy-grid loop:
// seed a coarse active grid, converge the Born loop on it (solving RGF
// only at active points, interpolating the Green's functions at the
// skipped energies for the SSE phase), feed the converged spectral
// current to the egrid controller, apply its refine/coarsen plan, and
// repeat until the integrated current is resolved to tolerance. The
// returned bytes are the accumulated distributed exchange traffic (zero
// for serial rounds). The final Result carries the grid (EGrid) and the
// refinement summary (Adapt); the simulator is left holding the final
// grid.
func (s *Simulator) RunAdaptiveCtx(ctx context.Context, ac AdaptConfig) (*Result, int64, error) {
	p := s.Dev.P
	if ac.Dist.Cluster != nil && ac.Dist.Cluster.MultiProcess() {
		return nil, 0, fmt.Errorf("core: adaptive refinement is not supported on multi-process clusters (the grid controller must be singular)")
	}
	cfg := egrid.Config{TolCurrent: ac.Tol, MinNE: ac.MinNE, MaxNE: ac.MaxNE, MaxRounds: ac.MaxRounds}

	var ctrl *egrid.Controller
	var err error
	seed := ac.Resume // born holds it against the device before round 0 runs
	if seed != nil && seed.EGrid != nil {
		ctrl, err = egrid.ResumeController(seed.EGrid, cfg)
	} else {
		ctrl, err = egrid.NewController(p.NE, p.Emin, p.Emax, cfg)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("core: adaptive grid: %w", err)
	}

	// Refinement ("scout") rounds only need the spectrum's shape to place
	// grid points, not a fully converged Born loop, so they run two
	// orders of magnitude looser than the caller's tolerance (capped at
	// 1e-2). Once the grid is resolved, one final solve at the original
	// tolerance produces the returned result.
	origTol := s.Opts.Tol
	scoutTol := origTol * 100
	if scoutTol > 1e-2 {
		scoutTol = 1e-2
	}
	defer func() { s.Opts.Tol = origTol }()

	report := &AdaptReport{PointsFine: p.NE}
	var totalBytes int64
	// solve converges one round: the Born loop on grid under the run's
	// placement, seeded from seed.
	pl := ac.Dist
	solve := func(grid *egrid.Grid, seed *Checkpoint) (*Result, error) {
		if err := s.SetGrid(grid); err != nil {
			return nil, err
		}
		obsPointsActive.Set(int64(grid.NumActive()))
		pl.Resume = seed
		res, bytes, err := s.born(ctx, pl)
		totalBytes += bytes
		if err != nil {
			return nil, fmt.Errorf("core: adaptive round %d: %w", report.Rounds+1, err)
		}
		report.Rounds++
		report.Iterations += res.Iterations
		report.Solves += grid.NumActive() * p.Nkz * res.Iterations
		report.UniformSolves += p.NE * p.Nkz * res.Iterations
		return res, nil
	}
	chain := func(res *Result) *Checkpoint {
		return s.checkpointOf(res.Iterations, res.SigmaLess, res.SigmaGtr, res.PiLess, res.PiGtr)
	}
	for {
		grid := ctrl.Grid()
		s.Opts.Tol = scoutTol
		res, err := solve(grid, seed)
		if err != nil {
			return nil, totalBytes, err
		}

		// The controller consumes the kz-averaged spectral current at
		// the active points (CurrentPerEnergy is the kz sum).
		values := make([]float64, p.NE)
		for _, e := range grid.Active() {
			values[e] = res.Obs.CurrentPerEnergy[e] / float64(p.Nkz)
		}
		sp := obsSpanRefine.Start()
		plan := ctrl.Plan(values)
		ctrl.Apply(plan)
		sp.End()
		report.EstError = plan.EstError

		if plan.Done {
			final := ctrl.Grid()
			if scoutTol != origTol || !final.Equal(grid) {
				// One full-tolerance solve on the resolved grid (the
				// Done round may still have dropped redundant points).
				// Σ chaining seeds it from the last scout regardless of
				// mode — the scout state is this run's own, not another
				// round's approximation.
				s.Opts.Tol = origTol
				res, err = solve(final, chain(res))
				if err != nil {
					return nil, totalBytes, err
				}
			}
			report.PointsActive = final.NumActive()
			report.Refined = ctrl.Refined()
			report.Coarsened = ctrl.Coarsened()
			report.Reason = plan.Reason
			res.EGrid = final.State()
			res.Adapt = report
			return res, totalBytes, nil
		}
		obsRefinedPts.Add(int64(len(plan.Insert)))
		obsCoarsenedPts.Add(int64(len(plan.Drop)))
		if ac.SigmaReuse {
			// Chain the converged self-energies into the next round.
			// They are full-shape, so the freshly inserted points start
			// from the Σ≷ the SSE phase built out of the interpolated
			// G≷ — the "Σ≷ interpolation" seeding.
			seed = chain(res)
			obsSigmaInterp.Add(int64(len(plan.Insert)))
			report.SigmaSeeded += len(plan.Insert)
		} else {
			seed = nil
		}
	}
}

// interpolateInactiveG fills the blocks of a Green's-function tensor at
// inactive energies by linear interpolation between the nearest active
// neighbors (per kz, per atom, elementwise). The active endpoints of the
// grid guarantee no gap extends past the window edge.
func interpolateInactiveG(t *tensor.GTensor, g *egrid.Grid) {
	active := g.Active()
	for i := 1; i < len(active); i++ {
		a, b := active[i-1], active[i]
		if b-a < 2 {
			continue
		}
		for e := a + 1; e < b; e++ {
			alpha := complex(float64(e-a)/float64(b-a), 0)
			for kz := 0; kz < t.Nkz; kz++ {
				for at := 0; at < t.NA; at++ {
					lo := t.Block(kz, a, at).Data
					hi := t.Block(kz, b, at).Data
					dst := t.Block(kz, e, at).Data
					for m := range dst {
						dst[m] = (1-alpha)*lo[m] + alpha*hi[m]
					}
				}
			}
		}
	}
}
