package core

import "context"

// Plan is one run as a frontend hands it to Execute: the run document plus
// what a document cannot carry. The simulator executing it must have been
// built from the same Config (RunConfig.NewSimulatorWith); Execute reads
// only the config's execution sections — adapt, dist, space, gate.
type Plan struct {
	// Config is the validated run document.
	Config RunConfig
	// Place is what a document cannot carry: the seed checkpoint (Resume)
	// that warm-starts the Born loop and, for adaptive runs, the grid
	// controller (under a gate, of every outer step); a clustered run's
	// fault plan, checkpoint file and recovery budget. Its TE, TA, Space and CommTimeout are
	// overwritten from Config.
	Place DistConfig
}

// Outcome is what Execute returns for a finished run.
type Outcome struct {
	// Result is the converged (or MaxIter-exhausted) Born loop.
	Result *Result
	// WireBytes is the exchange traffic of every collective the run
	// attempted, summed over the outer steps of a gated run (zero for
	// serial placements). Under an injected fault it includes the aborted
	// collective — whatever the survivors sent before they saw the death —
	// so it depends on goroutine timing and changes from run to run; the
	// observables do not.
	WireBytes int64
	// GummelOuter and GummelConverged trace the NEGF–Poisson outer loop
	// (zero and false unless the config has a gate section).
	GummelOuter     int
	GummelConverged bool
}

// Execute is the one dispatch from a run document to the solver: every
// frontend (qtsim, qtsimd jobs, campaigns) calls it and nothing else. The
// document's sections select orthogonal choices around the one Born loop —
// grid policy (adapt), SSE placement (dist), GF placement (space), outer
// loop (gate) — and the Plan adds seed and fault policy. Every pair composes: the inner solve is the Born loop under the
// placement, or the adaptive rounds under it, and the Gummel loop calls it
// once per outer step, each from the plan's seed with the fault plan
// re-armed. Execute rejects only a seed that cannot seed the document
// (RunConfig.CheckSeed); ARCHITECTURE.md § Execution paths has the table.
func (s *Simulator) Execute(ctx context.Context, p Plan) (*Outcome, error) {
	doc, _, err := p.Config.DistConfig()
	if err != nil {
		return nil, err
	}
	pl := p.Place
	pl.TE, pl.TA, pl.Space, pl.CommTimeout = doc.TE, doc.TA, doc.Space, doc.CommTimeout
	if err := p.Config.CheckSeed(pl.Resume); err != nil {
		return nil, err
	}
	solve := func() (*Result, int64, error) { return s.born(ctx, pl) }
	if ac, adaptive := p.Config.AdaptConfig(); adaptive {
		ac.Resume, ac.Dist = pl.Resume, pl
		solve = func() (*Result, int64, error) { return s.RunAdaptiveCtx(ctx, ac) }
	}
	out := &Outcome{}
	if g := p.Config.Gate; g != nil {
		var es *ElectrostaticResult
		if es, out.WireBytes, err = s.gummel(ctx, *g, solve); err == nil {
			out.Result, out.GummelOuter, out.GummelConverged = es.Result, es.OuterIterations, es.GummelConverged
		}
	} else {
		out.Result, out.WireBytes, err = solve()
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}
