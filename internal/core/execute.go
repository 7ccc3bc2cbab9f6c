package core

import (
	"context"
	"errors"
)

// Plan is one run as a frontend hands it to Execute: the run document plus
// what a document cannot carry. The simulator executing it must have been
// built from the same Config (RunConfig.NewSimulatorWith); Execute reads
// only the config's execution sections — adapt, dist, space, gate.
type Plan struct {
	// Config is the validated run document.
	Config RunConfig
	// Place is what a document cannot carry: the seed checkpoint (Resume)
	// that warm-starts the Born loop and, for adaptive runs, the grid
	// controller; a persistent multi-process Cluster; a clustered run's fault
	// plan, checkpoint file and recovery budget. Its TE, TA, Space and
	// CommTimeout are overwritten from Config.
	Place DistConfig
}

// Outcome is what Execute returns for a finished run.
type Outcome struct {
	// Result is the converged (or MaxIter-exhausted) Born loop.
	Result *Result
	// WireBytes is the exchange traffic of every collective the run
	// attempted (zero for serial placements).
	WireBytes int64
	// GummelOuter and GummelConverged trace the NEGF–Poisson outer loop
	// (zero and false unless the config has a gate section).
	GummelOuter     int
	GummelConverged bool
}

// Execute is the one dispatch from a run document to the solver: every
// frontend (qtsim, qtsimd jobs and peers, campaigns) calls it and nothing
// else. The document's sections select orthogonal choices around the one
// Born loop — grid policy (adapt), SSE placement (dist), GF placement
// (space), outer loop (gate) — and the Plan adds seed, fabric and fault
// policy. RunConfig.Validate rejects dist/space/adapt × gate and
// serve.SubmitFrom a warm start under dist, space or gate; Execute rejects
// the pairs only a Plan can express — a seed or a cluster under the Gummel
// loop, a partial-grid seed for a uniform-grid run, an adaptive run on a
// multi-process cluster. ARCHITECTURE.md § Execution paths has the table.
func (s *Simulator) Execute(ctx context.Context, p Plan) (*Outcome, error) {
	doc, _, err := p.Config.DistConfig()
	if err != nil {
		return nil, err
	}
	pl := p.Place
	pl.TE, pl.TA, pl.Space, pl.CommTimeout = doc.TE, doc.TA, doc.Space, doc.CommTimeout
	if err := pl.Resume.CompatibleGrid(p.Config.AdaptEnabled()); err != nil {
		return nil, err
	}
	out := &Outcome{}
	if ac, adaptive := p.Config.AdaptConfig(); adaptive {
		ac.Resume, ac.Dist = pl.Resume, pl
		out.Result, out.WireBytes, err = s.RunAdaptiveCtx(ctx, ac)
	} else if g := p.Config.Gate; g != nil {
		if pl.Resume != nil || pl.Cluster != nil {
			return nil, errors.New("core: the Gummel loop runs serial from a cold start (no seed checkpoint, no cluster)")
		}
		var es *ElectrostaticResult
		if es, err = s.RunWithPoissonCtx(ctx, *g); err == nil {
			out.Result, out.GummelOuter, out.GummelConverged = es.Result, es.OuterIterations, es.GummelConverged
		}
	} else {
		out.Result, out.WireBytes, err = s.born(ctx, pl)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}
