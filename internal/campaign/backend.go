package campaign

import (
	"context"
	"errors"
	"fmt"
	"time"

	"negfsim/internal/core"
	"negfsim/internal/front"
	"negfsim/internal/serve"
)

// PointOutcome is what a backend returns for one converged ladder point.
type PointOutcome struct {
	// JobID identifies the underlying tier's job, for cross-referencing
	// campaign points against /v1/jobs ("" for in-process runs).
	JobID string
	// Iterations/Converged/Residuals summarize the Born loop.
	Iterations int
	Converged  bool
	Residuals  []float64
	// Obs are the physical outputs the artifacts are built from.
	Obs core.Observables
	// Checkpoint carries the converged Σ≷/Π≷ for the next point's warm
	// start; nil when the backend manages warm starts itself (the front
	// tier's family cache does).
	Checkpoint *core.Checkpoint
	// WarmStarted reports whether this point actually ran from a seed.
	WarmStarted bool
}

// Backend executes one ladder point. Implementations run the config on
// their tier, stream iteration counts through onIter (may be nil), and
// return the outcome. warm is the previous point's checkpoint; backends
// that source warm starts elsewhere ignore it.
type Backend interface {
	RunPoint(ctx context.Context, cfg core.RunConfig, warm *core.Checkpoint, onIter func(n int)) (*PointOutcome, error)
}

// LocalBackend runs points in-process — the qtsim -campaign offline mode.
type LocalBackend struct{}

// RunPoint builds the simulator and runs the Born loop, seeding it from
// warm when compatible.
func (LocalBackend) RunPoint(ctx context.Context, cfg core.RunConfig, warm *core.Checkpoint, onIter func(n int)) (*PointOutcome, error) {
	opts, err := cfg.Options()
	if err != nil {
		return nil, err
	}
	if onIter != nil {
		opts.OnIteration = func(st core.IterStats) { onIter(st.Iter) }
	}
	sim, err := cfg.NewSimulatorWith(opts)
	if err != nil {
		return nil, err
	}
	// The previous bias point's checkpoint seeds the Born loop (Σ≷/Π≷) and,
	// on adaptive ladders, the refinement controller too (its active point
	// set), so each point resumes refinement from the neighbor's resolved
	// grid instead of the coarse seed.
	out, err := sim.Execute(ctx, core.Plan{Config: cfg, Place: core.DistConfig{Resume: warm}})
	if err != nil {
		return nil, err
	}
	return outcomeOf("", cfg, out.Result, warm), nil
}

// outcomeOf packages a converged run of cfg as a ladder point, with its
// checkpoint for the next point's warm start.
func outcomeOf(jobID string, cfg core.RunConfig, res *core.Result, warm *core.Checkpoint) *PointOutcome {
	return &PointOutcome{
		JobID:       jobID,
		Iterations:  res.Iterations,
		Converged:   res.Converged,
		Residuals:   res.Residuals,
		Obs:         res.Obs,
		Checkpoint:  core.CheckpointOf(cfg.Device, res),
		WarmStarted: warm != nil,
	}
}

// follow reports each record of a point's iteration log to onIter (may be
// nil) as wait(i) yields it, until the log ends; it returns ctx's error,
// non-nil when the log ended because the campaign was cancelled.
func follow(ctx context.Context, wait func(i int) bool, onIter func(n int)) error {
	for i := 0; wait(i); i++ {
		if onIter != nil {
			onIter(i + 1)
		}
	}
	return ctx.Err()
}

// ServeBackend fans points out through a qtsimd scheduler, warm-starting
// via SubmitFrom — the in-process equivalent of the HTTP submit envelope.
type ServeBackend struct {
	S *serve.Scheduler
}

// RunPoint submits the point as a job (retrying briefly past a full
// queue), follows its iteration log, and packages the result with a
// checkpoint for the next point.
func (b ServeBackend) RunPoint(ctx context.Context, cfg core.RunConfig, warm *core.Checkpoint, onIter func(n int)) (*PointOutcome, error) {
	var j *serve.Job
	for {
		var err error
		j, err = b.S.SubmitFrom(cfg, warm)
		if err == nil {
			break
		}
		if !errors.Is(err, serve.ErrQueueFull) {
			return nil, err
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(50 * time.Millisecond):
		}
	}
	if err := follow(ctx, func(i int) bool { _, ok := j.WaitIter(ctx, i); return ok }, onIter); err != nil {
		_, _ = b.S.Cancel(j.ID())
		return nil, err
	}
	res, ok := j.Result()
	if !ok {
		st := j.Status()
		return nil, fmt.Errorf("campaign: point job %s %s: %s", j.ID(), st.State, st.Error)
	}
	return outcomeOf(j.ID(), cfg, res, warm), nil
}

// FrontBackend runs points through the sharded front tier. The explicit
// warm checkpoint is ignored: the front's content-addressed family cache
// seeds each point from the nearest finished bias point, so a chained
// point, submitted once its predecessor is done, warm-starts for free —
// WarmStarted is read back from the front's own report.
type FrontBackend struct {
	F *front.Front
	// Tenant is the admission identity campaign points are submitted
	// under ("" means anonymous).
	Tenant string
}

// RunPoint submits to the front, follows the shared iteration log, and
// reads the result document back. No checkpoint is returned — the front
// caches it internally.
func (b FrontBackend) RunPoint(ctx context.Context, cfg core.RunConfig, warm *core.Checkpoint, onIter func(n int)) (*PointOutcome, error) {
	st, err := b.F.Submit(b.Tenant, cfg)
	if err != nil {
		return nil, err
	}
	if err := follow(ctx, func(i int) bool { _, ok := b.F.WaitIter(ctx, st.ID, i); return ok }, onIter); err != nil {
		_, _ = b.F.Cancel(st.ID)
		return nil, err
	}
	doc, _, err := b.F.Result(st.ID)
	if err != nil {
		return nil, err
	}
	warmStarted := false
	if cur, ok := b.F.Get(st.ID); ok {
		warmStarted = cur.WarmStartBias != nil
	}
	return &PointOutcome{
		JobID:       st.ID,
		Iterations:  doc.Iterations,
		Converged:   doc.Converged,
		Residuals:   doc.Residuals,
		Obs:         doc.Observables,
		WarmStarted: warmStarted,
	}, nil
}
