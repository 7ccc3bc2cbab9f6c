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
	// JobID identifies the host tier's job, for cross-referencing campaign
	// points against /v1/jobs; on the front it also names the seed of the
	// point's chain successor.
	JobID string
	// Iterations/Converged/Residuals summarize the Born loop.
	Iterations int
	Converged  bool
	Residuals  []float64
	// Obs are the physical outputs the artifacts are built from.
	Obs core.Observables
	// Checkpoint carries the converged Σ≷/Π≷ that seed the chain successor
	// on a scheduler; nil on the front, which keeps the checkpoint with
	// the job JobID names.
	Checkpoint *core.Checkpoint
	// WarmStarted reports whether this point actually ran from a seed.
	WarmStarted bool
}

// Backend executes one ladder point on its host tier: it runs cfg, streams
// iteration counts through onIter (may be nil), and returns the outcome.
// prev is the outcome of the point's chain predecessor and the point's only
// seed; it is nil for a chain head and for every point of a cold campaign.
type Backend interface {
	RunPoint(ctx context.Context, cfg core.RunConfig, prev *PointOutcome, onIter func(n int)) (*PointOutcome, error)
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

// ServeBackend runs points as jobs of a qtsimd scheduler — the worker role
// and the qtsim -campaign offline mode alike — each seeded through
// SubmitFrom with its predecessor's checkpoint, the in-process equivalent
// of the HTTP submit envelope. On an adaptive ladder the checkpoint seeds
// the refinement controller too (its active point set), so each point
// resumes refinement from its neighbor's resolved grid.
type ServeBackend struct {
	S *serve.Scheduler
}

// RunPoint submits the point as a job (retrying briefly past a full
// queue), follows its iteration log, and packages the result with a
// checkpoint for the next point.
func (b ServeBackend) RunPoint(ctx context.Context, cfg core.RunConfig, prev *PointOutcome, onIter func(n int)) (*PointOutcome, error) {
	var seed *core.Checkpoint
	if prev != nil {
		seed = prev.Checkpoint
	}
	var j *serve.Job
	for {
		var err error
		j, err = b.S.SubmitFrom(cfg, seed)
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
	return &PointOutcome{
		JobID:       j.ID(),
		Iterations:  res.Iterations,
		Converged:   res.Converged,
		Residuals:   res.Residuals,
		Obs:         res.Obs,
		Checkpoint:  core.CheckpointOf(cfg.Device, res),
		WarmStarted: seed != nil,
	}, nil
}

// FrontBackend runs points through the sharded front tier. Each point is
// submitted with SubmitFrom naming its predecessor's front job, so the
// front seeds it from that job's cached run by reference — the campaign
// never decodes or ships a checkpoint here, and the front's family cache
// never picks a campaign point's seed. A point whose predecessor's job is
// no longer retained runs cold; WarmStarted is read back from the front.
type FrontBackend struct {
	F *front.Front
	// Tenant is the admission identity campaign points are submitted
	// under ("" means anonymous).
	Tenant string
}

// RunPoint submits to the front, follows the shared iteration log, and
// reads the result document back.
func (b FrontBackend) RunPoint(ctx context.Context, cfg core.RunConfig, prev *PointOutcome, onIter func(n int)) (*PointOutcome, error) {
	from := ""
	if prev != nil {
		from = prev.JobID
	}
	st, err := b.F.SubmitFrom(b.Tenant, cfg, from)
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
		warmStarted = cur.WarmStart
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
