package core

import (
	"context"
	"time"

	"negfsim/internal/comm"
)

// DistConfig is the placement of a Born run: where its two phases execute,
// from which seed, and what happens when a rank dies. The
// zero value is the serial shared-memory run from Σ = Π = 0; the zero value
// of every optional field keeps the documented default, so
// DistConfig{TE: te, TA: ta} is the plain fault-tolerant TE×TA run.
type DistConfig struct {
	// TE, TA are the initial energy×atom rank grid of the SSE phase.
	TE, TA int

	// Space, when ≥ 2, additionally partitions every electron retarded
	// solve of the GF phase across a spatial cluster of that many ranks —
	// the device-dimension split (rgf.DistributedRetarded). Requires
	// Bnum ≥ 2·Space−1 so every rank owns at least one interior block.
	// When a spatial rank dies, the run shrinks the spatial cluster by one
	// rank (degrading to the local solver below 2) and resumes from the
	// last checkpoint.
	Space int

	// CommTimeout bounds every Send/Recv on the simulated cluster — the
	// detection backstop for failures the cancellation channel cannot see.
	// 0 keeps comm.DefaultTimeout. Prompt detection does not depend on it:
	// a rank death cancels the cluster and unblocks survivors immediately.
	CommTimeout time.Duration

	// MaxRecoveries bounds how many rank failures the run survives before
	// giving up and returning the failure (default 2).
	MaxRecoveries int

	// RetryBackoff is the pause before a recovery attempt, scaled linearly
	// with the attempt number (default 10ms).
	RetryBackoff time.Duration

	// Fault, when non-nil, is armed on the cluster of Born iteration
	// FaultIter (0-based) and fires exactly once — the hook behind qtsim
	// -inject-fault and the recovery tests.
	Fault     *comm.FaultPlan
	FaultIter int

	// CheckpointPath, when non-empty, additionally persists the in-memory
	// checkpoint to this gob file after every completed iteration (the file
	// qtsim -checkpoint writes and LoadCheckpoint reads).
	CheckpointPath string

	// Resume, when non-nil, seeds the run with a checkpoint's self-energies
	// instead of starting from Σ = Π = 0.
	Resume *Checkpoint
}

// RunDistributedFTCtx runs the Born loop under a clustered placement (SSE
// phase on a TE×TA grid, GF electron solves on a spatial split) and returns
// the exchange traffic with a result whose trajectory is the serial DaCe
// run's. It checkpoints the mixed self-energies every iteration; when a
// rank dies mid-collective (comm.ErrRankDead) it shrinks the placement over
// the survivors, down to the shared-memory kernels, and resumes from the
// last checkpoint, at most MaxRecoveries times with linear backoff.
// Cancellation is checked at iteration boundaries, per GF grid point and in
// every blocked Send/Recv; it is terminal, never a failure to recover from,
// and unregisters the abandoned cluster's byte gauges.
func (s *Simulator) RunDistributedFTCtx(ctx context.Context, cfg DistConfig) (*Result, int64, error) {
	if !cfg.clustered() { // the zero placement is the serial run; this entry point names a grid
		return nil, 0, s.checkGrid(cfg.TE, cfg.TA)
	}
	return s.born(ctx, cfg)
}

// clustered reports whether the placement puts a phase of the Born
// iteration on a cluster: the SSE phase on a TE×TA grid, or the GF electron
// solves on a spatial split.
func (c DistConfig) clustered() bool { return c.TE > 0 || c.Space >= 2 }

// mixesLinearly reports whether a run under this placement mixes the
// self-energies linearly whatever Options.Mixer says. It is true for every
// clustered placement — a KNOWN DEFECT, kept on purpose: the historical
// distributed loop never looked at the mixer, and bench/golden.json pins
// the resulting trajectory (sse_wire_dist, "mixer": "anderson", converges
// in 11 linearly mixed iterations where the serial sse_wire needs 8). A
// change here changes that golden answer, so it belongs to the
// benchmark-only PR that re-records it (CHANGES.md, stage (ii) of ROADMAP
// item 5). RunConfig.MixerOverridden surfaces the rule to the frontends.
func (c DistConfig) mixesLinearly() bool { return c.clustered() }

// deriveGrid picks the TE×TA decomposition for a surviving rank count: the
// volume-minimizing feasible factorization (the §4.1 exhaustive search).
// When no ≥2-rank grid fits the device, it returns (0, 0), the degraded
// shared-memory marker.
func (s *Simulator) deriveGrid(procs int) (te, ta int) {
	if procs < 2 || s.Dev.P.NE < procs {
		return 0, 0
	}
	best, feasible := comm.SearchTiles(s.Dev.P, procs, 0)
	if len(feasible) == 0 {
		return 0, 0
	}
	return best.TE, best.TA
}
