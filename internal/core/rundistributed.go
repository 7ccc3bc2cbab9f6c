package core

import (
	"context"
	"fmt"
	"time"

	"negfsim/internal/comm"
)

// DistConfig is the placement of a Born run: where its two phases execute,
// on which fabric, from which seed, and what happens when a rank dies. The
// zero value is the serial shared-memory run from Σ = Π = 0; the zero value
// of every optional field keeps the documented default, so
// DistConfig{TE: te, TA: ta} reproduces the plain RunDistributed behavior.
type DistConfig struct {
	// TE, TA are the initial energy×atom rank grid of the SSE phase.
	TE, TA int

	// Space, when ≥ 2, additionally partitions every electron retarded
	// solve of the GF phase across a spatial cluster of that many ranks —
	// the device-dimension split (rgf.DistributedRetarded). Requires
	// Bnum ≥ 2·Space−1 so every rank owns at least one interior block.
	// A persistent Cluster serves both phases, so when both axes are
	// requested its size must equal TE·TA and Space alike. When a spatial
	// rank dies, in-process runs shrink the spatial cluster by one rank
	// (degrading to the local solver below 2) and multi-process runs finish
	// fully local, always from the last checkpoint.
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

	// Cluster, when non-nil, is a caller-provided persistent communicator —
	// typically one peer of a multi-process TCP cluster
	// (comm.NewClusterTCP) — used for every Born iteration instead of the
	// per-iteration in-process clusters. Its size must equal TE·TA. The
	// caller owns its lifecycle (Close); the run never unregisters it.
	// When a peer process dies mid-run, the survivors restore the last
	// checkpoint and degrade to the local shared-memory SSE kernels — a
	// multi-process grid cannot be re-derived over the survivors the way an
	// in-process one can — so the run still completes with the same
	// observables.
	Cluster *comm.Cluster
}

// RunDistributed executes the full self-consistent Born loop with the SSE
// phase running under the communication-avoiding decomposition on the
// simulated TE×TA cluster (the GF phase stays shared-memory parallel, as
// on one node of the paper's runs). The trajectory is identical to Run()
// with the DaCe variant — the decomposition changes data movement, not
// values — and the result additionally reports the accumulated exchange
// traffic, so the communication cost of a full simulation can be measured
// rather than modeled.
func (s *Simulator) RunDistributed(te, ta int) (*Result, int64, error) {
	return s.RunDistributedFT(DistConfig{TE: te, TA: ta})
}

// RunDistributedFT is RunDistributed with fault tolerance: the Born loop
// under a clustered placement checkpoints the mixed self-energies after
// every iteration, and when a rank dies mid-collective (promptly surfaced
// as comm.ErrRankDead by the cluster's cancellation channel) it shrinks the
// placement over the survivors — down to the shared-memory kernels — and
// resumes from the last checkpoint, bounded by MaxRecoveries attempts with
// linear backoff; so a run either completes or reports a non-transient
// error.
func (s *Simulator) RunDistributedFT(cfg DistConfig) (*Result, int64, error) {
	return s.RunDistributedFTCtx(context.Background(), cfg)
}

// RunDistributedFTCtx is RunDistributedFT bound to a context. Cancellation
// is observed at Born iteration boundaries, per GF grid point, and inside
// every blocked Send/Recv of the simulated cluster, so a cancelled run
// releases its rank goroutines within microseconds. It is terminal — never
// a rank failure to recover from — and unregisters the abandoned cluster's
// per-rank byte gauges.
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

// CheckRanks reports whether a persistent cluster of n ranks can carry the
// placement: one cluster serves both phases, so n must equal TE·TA and
// Space alike. Peer frontends call it before they bootstrap the TCP mesh;
// the Born loop repeats it as the backstop.
func (c DistConfig) CheckRanks(n int) error {
	if c.TE > 0 && n != c.TE*c.TA {
		return fmt.Errorf("core: cluster of %d ranks cannot carry a %d×%d grid", n, c.TE, c.TA)
	}
	if c.Space >= 2 && n != c.Space {
		return fmt.Errorf("core: cluster of %d ranks cannot carry a %d-way spatial split", n, c.Space)
	}
	return nil
}

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
