package core

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"negfsim/internal/comm"
	"negfsim/internal/device"
	"negfsim/internal/obs"
)

// ftConfig is the baseline fault-tolerant configuration of the tests: a
// 2×2 grid with a short comm deadline so a genuinely hung failure path
// would fail the test quickly instead of stalling it.
func ftConfig() DistConfig {
	return DistConfig{TE: 2, TA: 2, CommTimeout: 5 * time.Second, RetryBackoff: time.Millisecond}
}

func TestRunDistributedFTSurvivesRankDeath(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxIter = 4

	cleanStart := time.Now()
	clean, cleanBytes, err := miniSim(t, opts).RunDistributedFTCtx(context.Background(), DistConfig{TE: 2, TA: 2})
	cleanWall := time.Since(cleanStart)
	if err != nil {
		t.Fatal(err)
	}

	recBefore := obs.GetCounter("core.recoveries").Value()
	deathsBefore := obs.GetCounter("comm.rank_deaths").Value()
	obs.Enable()
	t.Cleanup(obs.Disable)

	cfg := ftConfig()
	cfg.Fault = &comm.FaultPlan{Kill: true, KillRank: 1, KillAtOp: 3}
	cfg.FaultIter = 1
	start := time.Now()
	res, bytes, err := miniSim(t, opts).RunDistributedFTCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recoveries != 1 {
		t.Fatalf("Recoveries = %d, want 1", res.Recoveries)
	}
	// Metrics must report the event too (global counters; compare deltas).
	if d := obs.GetCounter("core.recoveries").Value() - recBefore; d < 1 {
		t.Errorf("core.recoveries advanced by %d, want ≥ 1", d)
	}
	if d := obs.GetCounter("comm.rank_deaths").Value() - deathsBefore; d < 1 {
		t.Errorf("comm.rank_deaths advanced by %d, want ≥ 1", d)
	}
	// Detection is cancellation-based: the run with one recovery redoes a
	// single iteration, so it must cost about one fault-free run — NOT a
	// fault-free run plus a blocked deadline (the old fixed 10 s). The
	// bound is relative to this machine's own clean-run time so it holds
	// under the race runtime too.
	if elapsed := time.Since(start); elapsed > 3*cleanWall+cfg.CommTimeout/2 {
		t.Errorf("run with recovery took %v (fault-free run: %v) — detection appears deadline-bound, not cancellation-based",
			elapsed, cleanWall)
	}
	if bytes == 0 || cleanBytes == 0 {
		t.Fatal("runs must move data")
	}

	// The recovered run must land on the fault-free observables: recovery
	// replays the iteration from the checkpointed Σ/Π, and the distributed
	// SSE phase is value-identical for every grid shape.
	if d := clean.GLess.MaxAbsDiff(res.GLess); d > 1e-8 {
		t.Fatalf("recovered trajectory diverged from fault-free run: %g", d)
	}
	if d := math.Abs(clean.Obs.CurrentL - res.Obs.CurrentL); d > 1e-8*(1+math.Abs(clean.Obs.CurrentL)) {
		t.Fatalf("recovered current differs: %g vs %g", res.Obs.CurrentL, clean.Obs.CurrentL)
	}
	if res.Iterations != clean.Iterations {
		t.Fatalf("iteration counts differ: %d vs %d", res.Iterations, clean.Iterations)
	}
}

func TestRunDistributedFTKillBeforeFirstCheckpoint(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxIter = 2
	clean, _, err := miniSim(t, opts).RunDistributedFTCtx(context.Background(), DistConfig{TE: 2, TA: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg := ftConfig()
	cfg.Fault = &comm.FaultPlan{Kill: true, KillRank: 0, KillAtOp: 0}
	cfg.FaultIter = 0 // dies before any checkpoint exists
	res, _, err := miniSim(t, opts).RunDistributedFTCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recoveries != 1 {
		t.Fatalf("Recoveries = %d, want 1", res.Recoveries)
	}
	if d := clean.GLess.MaxAbsDiff(res.GLess); d > 1e-8 {
		t.Fatalf("restart-from-zero trajectory diverged: %g", d)
	}
}

func TestRunDistributedFTFallsBackToSerialSSE(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxIter = 3
	clean, _, err := miniSim(t, opts).RunDistributedFTCtx(context.Background(), DistConfig{TE: 2, TA: 2})
	if err != nil {
		t.Fatal(err)
	}
	// A 2-rank grid with one death leaves a single survivor: no feasible
	// distributed grid, so the run must degrade to shared-memory SSE and
	// still finish with the same values.
	cfg := ftConfig()
	cfg.TE, cfg.TA = 2, 1
	cfg.Fault = &comm.FaultPlan{Kill: true, KillRank: 1, KillAtOp: 1}
	cfg.FaultIter = 1
	res, _, err := miniSim(t, opts).RunDistributedFTCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recoveries != 1 {
		t.Fatalf("Recoveries = %d, want 1", res.Recoveries)
	}
	if d := clean.GLess.MaxAbsDiff(res.GLess); d > 1e-8 {
		t.Fatalf("degraded run diverged from fault-free run: %g", d)
	}
}

func TestRunDistributedFTExhaustsRetries(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxIter = 2
	cfg := ftConfig()
	cfg.MaxRecoveries = -1 // no recovery budget at all
	cfg.Fault = &comm.FaultPlan{Kill: true, KillRank: 1, KillAtOp: 0}
	cfg.FaultIter = 0
	_, _, err := miniSim(t, opts).RunDistributedFTCtx(context.Background(), cfg)
	if !errors.Is(err, comm.ErrRankDead) {
		t.Fatalf("err = %v, want ErrRankDead after exhausted retries", err)
	}
}

func TestRunDistributedFTWritesResumableCheckpoints(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxIter = 2
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	cfg := ftConfig()
	cfg.CheckpointPath = path
	sim := miniSim(t, opts)
	res, _, err := sim.RunDistributedFTCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("checkpoint file not written: %v", err)
	}
	defer f.Close()
	ck, err := LoadCheckpoint(f)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Iterations != res.Iterations {
		t.Fatalf("checkpoint at iteration %d, run finished %d", ck.Iterations, res.Iterations)
	}
	if err := ck.Compatible(device.WrapParams(sim.Dev.P)); err != nil {
		t.Fatal(err)
	}
	if ck.SigmaLess.MaxAbsDiff(res.SigmaLess) != 0 {
		t.Fatal("checkpoint Σ differs from the final state")
	}

	// The file must seed both the serial resume path and a distributed one.
	if _, _, err := miniSim(t, opts).born(context.Background(), DistConfig{Resume: ck}); err != nil {
		t.Fatalf("serial resume: %v", err)
	}
	cfg2 := ftConfig()
	cfg2.Resume = ck
	if _, _, err := miniSim(t, opts).RunDistributedFTCtx(context.Background(), cfg2); err != nil {
		t.Fatalf("distributed resume: %v", err)
	}
}

func TestDeriveGrid(t *testing.T) {
	s := miniSim(t, DefaultOptions())
	for _, tc := range []struct {
		procs    int
		feasible bool
	}{
		{4, true}, {3, true}, {2, true}, {1, false}, {0, false},
	} {
		te, ta := s.deriveGrid(tc.procs)
		if tc.feasible {
			if te*ta != tc.procs {
				t.Errorf("deriveGrid(%d) = %d×%d, does not cover the ranks", tc.procs, te, ta)
			}
			if err := s.checkGrid(te, ta); err != nil {
				t.Errorf("deriveGrid(%d) = %d×%d: %v", tc.procs, te, ta, err)
			}
		} else if te != 0 || ta != 0 {
			t.Errorf("deriveGrid(%d) = %d×%d, want degraded marker (0, 0)", tc.procs, te, ta)
		}
	}
}
