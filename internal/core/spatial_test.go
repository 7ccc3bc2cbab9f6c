package core

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"negfsim/internal/comm"
	"negfsim/internal/device"
	"negfsim/internal/perfmodel"
)

// spatialConfig is the baseline spatial-split configuration: the GF phase
// partitioned over `space` ranks, the SSE phase local.
func spatialConfig(space int) DistConfig {
	return DistConfig{Space: space, CommTimeout: 5 * time.Second, RetryBackoff: time.Millisecond}
}

func TestSpatialRunMatchesSerial(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxIter = 3
	clean, _, err := miniSim(t, opts).RunDistributedFTCtx(context.Background(), DistConfig{TE: 2, TA: 2})
	if err != nil {
		t.Fatal(err)
	}

	sim := miniSim(t, opts)
	res, bytes, err := sim.RunDistributedFTCtx(context.Background(), spatialConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != clean.Iterations {
		t.Fatalf("iteration counts differ: %d vs %d", res.Iterations, clean.Iterations)
	}
	if d := clean.GLess.MaxAbsDiff(res.GLess); d > 1e-8 {
		t.Fatalf("spatial trajectory diverged from serial run: %g", d)
	}
	if d := math.Abs(clean.Obs.CurrentL - res.Obs.CurrentL); d > 1e-8*(1+math.Abs(clean.Obs.CurrentL)) {
		t.Fatalf("spatial current differs: %g vs %g", res.Obs.CurrentL, clean.Obs.CurrentL)
	}
	// Every iteration moves exactly the modeled spatial GF volume: Nkz·NE
	// distributed electron solves, phonons local.
	want := int64(res.Iterations) * int64(perfmodel.SpatialGFVolume(sim.Dev.P, 2))
	if bytes != want {
		t.Fatalf("moved %d bytes, spatial-split model predicts %d", bytes, want)
	}
}

// spatialSim builds a device with enough RGF blocks for a 3-way split
// (Bnum = 5 ≥ 2·3−1).
func spatialSim(t *testing.T, opts Options) *Simulator {
	t.Helper()
	p := device.Mini()
	p.NA, p.Bnum = 40, 5
	p.Nkz, p.Nqz, p.NE, p.Nw = 2, 2, 8, 3
	dev, err := device.New(p)
	if err != nil {
		t.Fatal(err)
	}
	return New(dev, opts)
}

func TestSpatialRecoverySurvivesRankDeath(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxIter = 3
	clean, _, err := spatialSim(t, opts).RunDistributedFTCtx(context.Background(), spatialConfig(3))
	if err != nil {
		t.Fatal(err)
	}

	cfg := spatialConfig(3)
	cfg.Fault = &comm.FaultPlan{Kill: true, KillRank: 2, KillAtOp: 3}
	cfg.FaultIter = 1
	res, _, err := spatialSim(t, opts).RunDistributedFTCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recoveries != 1 {
		t.Fatalf("Recoveries = %d, want 1", res.Recoveries)
	}
	// The survivors re-partition over a 2-rank spatial cluster and replay
	// from the checkpoint; the result must be the fault-free one.
	if d := clean.GLess.MaxAbsDiff(res.GLess); d > 1e-8 {
		t.Fatalf("recovered spatial trajectory diverged: %g", d)
	}
	if d := math.Abs(clean.Obs.CurrentL - res.Obs.CurrentL); d > 1e-8*(1+math.Abs(clean.Obs.CurrentL)) {
		t.Fatalf("recovered current differs: %g vs %g", res.Obs.CurrentL, clean.Obs.CurrentL)
	}
	if res.Iterations != clean.Iterations {
		t.Fatalf("iteration counts differ: %d vs %d", res.Iterations, clean.Iterations)
	}
}

func TestSpatialSplitValidation(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxIter = 1
	// Mini has Bnum = 3: a 3-way split needs 5 blocks.
	if _, _, err := miniSim(t, opts).RunDistributedFTCtx(context.Background(), spatialConfig(3)); err == nil ||
		!strings.Contains(err.Error(), "cannot be partitioned") {
		t.Fatalf("want partition-infeasible error, got %v", err)
	}
}

func TestRunConfigSpatialValidationAndCanonical(t *testing.T) {
	cfg := DefaultRunConfig()
	cfg.Space = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative space must be rejected")
	}
	cfg = DefaultRunConfig()
	cfg.Space = 3 // Bnum = 3 < 5
	if err := cfg.Validate(); err == nil {
		t.Fatal("space too large for the device must be rejected")
	}
	cfg = DefaultRunConfig()
	cfg.Space = 2
	cfg.Gate = &GateSpec{MaxOuter: 2, Damping: 0.5}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("space × gate must validate (the Gummel loop wraps any placement): %v", err)
	}
	cfg = DefaultRunConfig()
	cfg.Space = 1
	if err := cfg.Validate(); err != nil {
		t.Fatalf("space = 1 (local solve) must validate: %v", err)
	}
	if got := cfg.Canonical().Space; got != 0 {
		t.Fatalf("Canonical space = %d, want 0 for a sub-2 split", got)
	}
	cfg.Space = 2
	if got := cfg.Canonical().Space; got != 2 {
		t.Fatalf("Canonical space = %d, want 2 preserved", got)
	}
	dc, ok, err := cfg.DistConfig()
	if err != nil || !ok {
		t.Fatalf("DistConfig: ok=%v err=%v", ok, err)
	}
	if dc.Space != 2 || dc.TE != 0 {
		t.Fatalf("DistConfig = %+v, want spatial-only", dc)
	}
}
