package core

import (
	"context"
	"testing"
)

func TestRunDistributedMatchesSerialTrajectory(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxIter = 3
	serial, err := miniSim(t, opts).RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	dist, bytes, err := miniSim(t, opts).RunDistributedFTCtx(context.Background(), DistConfig{TE: 2, TA: 2})
	if err != nil {
		t.Fatal(err)
	}
	if bytes == 0 {
		t.Fatal("distributed run must move data")
	}
	if d := serial.GLess.MaxAbsDiff(dist.GLess); d > 1e-8 {
		t.Fatalf("distributed trajectory diverged from serial: %g", d)
	}
	if serial.Iterations != dist.Iterations {
		t.Fatalf("iteration counts differ: %d vs %d", serial.Iterations, dist.Iterations)
	}
	// Per-iteration traffic is (iterations−?) × one exchange; sanity check
	// against the single-phase measurement.
	one, err := miniSim(t, opts).DistributedSSE(
		phaseInputOf(serial), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if bytes < one.MeasuredBytes {
		t.Fatalf("full run (%d B) should move at least one phase's traffic (%d B)", bytes, one.MeasuredBytes)
	}
}

func TestTimingsPopulated(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxIter = 2
	res, err := miniSim(t, opts).RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Timings.GF <= 0 || res.Timings.SSE <= 0 {
		t.Fatalf("phase timings not recorded: %+v", res.Timings)
	}
}
