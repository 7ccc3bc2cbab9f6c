package core

import (
	"context"
	"testing"

	"negfsim/internal/sse"
)

func TestDistributedOMENMatchesSerial(t *testing.T) {
	s := miniSim(t, DefaultOptions())
	gl, gg, dl, dg, _, err := s.gfPhase(context.Background(), nil, selfEnergy{})
	if err != nil {
		t.Fatal(err)
	}
	in := sse.PhaseInput{GLess: gl, GGtr: gg, DLess: dl, DGtr: dg}
	serial := s.Kernel.ComputePhase(in, sse.OMEN)
	dist, err := s.DistributedSSEOMEN(in, 3)
	if err != nil {
		t.Fatal(err)
	}
	tol := 1e-9 * (1 + maxAbsG(serial.SigmaLess))
	if d := serial.SigmaLess.MaxAbsDiff(dist.SigmaLess); d > tol {
		t.Fatalf("OMEN-distributed Σ^< differs from serial by %g", d)
	}
	if d := serial.SigmaGtr.MaxAbsDiff(dist.SigmaGtr); d > tol {
		t.Fatalf("OMEN-distributed Σ^> differs from serial by %g", d)
	}
	if d := serial.PiLess.MaxAbsDiff(dist.PiLess); d > 1e-9 {
		t.Fatalf("OMEN-distributed Π^< differs from serial by %g", d)
	}
	if d := serial.PiGtr.MaxAbsDiff(dist.PiGtr); d > 1e-9 {
		t.Fatalf("OMEN-distributed Π^> differs from serial by %g", d)
	}
}

func TestOMENDistributedMovesMoreThanCA(t *testing.T) {
	if testing.Short() {
		t.Skip("long self-consistent run; skipped under -short (race gate)")
	}
	// The headline of the paper, measured end-to-end with real data: the
	// original decomposition transfers far more bytes than the CA one for
	// the same result.
	s := miniSim(t, DefaultOptions())
	gl, gg, dl, dg, _, err := s.gfPhase(context.Background(), nil, selfEnergy{})
	if err != nil {
		t.Fatal(err)
	}
	in := sse.PhaseInput{GLess: gl, GGtr: gg, DLess: dl, DGtr: dg}
	omen, err := s.DistributedSSEOMEN(in, 4)
	if err != nil {
		t.Fatal(err)
	}
	dace, err := s.DistributedSSE(in, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// At mini scale (Nqz·Nω = 12 rounds, NE/P = 4) the replication factor
	// is bounded; at paper scale the same ratio is 60–90× (Table 4). Here
	// the OMEN pattern must still move a multiple of the CA traffic.
	if omen.MeasuredBytes < 2*dace.MeasuredBytes {
		t.Fatalf("OMEN exchange (%d B) should exceed the CA exchange (%d B)",
			omen.MeasuredBytes, dace.MeasuredBytes)
	}
	// And both schemes produce the same self-energies.
	tol := 1e-9 * (1 + maxAbsG(omen.SigmaLess))
	if d := omen.SigmaLess.MaxAbsDiff(dace.SigmaLess); d > tol {
		t.Fatalf("the two distributed schemes disagree by %g", d)
	}
	// Measured OMEN traffic tracks the closed-form model (energy clamping
	// drops some shifted transfers, so measured ≤ model).
	ratio := float64(omen.MeasuredBytes) / omen.ModelBytes
	if ratio < 0.4 || ratio > 1.05 {
		t.Fatalf("OMEN measured/model ratio %.2f (measured %d, model %.0f)",
			ratio, omen.MeasuredBytes, omen.ModelBytes)
	}
}
