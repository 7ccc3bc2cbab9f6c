package core

import (
	"context"
	"math"
	"testing"
)

func gummelOpts() Options {
	o := DefaultOptions()
	o.MaxIter = 2 // short inner Born loops keep the outer test fast
	return o
}

func TestGummelZeroBiasFlatPotential(t *testing.T) {
	// All boundaries grounded and no gate: δn = 0 by construction, so the
	// converged potential is identically zero.
	s := miniSim(t, gummelOpts())
	g := DefaultGate(0, 0)
	res, err := s.RunWithPoissonCtx(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if !res.GummelConverged {
		t.Fatalf("zero-bias Gummel should converge immediately: residuals %v", res.PhiResiduals)
	}
	for a, v := range res.Potential {
		if math.Abs(v) > 1e-8 {
			t.Fatalf("atom %d: potential %g, want 0", a, v)
		}
	}
}

func TestGummelGateAttractsElectrons(t *testing.T) {
	if testing.Short() {
		t.Skip("long self-consistent run; skipped under -short (race gate)")
	}
	// A positive gate raises the interior potential, lowering electron
	// onsite energies under the gate and pulling in charge.
	s := miniSim(t, gummelOpts())
	g := DefaultGate(0.3, 0)
	g.MaxOuter = 5
	res, err := s.RunWithPoissonCtx(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	var interiorMax float64
	for _, v := range res.Potential {
		if v > interiorMax {
			interiorMax = v
		}
	}
	if interiorMax <= 0 {
		t.Fatal("positive gate should raise the potential somewhere")
	}
	if interiorMax > 0.3+1e-6 {
		t.Fatalf("potential %g exceeds the gate voltage (maximum principle)", interiorMax)
	}
	// Gummel residuals decrease.
	rs := res.PhiResiduals
	if len(rs) >= 2 && rs[len(rs)-1] > rs[0] {
		t.Fatalf("Gummel residuals grew: %v", rs)
	}
	// The top row (under the gate) collected extra electrons relative to
	// the bottom row.
	p := s.Dev.P
	var top, bottom float64
	for c := 1; c < p.Cols()-1; c++ {
		top += res.ChargePerAtom[c*p.Rows+p.Rows-1]
		bottom += res.ChargePerAtom[c*p.Rows]
	}
	// ChargePerAtom stores −Coupling·δn: more electrons → more negative.
	if top >= bottom {
		t.Fatalf("gate should accumulate charge on the top row: top %g vs bottom %g", top, bottom)
	}
}

func TestGummelRestoresHamiltonian(t *testing.T) {
	if testing.Short() {
		t.Skip("long self-consistent run; skipped under -short (race gate)")
	}
	s := miniSim(t, gummelOpts())
	before := s.h[0].ToDense()
	if _, err := s.RunWithPoissonCtx(context.Background(), DefaultGate(0.2, 0.1)); err != nil {
		t.Fatal(err)
	}
	if d := s.h[0].ToDense().MaxAbsDiff(before); d != 0 {
		t.Fatalf("Gummel left a shifted Hamiltonian behind (diff %g)", d)
	}
}

func TestGummelSpecValidation(t *testing.T) {
	s := miniSim(t, gummelOpts())
	bad := DefaultGate(0.1, 0)
	bad.MaxOuter = 0
	if _, err := s.RunWithPoissonCtx(context.Background(), bad); err == nil {
		t.Fatal("MaxOuter = 0 must be rejected")
	}
	bad = DefaultGate(0.1, 0)
	bad.Damping = 1.5
	if _, err := s.RunWithPoissonCtx(context.Background(), bad); err == nil {
		t.Fatal("damping > 1 must be rejected")
	}
}
