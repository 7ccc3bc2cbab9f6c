package core

import (
	"context"
	"math"
	"testing"
)

func TestEnergyCurrentBalance(t *testing.T) {
	if testing.Short() {
		t.Skip("long self-consistent run; skipped under -short (race gate)")
	}
	// Per energy point, particle current balances against the bath
	// (I_L(E) + I_R(E) + bath(E) = 0); weighting by E therefore balances
	// the energy flows: the Joule heat delivered to the lattice equals the
	// net electronic energy injected at the contacts.
	opts := DefaultOptions()
	opts.MaxIter = 8
	s := miniSim(t, opts)
	res, err := s.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var joule float64
	for _, e := range res.Obs.EnergyDissipationPerAtom {
		joule += e
	}
	lhs := res.Obs.EnergyCurrentL + res.Obs.EnergyCurrentR + joule
	scale := math.Abs(res.Obs.EnergyCurrentL) + math.Abs(res.Obs.EnergyCurrentR) + 1e-12
	// The balance is exact at the self-consistent fixed point; after a
	// finite number of Born iterations a residual of order the convergence
	// tolerance remains, plus the iη leakage.
	if math.Abs(lhs)/scale > 5e-2 {
		t.Fatalf("energy balance violated: E_L=%g E_R=%g Joule=%g (sum %g)",
			res.Obs.EnergyCurrentL, res.Obs.EnergyCurrentR, joule, lhs)
	}
	if res.Obs.EnergyCurrentL == 0 {
		t.Fatal("biased device should inject energy")
	}
}

func TestBallisticEnergyCurrentConserved(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxIter = 1
	res, err := miniSim(t, opts).RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(res.Obs.EnergyCurrentL+res.Obs.EnergyCurrentR) /
		(1 + math.Abs(res.Obs.EnergyCurrentL)); rel > 1e-3 {
		t.Fatalf("ballistic energy current not conserved: %g vs %g",
			res.Obs.EnergyCurrentL, res.Obs.EnergyCurrentR)
	}
	// Note: even after one iteration the SSE phase has produced a first
	// Born estimate of Σ, so the dissipation map is populated — but the
	// Green's functions themselves are still ballistic, which is what the
	// conservation check above verifies.
}
