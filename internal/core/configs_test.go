package core

import (
	"context"
	"math"
	"testing"

	"negfsim/internal/device"
)

// TestBallisticAcrossConfigurations sweeps several structure shapes through
// a one-iteration run, guarding the whole pipeline (geometry → operators →
// boundaries → RGF → observables) against shape-specific regressions.
func TestBallisticAcrossConfigurations(t *testing.T) {
	configs := []device.Params{
		{Nkz: 2, Nqz: 2, NE: 10, Nw: 3, NA: 18, NB: 4, Norb: 2, N3D: 3,
			Rows: 3, Bnum: 3, Emin: -1, Emax: 1, Seed: 11},
		{Nkz: 4, Nqz: 4, NE: 8, Nw: 2, NA: 30, NB: 6, Norb: 3, N3D: 3,
			Rows: 5, Bnum: 2, Emin: -1, Emax: 1, Seed: 12},
		{Nkz: 3, Nqz: 3, NE: 12, Nw: 4, NA: 16, NB: 4, Norb: 2, N3D: 3,
			Rows: 2, Bnum: 4, Emin: -0.8, Emax: 0.8, Seed: 13},
	}
	for i, p := range configs {
		dev, err := device.New(p)
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		opts := DefaultOptions()
		opts.MaxIter = 1
		res, err := New(dev, opts).RunCtx(context.Background())
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		if res.Obs.CurrentL == 0 {
			t.Fatalf("config %d: no current under bias", i)
		}
		if rel := math.Abs(res.Obs.CurrentL+res.Obs.CurrentR) /
			(1 + math.Abs(res.Obs.CurrentL)); rel > 1e-2 {
			t.Fatalf("config %d: conservation violated (%g vs %g)", i, res.Obs.CurrentL, res.Obs.CurrentR)
		}
		for _, v := range res.GLess.Data {
			if math.IsNaN(real(v)) || math.IsNaN(imag(v)) {
				t.Fatalf("config %d: NaN in G^<", i)
			}
		}
	}
}
