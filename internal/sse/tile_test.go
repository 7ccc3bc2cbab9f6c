package sse

import (
	"math/rand"
	"testing"

	"negfsim/internal/tensor"
)

func TestSigmaTilesCoverFullKernel(t *testing.T) {
	k := testKernel(t)
	p := k.Dev.P
	rng := rand.New(rand.NewSource(11))
	g := randomAntiHermG(rng, p)
	pre := k.PreprocessD(randomD(rng, p))
	full := k.SigmaDaCe(g, pre)
	// 2×2 tile grid over (energy, atoms).
	sum := k.SigmaDaCeTile(g, pre, 0, p.NE/2, 0, p.NA/2)
	for _, tile := range [][4]int{
		{0, p.NE / 2, p.NA / 2, p.NA},
		{p.NE / 2, p.NE, 0, p.NA / 2},
		{p.NE / 2, p.NE, p.NA / 2, p.NA},
	} {
		part := k.SigmaDaCeTile(g, pre, tile[0], tile[1], tile[2], tile[3])
		for i := range sum.Data {
			sum.Data[i] += part.Data[i]
		}
	}
	if d := full.MaxAbsDiff(sum); d > 1e-10*(1+gScale(full)) {
		t.Fatalf("tile union differs from full Σ by %g", d)
	}
}

func TestSigmaTileIsExactSlice(t *testing.T) {
	// A single tile must equal the corresponding slice of the full result,
	// not an approximation: the halo covers every needed input.
	k := testKernel(t)
	p := k.Dev.P
	rng := rand.New(rand.NewSource(12))
	g := randomAntiHermG(rng, p)
	pre := k.PreprocessD(randomD(rng, p))
	full := k.SigmaDaCe(g, pre)
	eLo, eHi, aLo, aHi := p.NE/4, 3*p.NE/4, p.NA/4, 3*p.NA/4
	tile := k.SigmaDaCeTile(g, pre, eLo, eHi, aLo, aHi)
	for kz := 0; kz < p.Nkz; kz++ {
		for e := 0; e < p.NE; e++ {
			for a := 0; a < p.NA; a++ {
				inside := e >= eLo && e < eHi && a >= aLo && a < aHi
				d := tile.Block(kz, e, a).MaxAbsDiff(full.Block(kz, e, a))
				if inside && d > 1e-10*(1+gScale(full)) {
					t.Fatalf("tile wrong inside at (%d,%d,%d): %g", kz, e, a, d)
				}
				if !inside && tile.Block(kz, e, a).MaxAbs() != 0 {
					t.Fatalf("tile nonzero outside at (%d,%d,%d)", kz, e, a)
				}
			}
		}
	}
}

func TestPiTilesSumToFullKernel(t *testing.T) {
	k := testKernel(t)
	p := k.Dev.P
	rng := rand.New(rand.NewSource(13))
	gl := randomAntiHermG(rng, p)
	gg := randomAntiHermG(rng, p)
	fullL, fullG := k.PiDaCe(gl, gg)
	sumL, sumG := k.PiDaCeTile(gl, gg, 0, p.NE/2, 0, p.NA/2)
	for _, tile := range [][4]int{
		{0, p.NE / 2, p.NA / 2, p.NA},
		{p.NE / 2, p.NE, 0, p.NA / 2},
		{p.NE / 2, p.NE, p.NA / 2, p.NA},
	} {
		pl, pg := k.PiDaCeTile(gl, gg, tile[0], tile[1], tile[2], tile[3])
		for i := range sumL.Data {
			sumL.Data[i] += pl.Data[i]
			sumG.Data[i] += pg.Data[i]
		}
	}
	// Tile sums accumulate in a different order than the full kernel, so
	// agreement is to rounding at the tensor's scale, not bit-exact.
	var scale float64
	for _, v := range fullL.Data {
		if a := cmplxAbs(v); a > scale {
			scale = a
		}
	}
	if d := fullL.MaxAbsDiff(sumL); d > 1e-9*(1+scale) {
		t.Fatalf("Π^< tile sum differs by %g (scale %g)", d, scale)
	}
	if d := fullG.MaxAbsDiff(sumG); d > 1e-9*(1+scale) {
		t.Fatalf("Π^> tile sum differs by %g (scale %g)", d, scale)
	}
}

func TestSigmaTileUsesOnlyHaloInputs(t *testing.T) {
	// Poison G outside the documented halo (energy window [eLo−Nω, eHi),
	// atoms in the tile's neighbor set); the tile result must be unchanged.
	k := testKernel(t)
	p := k.Dev.P
	rng := rand.New(rand.NewSource(14))
	g := randomAntiHermG(rng, p)
	pre := k.PreprocessD(randomD(rng, p))
	eLo, eHi, aLo, aHi := p.NE/2, p.NE, 0, p.NA/2
	want := k.SigmaDaCeTile(g, pre, eLo, eHi, aLo, aHi)

	// Atom halo: the tile's atoms and their neighbors.
	halo := map[int]bool{}
	for a := aLo; a < aHi; a++ {
		halo[a] = true
		for _, f := range k.Dev.Neigh[a] {
			if f >= 0 {
				halo[f] = true
			}
		}
	}
	poisoned := g.Clone()
	for kz := 0; kz < p.Nkz; kz++ {
		for e := 0; e < p.NE; e++ {
			for a := 0; a < p.NA; a++ {
				if e >= eLo-p.Nw && e < eHi && halo[a] {
					continue
				}
				blk := poisoned.Block(kz, e, a)
				for i := range blk.Data {
					blk.Data[i] = complex(1e6, -1e6)
				}
			}
		}
	}
	got := k.SigmaDaCeTile(poisoned, pre, eLo, eHi, aLo, aHi)
	if d := want.MaxAbsDiff(got); d != 0 {
		t.Fatalf("tile read outside its halo (diff %g)", d)
	}
}

func TestPiTileUsesOnlyHaloInputs(t *testing.T) {
	// Poison G≷ outside the documented halo (energy window [eLo, eHi+Nω),
	// atoms in the tile's neighbor set); the Π tile must be bit-identical.
	k := testKernel(t)
	p := k.Dev.P
	rng := rand.New(rand.NewSource(15))
	gl := randomAntiHermG(rng, p)
	gg := randomAntiHermG(rng, p)
	eLo, eHi, aLo, aHi := p.NE/4, p.NE/2, p.NA/2, p.NA
	wantL, wantG := k.PiDaCeTile(gl, gg, eLo, eHi, aLo, aHi)

	halo := map[int]bool{}
	for a := aLo; a < aHi; a++ {
		halo[a] = true
		for _, f := range k.Dev.Neigh[a] {
			if f >= 0 {
				halo[f] = true
			}
		}
	}
	pl, pg := gl.Clone(), gg.Clone()
	for _, g := range []*tensor.GTensor{pl, pg} {
		for kz := 0; kz < p.Nkz; kz++ {
			for e := 0; e < p.NE; e++ {
				for a := 0; a < p.NA; a++ {
					if e >= eLo && e < eHi+p.Nw && halo[a] {
						continue
					}
					blk := g.Block(kz, e, a)
					for i := range blk.Data {
						blk.Data[i] = complex(1e6, -1e6)
					}
				}
			}
		}
	}
	gotL, gotG := k.PiDaCeTile(pl, pg, eLo, eHi, aLo, aHi)
	if !sameBits(wantL.Data, gotL.Data) || !sameBits(wantG.Data, gotG.Data) {
		t.Fatal("Π tile read outside its halo")
	}
}
