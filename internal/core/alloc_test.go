//go:build !race

// The AllocsPerRun counters below measure steady-state heap traffic; the race
// runtime adds its own allocations, so these regressions only hold un-raced.

package core

import (
	"testing"

	"negfsim/internal/rgf"
	"negfsim/internal/tensor"
)

// TestExtractAllocatesNothing: copying a solved point's atom blocks into the
// Green's-function tensors goes straight from the RGF blocks into tensor
// storage, with no Submatrix copy or Block header per atom.
func TestExtractAllocatesNothing(t *testing.T) {
	s := miniSim(t, DefaultOptions())
	p := s.Dev.P
	gl := tensor.NewGTensor(p.Nkz, p.NE, p.NA, p.Norb)
	gg := tensor.NewGTensor(p.Nkz, p.NE, p.NA, p.Norb)
	dl := tensor.NewDTensor(p.Nqz, p.Nw, p.NA, p.NB, p.N3D)
	dg := tensor.NewDTensor(p.Nqz, p.Nw, p.NA, p.NB, p.N3D)

	er, err := rgf.SolveElectron(s.h[1], s.s[1], p.Energy(5), rgf.Scattering{}, s.Opts.Contacts, s.Opts.Eta)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(10, func() { s.extractElectron(1, 5, er, gl, gg) }); n != 0 {
		t.Fatalf("extractElectron allocates %v times per point, want 0", n)
	}
	if got, want := gl.Block(1, 5, p.NA-1).At(1, 0), er.GLess[p.Bnum-1].At(er.GLess[p.Bnum-1].Rows-1, er.GLess[p.Bnum-1].Rows-2); got != want {
		t.Fatalf("last atom's G< block not copied: %v, want %v", got, want)
	}

	pr, err := rgf.SolvePhonon(s.phi[2], float64(p.PhononShift(1))*p.EStep(), rgf.PhononScattering{},
		rgf.PhononContacts{KTL: s.Opts.PhononKTL, KTR: s.Opts.PhononKTR}, s.Opts.Eta)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(10, func() { s.extractPhonon(2, 1, pr, dl, dg) }); n != 0 {
		t.Fatalf("extractPhonon allocates %v times per point, want 0", n)
	}
	if got, want := dg.Block(2, 1, 0, p.NB).At(2, 1), pr.DGtr[0].At(2, 1); got != want {
		t.Fatalf("first atom's D> self block not copied: %v, want %v", got, want)
	}
}
