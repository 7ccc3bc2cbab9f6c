package rgf

import (
	"fmt"

	"negfsim/internal/cmat"
)

// PhononScattering carries the per-RGF-block phonon self-energy matrices
// Π^R, Π^≷ for one (ω, qz) point; entries may be nil.
type PhononScattering = Scattering

// PhononContacts sets the lattice temperature of the two contacts via their
// Bose occupations.
type PhononContacts struct {
	KTL, KTR float64 // thermal energies of the left/right heat bath [eV]
}

// PhononResult is the solution of Eq. (2) at one (ω, qz) point.
type PhononResult struct {
	DR, DLess, DGtr []*cmat.Dense // diagonal blocks

	// HeatL/HeatR are the phonon (energy) currents at the contacts,
	// Tr[Π^<_c·D^> − Π^>_c·D^<] in natural units.
	HeatL, HeatR float64
}

// Release returns every Green's function block of the result to the
// workspace arena. The result must not be used afterwards.
func (r *PhononResult) Release() {
	cmat.PutAll(r.DR...)
	cmat.PutAll(r.DLess...)
	cmat.PutAll(r.DGtr...)
	r.DR, r.DLess, r.DGtr = nil, nil, nil
}

// SolvePhonon solves one (ω, qz) point of Eq. (2):
// (ω²·I − Φ(qz) − Π^R)·D^R = I and D^≷ = D^R·Π^≷·D^A.
// hw is the phonon energy ℏω in eV; the squared frequency enters the
// operator directly.
//
// Like SolveElectron, the solve is arena-backed throughout: the operator
// ω²·I − Φ is assembled in one pass into a pooled matrix (no block identity
// is materialized) and mutated in place; result blocks are released via
// (*PhononResult).Release.
func SolvePhonon(phi *cmat.BlockTri, hw float64, scat PhononScattering, c PhononContacts, eta float64) (*PhononResult, error) {
	if hw <= 0 {
		return nil, fmt.Errorf("rgf: phonon energy must be positive, got %g", hw)
	}
	sp := obsSpanPhonon.Start()
	defer sp.End()
	// A = (ω² + iη)·I − Φ.
	a := cmat.GetBlockTri(phi.N, phi.Bs)
	defer cmat.PutBlockTri(a)
	phi.ShiftIdentityInto(a, complex(hw*hw, eta))
	// occ = −N makes the contact blocks Π^< = −i·N·Γ and Π^> = −i·(N+1)·Γ,
	// so that Π^> − Π^< = −i·Γ = Π^R − Π^A holds.
	res, err := solveOpen(nil, a, scat, -BoseEinstein(hw, c.KTL), -BoseEinstein(hw, c.KTR), nil)
	if err != nil {
		return nil, err
	}
	return &PhononResult{DR: res.GR, DLess: res.GLess, DGtr: res.GGtr, HeatL: res.CurrentL, HeatR: res.CurrentR}, nil
}
