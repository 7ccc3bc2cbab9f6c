package rgf

import (
	"fmt"

	"negfsim/internal/cmat"
	"negfsim/internal/comm"
	"negfsim/internal/obs"
)

// Phase timers of the GF phase. One span per solve (and per boundary
// decimation inside it); allocation-free and near-nops while obs recording
// is disabled, so the per-grid-point hot loop is unaffected.
var (
	obsSpanElectron = obs.GetTimer("rgf.electron")
	obsSpanPhonon   = obs.GetTimer("rgf.phonon")
	obsSpanBoundary = obs.GetTimer("rgf.boundary")
)

// Scattering carries the per-RGF-block scattering self-energy matrices for
// one (E, kz) point — or, as PhononScattering, Π^R, Π^≷ for one (ω, qz)
// point. Entries may be nil (treated as zero): the first GF pass of the Born
// iteration runs with Σ = 0. Only the diagonal blocks of Σ^S are retained, as
// in the paper (§2).
type Scattering struct {
	R, Less, Gtr []*cmat.Dense
}

// Release returns arena-backed scattering blocks to the workspace arena,
// for callers that assembled them with cmat.GetDense.
func (s Scattering) Release() {
	cmat.PutAll(s.R...)
	cmat.PutAll(s.Less...)
	cmat.PutAll(s.Gtr...)
}

// Contacts sets the occupation of the two leads.
type Contacts struct {
	MuL, MuR float64 // chemical potentials [eV]
	KT       float64 // thermal energy [eV]
}

// ElectronResult is the solution of Eq. (1) at one (E, kz) point.
type ElectronResult struct {
	GR, GLess, GGtr []*cmat.Dense // diagonal blocks

	// CurrentL/CurrentR are the Meir-Wingreen contact currents
	// Tr[Σ^<_c·G^> − Σ^>_c·G^<] evaluated at the left/right contact
	// (per-energy spectral current in natural units q/ℏ = 1; positive means
	// net electron flow into the device through that contact).
	CurrentL, CurrentR float64

	// DissipationPerBlock is Tr[Σ^<_S·G^> − Σ^>_S·G^<] per RGF block: the
	// energy exchanged with the phonon bath, driving the self-heating map.
	DissipationPerBlock []float64
}

// Release returns every Green's function block of the result to the
// workspace arena. The result must not be used afterwards. Callers that keep
// the blocks (tests, public results) simply never call it.
func (r *ElectronResult) Release() {
	cmat.PutAll(r.GR...)
	cmat.PutAll(r.GLess...)
	cmat.PutAll(r.GGtr...)
	r.GR, r.GLess, r.GGtr = nil, nil, nil
}

// SolveElectron solves one (E, kz) point of Eq. (1): boundary self-energies
// by Sancho-Rubio on the pristine operator, then the retarded and Keldysh
// RGF passes with the supplied scattering self-energies.
//
// The whole solve runs on workspace-arena buffers: the device operator is
// assembled once into a pooled block-tridiagonal matrix and mutated in place
// (no per-call Clone or Sub chains), and all intermediates are returned to
// the arena before the function exits. The result blocks are pooled too —
// call (*ElectronResult).Release once their contents have been consumed.
func SolveElectron(h, s *cmat.BlockTri, energy float64, scat Scattering, c Contacts, eta float64) (*ElectronResult, error) {
	return solveElectron(nil, true, h, s, energy, scat, c, eta, nil)
}

// SolveElectronSpatial is SolveElectron with the retarded solve partitioned
// across the ranks of a cluster (DistributedRetarded): every rank assembles
// the identical operator and participates in the spatial exchange. Ranks
// with closure=true then run the Keldysh pass, currents and dissipation on
// the replicated diagonal and return the full result; the others return
// (nil, nil) once the collective solve is done. Exactly the closure ranks
// get a result, so a caller accumulating observables must pick closure
// ranks that cover each grid point exactly once per process.
func SolveElectronSpatial(r *comm.Rank, closure bool, h, s *cmat.BlockTri, energy float64, scat Scattering, c Contacts, eta float64) (*ElectronResult, error) {
	return solveElectron(r, closure, h, s, energy, scat, c, eta, nil)
}

func solveElectron(rank *comm.Rank, closure bool, h, s *cmat.BlockTri, energy float64, scat Scattering, c Contacts, eta float64, trans *float64) (*ElectronResult, error) {
	if h.N != s.N || h.Bs != s.Bs {
		return nil, fmt.Errorf("rgf: H and S shapes differ: (%d,%d) vs (%d,%d)", h.N, h.Bs, s.N, s.Bs)
	}
	sp := obsSpanElectron.Start()
	defer sp.End()
	n := h.N
	// A = (E + iη)·S − H, before scattering: the leads are ballistic.
	a := cmat.GetBlockTri(n, h.Bs)
	defer cmat.PutBlockTri(a)
	h.ShiftDiagInto(a, complex(energy, eta), s)
	res, err := solveOpen(rank, closure, a, scat, FermiDirac(energy, c.MuL, c.KT), FermiDirac(energy, c.MuR, c.KT), trans)
	if res == nil {
		return nil, err
	}
	res.DissipationPerBlock = make([]float64, n)
	if scat.Less != nil && scat.Gtr != nil {
		for i := 0; i < n; i++ {
			if scat.Less[i] == nil || scat.Gtr[i] == nil {
				continue
			}
			res.DissipationPerBlock[i] = real(scat.Less[i].TraceMul(res.GGtr[i]) -
				scat.Gtr[i].TraceMul(res.GLess[i]))
		}
	}
	return res, nil
}

// solveOpen is the one open-system point solve behind every public solver,
// electron and phonon alike. On the pristine operator a (mutated in place) it
// computes the boundary self-energies Σ_L/Σ_R and their broadenings Γ, folds
// Σ_L, Σ_R and scat.R into a, runs the retarded pass, and runs both Keldysh
// passes with the contact blocks Σ^< = i·occ·Γ and Σ^> = i·(occ−1)·Γ. occ is
// the Fermi occupation for electrons and −N for phonons, where the same two
// lines give Π^< = −i·N·Γ and Π^> = −i·(N+1)·Γ exactly (IEEE negation is
// exact). CurrentL/CurrentR receive the contact trace terms
// Tr[Σ^<_c·G^> − Σ^>_c·G^<]; DissipationPerBlock is left to the caller.
//
// With rank nil the retarded pass is SolveRetarded. Otherwise it is the
// collective DistributedRetarded, after which closure ranks rebuild gL
// locally and continue, and the other ranks return (nil, nil). A non-nil
// trans receives the Caroli transmission of the same retarded solve.
func solveOpen(rank *comm.Rank, closure bool, a *cmat.BlockTri, scat Scattering, occL, occR float64, trans *float64) (*ElectronResult, error) {
	n, bs := a.N, a.Bs
	spb := obsSpanBoundary.Start()
	sigL, sigR, err := BoundarySelfEnergies(a, 1e-10)
	spb.End()
	if err != nil {
		return nil, err
	}
	gamL := cmat.GetDense(bs, bs)
	gamR := cmat.GetDense(bs, bs)
	defer cmat.PutAll(gamL, gamR)
	broadeningInto(gamL, sigL)
	broadeningInto(gamR, sigR)

	// Fold boundary and scattering retarded parts into the device operator.
	a.Diag[0].SubInPlace(sigL)
	a.Diag[n-1].SubInPlace(sigR)
	cmat.PutAll(sigL, sigR)
	for i, r := range scat.R {
		if r != nil {
			a.Diag[i].SubInPlace(r)
		}
	}

	var ret *Retarded
	if rank == nil {
		ret, err = SolveRetarded(a)
	} else if diag, derr := DistributedRetarded(rank, a); derr != nil || !closure {
		return nil, derr
	} else {
		// The diagonal is replicated on every rank; the Keldysh pass needs
		// the left-connected gL too.
		var gl []*cmat.Dense
		gl, err = forwardGL(a)
		ret = &Retarded{Diag: diag, gL: gl, a: a}
	}
	if err != nil {
		return nil, err
	}

	less := make([]*cmat.Dense, n)
	gtr := make([]*cmat.Dense, n)
	for i := 0; i < n; i++ {
		less[i] = cmat.GetDense(bs, bs)
		gtr[i] = cmat.GetDense(bs, bs)
		if scat.Less != nil && scat.Less[i] != nil {
			less[i].AddInPlace(scat.Less[i])
		}
		if scat.Gtr != nil && scat.Gtr[i] != nil {
			gtr[i].AddInPlace(scat.Gtr[i])
		}
	}
	less[0].AddScaledInPlace(complex(0, occL), gamL)
	gtr[0].AddScaledInPlace(complex(0, occL-1), gamL)
	less[n-1].AddScaledInPlace(complex(0, occR), gamR)
	gtr[n-1].AddScaledInPlace(complex(0, occR-1), gamR)

	res := &ElectronResult{GR: ret.Diag}
	res.GLess = ret.SolveKeldysh(less)
	res.GGtr = ret.SolveKeldysh(gtr)
	if trans != nil {
		*trans = ret.Transmission(gamL, gamR)
	}
	ret.releaseGL()
	cmat.PutAll(less...)
	cmat.PutAll(gtr...)

	// Contact trace terms via O(bs²) trace products.
	tL := gamL.TraceMul(res.GGtr[0])
	uL := gamL.TraceMul(res.GLess[0])
	res.CurrentL = real(complex(0, occL)*tL - complex(0, occL-1)*uL)
	tR := gamR.TraceMul(res.GGtr[n-1])
	uR := gamR.TraceMul(res.GLess[n-1])
	res.CurrentR = real(complex(0, occR)*tR - complex(0, occR-1)*uR)
	return res, nil
}

// SpectralPerAtom returns −Im diag(G^R)/π aggregated per atom (local density
// of states), given the per-block diagonal G^R and orbitals per atom.
func SpectralPerAtom(gr []*cmat.Dense, norb int) []float64 {
	var out []float64
	for _, g := range gr {
		atoms := g.Rows / norb
		for a := 0; a < atoms; a++ {
			var s float64
			for o := 0; o < norb; o++ {
				s -= imag(g.At(a*norb+o, a*norb+o))
			}
			out = append(out, s/3.141592653589793)
		}
	}
	return out
}
