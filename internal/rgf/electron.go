package rgf

import (
	"errors"
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
//
// Bound, when non-nil, is the point's boundary slot: an empty one is filled
// by the solve and kept, a filled one is reused (see Boundary). A nil Bound
// computes the boundary self-energies and releases them.
type Scattering struct {
	R, Less, Gtr []*cmat.Dense
	Bound        *Boundary
}

// Boundary holds one grid point's open-boundary self-energies Σ_L and Σ_R.
// The point solve computes them on the pristine operator A = (E+iη)·S − H
// (or (ω²+iη)·I − Φ), before any scattering self-energy is folded in, so
// they depend on the point, η and the lead blocks only — not on the Born
// iteration. A caller that solves the same point again keeps one Boundary
// per point and passes it in Scattering.Bound: the first solve fills it,
// later solves reuse it bit for bit. The zero value is empty. A filled
// Boundary is only read, so concurrent solves of its point may share it;
// the caller empties it (back to the zero value) when the operator or η
// changes.
type Boundary struct {
	SigL, SigR *cmat.Dense
}

// FillElectron fills an empty b with the boundary self-energies
// SolveElectron computes at the point (energy, eta) of (h, s), and leaves a
// filled b as it is. Every rank of a SolveElectronSpatial reads the one
// Boundary of its point, so the caller fills it before the ranks start.
func (b *Boundary) FillElectron(h, s *cmat.BlockTri, energy, eta float64) error {
	if b.SigL != nil {
		return nil
	}
	a, err := electronOperator(h, s, energy, eta)
	if err != nil {
		return err
	}
	defer cmat.PutBlockTri(a)
	_, _, err = b.selfEnergies(a)
	return err
}

// selfEnergies returns Σ_L/Σ_R of the pristine operator a. A filled b hands
// back its own pair; an empty b is filled with a copy it keeps; a nil b
// returns the arena-backed pair, which the caller releases. One
// rgf.boundary span is recorded per computed pair.
func (b *Boundary) selfEnergies(a *cmat.BlockTri) (sigL, sigR *cmat.Dense, err error) {
	if b != nil && b.SigL != nil {
		return b.SigL, b.SigR, nil
	}
	sp := obsSpanBoundary.Start()
	sigL, sigR, err = BoundarySelfEnergies(a, 1e-10)
	sp.End()
	if err != nil || b == nil {
		return sigL, sigR, err
	}
	// Keep exact-size copies: the arena rounds capacities up to a power of
	// two, and its buffers are better returned for the next solve.
	bs := sigL.Rows
	data := make([]complex128, 2*bs*bs)
	b.SigL = cmat.DenseFromSlice(bs, bs, data[:bs*bs])
	b.SigR = cmat.DenseFromSlice(bs, bs, data[bs*bs:])
	b.SigL.CopyFrom(sigL)
	b.SigR.CopyFrom(sigR)
	cmat.PutAll(sigL, sigR)
	return b.SigL, b.SigR, nil
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
// by Sancho-Rubio on the pristine operator, then one RGF sweep for G^R, G^<
// and G^> with the supplied scattering self-energies.
//
// The whole solve runs on workspace-arena buffers: the device operator is
// assembled once into a pooled block-tridiagonal matrix and mutated in place
// (no per-call Clone or Sub chains), and all intermediates are returned to
// the arena before the function exits. The result blocks are pooled too —
// call (*ElectronResult).Release once their contents have been consumed.
func SolveElectron(h, s *cmat.BlockTri, energy float64, scat Scattering, c Contacts, eta float64) (*ElectronResult, error) {
	return solveElectron(nil, h, s, energy, scat, c, eta, nil)
}

// SolveElectronSpatial is SolveElectron with the retarded solve partitioned
// across the ranks of a cluster (DistributedRetarded): every rank assembles
// the identical operator and participates in the spatial exchange. Rank 0
// then runs the Keldysh sweep, currents and dissipation on the replicated
// diagonal and returns the full result; the other ranks return (nil, nil)
// once the collective solve is done, so each point's result exists exactly
// once. A Bound in scat is shared by the ranks and must be filled
// (FillElectron) before they start.
func SolveElectronSpatial(r *comm.Rank, h, s *cmat.BlockTri, energy float64, scat Scattering, c Contacts, eta float64) (*ElectronResult, error) {
	return solveElectron(r, h, s, energy, scat, c, eta, nil)
}

// electronOperator assembles the pristine A = (E + iη)·S − H of an electron
// point into an arena-backed matrix, which the caller releases.
func electronOperator(h, s *cmat.BlockTri, energy, eta float64) (*cmat.BlockTri, error) {
	if h.N != s.N || h.Bs != s.Bs {
		return nil, fmt.Errorf("rgf: H and S shapes differ: (%d,%d) vs (%d,%d)", h.N, h.Bs, s.N, s.Bs)
	}
	a := cmat.GetBlockTri(h.N, h.Bs)
	h.ShiftDiagInto(a, complex(energy, eta), s)
	return a, nil
}

func solveElectron(rank *comm.Rank, h, s *cmat.BlockTri, energy float64, scat Scattering, c Contacts, eta float64, trans *float64) (*ElectronResult, error) {
	sp := obsSpanElectron.Start()
	defer sp.End()
	n := h.N
	// A = (E + iη)·S − H, before scattering: the leads are ballistic.
	a, err := electronOperator(h, s, energy, eta)
	if err != nil {
		return nil, err
	}
	defer cmat.PutBlockTri(a)
	res, err := solveOpen(rank, a, scat, FermiDirac(energy, c.MuL, c.KT), FermiDirac(energy, c.MuR, c.KT), trans)
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
// takes the boundary self-energies Σ_L/Σ_R (reused from a filled scat.Bound,
// else computed) and their broadenings Γ, folds Σ_L, Σ_R and scat.R into a,
// and runs one sweep for G^R, G^< and G^> with the contact blocks
// Σ^< = i·occ·Γ and Σ^> = i·(occ−1)·Γ. occ is
// the Fermi occupation for electrons and −N for phonons, where the same two
// lines give Π^< = −i·N·Γ and Π^> = −i·(N+1)·Γ exactly (IEEE negation is
// exact). CurrentL/CurrentR receive the contact trace terms
// Tr[Σ^<_c·G^> − Σ^>_c·G^<]; DissipationPerBlock is left to the caller.
//
// With rank nil the sweep builds G^R too. Otherwise G^R is the collective
// DistributedRetarded's, after which rank 0 rebuilds gL locally and sweeps
// the two Keldysh sets on the known diagonal, and the other ranks return
// (nil, nil). A non-nil trans receives the Caroli transmission of
// the same retarded solve.
func solveOpen(rank *comm.Rank, a *cmat.BlockTri, scat Scattering, occL, occR float64, trans *float64) (*ElectronResult, error) {
	n, bs := a.N, a.Bs
	if rank != nil && scat.Bound != nil && scat.Bound.SigL == nil {
		// Every rank would fill the one shared slot at once.
		return nil, errors.New("rgf: a spatial solve needs its Boundary filled before the ranks start")
	}
	sigL, sigR, err := scat.Bound.selfEnergies(a)
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
	if scat.Bound == nil {
		cmat.PutAll(sigL, sigR)
	}
	for i, r := range scat.R {
		if r != nil {
			a.Diag[i].SubInPlace(r)
		}
	}

	var diag []*cmat.Dense
	if rank != nil {
		// The collective solve replicates the diagonal on every rank; rank 0
		// goes on to the Keldysh sets on it.
		if diag, err = DistributedRetarded(rank, a); err != nil || rank.ID != 0 {
			return nil, err
		}
	}
	ret, err := newRetarded(a, diag)
	if err != nil {
		return nil, err
	}

	// The sweep only reads its Keldysh sets, so they take the caller's
	// scattering blocks as they are, one shared zero block where there is
	// none, and private copies (0 + Σ, as a zeroed block gains them) of the
	// two corner blocks, which gain the contact terms.
	zero := cmat.GetDense(bs, bs)
	less, gtr := make([]*cmat.Dense, n), make([]*cmat.Dense, n)
	for i := range less {
		less[i], gtr[i] = zero, zero
		if scat.Less != nil && scat.Less[i] != nil {
			less[i] = scat.Less[i]
		}
		if scat.Gtr != nil && scat.Gtr[i] != nil {
			gtr[i] = scat.Gtr[i]
		}
	}
	private := func(b *cmat.Dense) *cmat.Dense {
		c := cmat.GetDense(bs, bs)
		c.AddInPlace(b)
		return c
	}
	less[0], gtr[0] = private(less[0]), private(gtr[0])
	if n > 1 {
		less[n-1], gtr[n-1] = private(less[n-1]), private(gtr[n-1])
	}
	less[0].AddScaledInPlace(complex(0, occL), gamL)
	gtr[0].AddScaledInPlace(complex(0, occL-1), gamL)
	less[n-1].AddScaledInPlace(complex(0, occR), gamR)
	gtr[n-1].AddScaledInPlace(complex(0, occR-1), gamR)

	g := ret.sweep(less, gtr)
	cmat.PutAll(zero, less[0], gtr[0])
	if n > 1 {
		cmat.PutAll(less[n-1], gtr[n-1])
	}
	res := &ElectronResult{GR: ret.Diag, GLess: g[:n:n], GGtr: g[n:]}
	if trans != nil {
		*trans = ret.Transmission(gamL, gamR)
	}
	ret.releaseGL()

	// Contact trace terms via O(bs²) trace products.
	tL := gamL.TraceMul(res.GGtr[0])
	uL := gamL.TraceMul(res.GLess[0])
	res.CurrentL = real(complex(0, occL)*tL - complex(0, occL-1)*uL)
	tR := gamR.TraceMul(res.GGtr[n-1])
	uR := gamR.TraceMul(res.GLess[n-1])
	res.CurrentR = real(complex(0, occR)*tR - complex(0, occR-1)*uR)
	return res, nil
}
