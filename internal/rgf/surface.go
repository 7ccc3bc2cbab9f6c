// Package rgf implements the recursive Green's function algorithm of
// Svizhenko et al. used by the GF phase of the paper (§2): one forward and
// one backward sweep over the bnum blocks of the block-tridiagonal system
//
//	(E·S(kz) − H(kz) − Σ^R(E,kz)) · G^R = I,
//	G^≷ = G^R · Σ^≷ · G^A,
//
// giving G^R, G^< and G^> of a grid point together, with open-boundary
// self-energies computed by Sancho-Rubio decimation (the numerical stand-in
// for OMEN's contour-integral boundary solver — both produce the contact
// self-energy Σ^RB; see DESIGN.md), and the analogous phonon system
// (ω²·I − Φ(qz) − Π^R)·D^R = I.
package rgf

import (
	"errors"
	"fmt"

	"negfsim/internal/cmat"
)

// surfaceGFMaxIter bounds the Sancho-Rubio decimation. Convergence is
// quadratic away from band edges but degrades to roughly one bit per
// doubling at the band center when the broadening η is tiny, so the cap is
// generous; each iteration is cheap (a handful of block operations).
const surfaceGFMaxIter = 400

// ErrNoConvergence is returned when the boundary decimation stalls.
var ErrNoConvergence = errors.New("rgf: surface Green's function did not converge")

// SurfaceGF computes the surface (edge-cell) retarded Green's function of a
// semi-infinite periodic chain with onsite inverse-GF block a00 and
// inter-cell couplings a01 (towards the bulk) and a10 (back), using
// Sancho-Rubio decimation: g = (a00 − a01·g·a10)⁻¹.
func SurfaceGF(a00, a01, a10 *cmat.Dense, tol float64) (*cmat.Dense, error) {
	dst := cmat.NewDense(a00.Rows, a00.Cols)
	if err := surfaceGFInto(dst, a00, a01, a10, supportOf(a01), supportOf(a10), tol); err != nil {
		return nil, err
	}
	return dst, nil
}

// surfaceGFInto is SurfaceGF with the result written into dst, all
// iteration scratch drawn from (and returned to) the workspace arena, and
// the couplings' supports s01 and s10 given. The decimated couplings
// α' = α·g·α and β' = β·g·β keep α's and β's rows and columns, so every
// product of every step runs over those supports.
func surfaceGFInto(dst, a00, a01, a10 *cmat.Dense, s01, s10 cmat.Support, tol float64) error {
	bs := a00.Rows
	epsS := cmat.GetDenseNoZero(bs, bs)
	eps := cmat.GetDenseNoZero(bs, bs)
	alpha := cmat.GetDenseNoZero(bs, bs)
	beta := cmat.GetDenseNoZero(bs, bs)
	g := cmat.GetDenseNoZero(bs, bs)
	ag := cmat.GetDenseNoZero(bs, bs)
	bg := cmat.GetDenseNoZero(bs, bs)
	t := cmat.GetDenseNoZero(bs, bs)
	defer cmat.PutAll(epsS, eps, alpha, beta, g, ag, bg, t)
	epsS.CopyFrom(a00)
	eps.CopyFrom(a00)
	alpha.CopyFrom(a01)
	beta.CopyFrom(a10)
	ra, ca, rb, cb := s01.Rows, s01.Cols, s10.Rows, s10.Cols
	for iter := 0; iter < surfaceGFMaxIter; iter++ {
		if err := cmat.InverseInto(g, eps); err != nil {
			return fmt.Errorf("rgf: decimation step %d: %w", iter, err)
		}
		alpha.MulSpanInto(ag, g, cmat.Span{Rows: ra, Inner: ca})          // α·g
		beta.MulSpanInto(bg, g, cmat.Span{Rows: rb, Inner: cb})           // β·g
		ag.MulSpanInto(t, beta, cmat.Span{Rows: ra, Inner: rb, Cols: cb}) // α·g·β
		epsS.SubInPlace(t)
		eps.SubInPlace(t)
		bg.MulSpanInto(t, alpha, cmat.Span{Rows: rb, Inner: ra, Cols: ca}) // β·g·α
		eps.SubInPlace(t)
		ag.MulSpanInto(t, alpha, cmat.Span{Rows: ra, Inner: ra, Cols: ca}) // α' = α·g·α
		alpha.CopyFrom(t)
		bg.MulSpanInto(t, beta, cmat.Span{Rows: rb, Inner: rb, Cols: cb}) // β' = β·g·β
		beta.CopyFrom(t)
		// Converged when the remaining couplings can no longer move ε_s:
		// the next correction is bounded by ‖α‖·‖g‖·‖β‖.
		if alpha.FrobNorm()*g.FrobNorm()*beta.FrobNorm() < tol*(1+epsS.FrobNorm()) {
			return cmat.InverseInto(dst, epsS)
		}
	}
	return ErrNoConvergence
}

// BoundarySelfEnergies returns the retarded contact self-energies (Σ_L, Σ_R)
// for the open system described by the inverse-GF operator A = E·S − H (or
// ω²·I − Φ): the left lead repeats A's first block, the right lead its last.
// Σ_L is added to block 0 and Σ_R to block N−1 of the device.
func BoundarySelfEnergies(a *cmat.BlockTri, tol float64) (sigL, sigR *cmat.Dense, err error) {
	if a.N < 2 {
		return nil, nil, errors.New("rgf: boundary self-energies need at least 2 blocks")
	}
	sup := couplingsOf(a)
	defer sup.release()
	bs := a.Bs
	g := cmat.GetDenseNoZero(bs, bs)
	t := cmat.GetDenseNoZero(bs, bs)
	defer cmat.PutAll(g, t)
	// Left lead grows to the left: from the surface cell, the coupling
	// deeper into the lead is A10-like (towards smaller indices).
	lo, up := sup.lower[0], sup.upper[0]
	if err := surfaceGFInto(g, a.Diag[0], a.Lower[0], a.Upper[0], lo, up, tol); err != nil {
		return nil, nil, fmt.Errorf("rgf: left contact: %w", err)
	}
	// Σ_L = A(0,-1)·g_L·A(-1,0) with A(0,-1) ≡ A10 pattern, A(-1,0) ≡ A01.
	// The returned matrices are arena-backed; hot callers PutDense them.
	sigL = cmat.GetDenseNoZero(bs, bs)
	a.Lower[0].MulSpanInto(t, g, cmat.Span{Rows: lo.Rows, Inner: lo.Cols})
	t.MulSpanInto(sigL, a.Upper[0], cmat.Span{Rows: lo.Rows, Inner: up.Rows, Cols: up.Cols})

	n := a.N
	lo, up = sup.lower[n-2], sup.upper[n-2]
	if err := surfaceGFInto(g, a.Diag[n-1], a.Upper[n-2], a.Lower[n-2], up, lo, tol); err != nil {
		cmat.PutDense(sigL)
		return nil, nil, fmt.Errorf("rgf: right contact: %w", err)
	}
	sigR = cmat.GetDenseNoZero(bs, bs)
	a.Upper[n-2].MulSpanInto(t, g, cmat.Span{Rows: up.Rows, Inner: up.Cols})
	t.MulSpanInto(sigR, a.Lower[n-2], cmat.Span{Rows: up.Rows, Inner: lo.Rows, Cols: lo.Cols})
	return sigL, sigR, nil
}

// Broadening returns Γ = i(Σ − Σ^H), the contact broadening matrix of a
// retarded boundary self-energy.
func Broadening(sigma *cmat.Dense) *cmat.Dense {
	out := cmat.NewDense(sigma.Rows, sigma.Cols)
	broadeningInto(out, sigma)
	return out
}

// broadeningInto computes dst = i(σ − σ^H) in a single pass with no
// intermediates.
func broadeningInto(dst, sigma *cmat.Dense) {
	n := sigma.Rows
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := sigma.Data[i*n+j]
			sh := sigma.Data[j*n+i]
			dst.Data[i*n+j] = 1i * (s - complex(real(sh), -imag(sh)))
		}
	}
}
