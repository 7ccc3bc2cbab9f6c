package rgf

import "negfsim/internal/cmat"

// CornerBlock returns G^R[N−1, 0], the corner block of the retarded Green's
// function connecting the two contacts, via the standard product form
//
//	G^R[N−1, 0] = G^R[N−1, N−1] · ∏_{m=N−1..1} (−A[m, m−1]·gL[m−1]).
func (r *Retarded) CornerBlock() *cmat.Dense {
	n := r.a.N
	out := r.Diag[n-1].Clone()
	for m := n - 1; m >= 1; m-- {
		out = out.Mul(r.a.Lower[m-1]).Mul(r.gL[m-1]).Scale(-1)
	}
	return out
}

// Transmission computes the Caroli transmission function at one energy:
//
//	T(E) = Tr[Γ_R · G^R[N−1,0] · Γ_L · (G^R[N−1,0])^H],
//
// the coherent-transport observable of Landauer theory. gamL/gamR are the
// contact broadenings of the operator A used to build r (with the boundary
// self-energies already folded into its corner blocks).
func (r *Retarded) Transmission(gamL, gamR *cmat.Dense) float64 {
	g := r.CornerBlock()
	t := gamR.Mul(g).Mul(gamL).Mul(g.ConjTranspose()).Trace()
	return real(t)
}

// SolveElectronBallistic solves one (E, kz) point without scattering and
// additionally returns the transmission function of the same retarded solve
// — used to cross-validate the Meir-Wingreen current against the Landauer
// picture: I(E) = T(E)·(f_L − f_R) must equal the contact current
// (TestPerfectChainUnitTransmission, TestChainWithBarrierAnalytic).
func SolveElectronBallistic(h, s *cmat.BlockTri, energy float64, c Contacts, eta float64) (*ElectronResult, float64, error) {
	var trans float64
	res, err := solveElectron(nil, true, h, s, energy, Scattering{}, c, eta, &trans)
	return res, trans, err
}
