package sse

import (
	"negfsim/internal/cmat"
	"negfsim/internal/tensor"
)

// piAccumulate adds one bond's trace contribution to the phonon self-energy
// tensors: Eq. (5) fills the off-diagonal (a, b) slot with +i·pref·tr{…},
// Eq. (4) accumulates −i·pref·tr{…} into the diagonal (a, a) slot.
func piAccumulate(pi *tensor.DTensor, qz, w, a, slot, i, j, nb int, val complex128) {
	pi.AddAt(qz, w, a, slot, i, j, val)
	pi.AddAt(qz, w, a, nb, i, j, -val)
}

// PiReference evaluates Eqs. (4)–(5) with the naive dataflow: the trace
// tr{∇iH_ba · G^≷_aa(E+ℏω, kz+qz) · ∇jH_ab · G^≶_bb(E, kz)} recomputed from
// scratch — two fresh Norb³ products per (qz, ω, kz, E, i, j, a, b) point.
func (k *Kernel) PiReference(gLess, gGtr *tensor.GTensor) (piLess, piGtr *tensor.DTensor) {
	p := k.Dev.P
	pref := complex(0, k.piPref())
	piLess = tensor.NewDTensor(p.Nqz, p.Nw, p.NA, p.NB, p.N3D)
	piGtr = tensor.NewDTensor(p.Nqz, p.Nw, p.NA, p.NB, p.N3D)
	for qz := 0; qz < p.Nqz; qz++ {
		for w := 0; w < p.Nw; w++ {
			for a := 0; a < p.NA; a++ {
				for b := 0; b < p.NB; b++ {
					f := k.Dev.Neigh[a][b]
					if f < 0 {
						continue
					}
					r := k.Dev.NeighborSlot(f, a)
					if r < 0 {
						continue
					}
					for kz := 0; kz < p.Nkz; kz++ {
						k2 := wrapK(kz, -qz, p.Nkz) // kz + qz, wrapped
						for e := 0; e < p.NE; e++ {
							e2 := e + p.PhononShift(w)
							if e2 >= p.NE {
								continue
							}
							for i := 0; i < p.N3D; i++ {
								for j := 0; j < p.N3D; j++ {
									uLess := k.dH[f][r][i].Mul(gLess.Block(k2, e2, a))
									uGtr := k.dH[f][r][i].Mul(gGtr.Block(k2, e2, a))
									wLess := k.dH[a][b][j].Mul(gLess.Block(kz, e, f))
									wGtr := k.dH[a][b][j].Mul(gGtr.Block(kz, e, f))
									piAccumulate(piLess, qz, w, a, b, i, j, p.NB, pref*uLess.TraceMul(wGtr))
									piAccumulate(piGtr, qz, w, a, b, i, j, p.NB, pref*uGtr.TraceMul(wLess))
								}
							}
						}
					}
				}
			}
		}
	}
	return piLess, piGtr
}

// PiOMEN evaluates Eqs. (4)–(5) with the original code's structure: the two
// matrix products are hoisted out of the opposite direction loop (U_i out of
// j, W_j out of i), but both are still recomputed for every (qz, ω) round of
// the communication scheme.
func (k *Kernel) PiOMEN(gLess, gGtr *tensor.GTensor) (piLess, piGtr *tensor.DTensor) {
	p := k.Dev.P
	pref := complex(0, k.piPref())
	piLess = tensor.NewDTensor(p.Nqz, p.Nw, p.NA, p.NB, p.N3D)
	piGtr = tensor.NewDTensor(p.Nqz, p.Nw, p.NA, p.NB, p.N3D)
	no := p.Norb
	// Arena-backed per-point transients, reused across the whole sweep.
	uLess := make([]*cmat.Dense, p.N3D)
	uGtr := make([]*cmat.Dense, p.N3D)
	wLess := make([]*cmat.Dense, p.N3D)
	wGtr := make([]*cmat.Dense, p.N3D)
	for i := 0; i < p.N3D; i++ {
		uLess[i] = cmat.GetDense(no, no)
		uGtr[i] = cmat.GetDense(no, no)
		wLess[i] = cmat.GetDense(no, no)
		wGtr[i] = cmat.GetDense(no, no)
	}
	var gvL, gvG cmat.Dense // reusable block-view headers
	for qz := 0; qz < p.Nqz; qz++ {
		for w := 0; w < p.Nw; w++ {
			for a := 0; a < p.NA; a++ {
				for b := 0; b < p.NB; b++ {
					f := k.Dev.Neigh[a][b]
					if f < 0 {
						continue
					}
					r := k.Dev.NeighborSlot(f, a)
					if r < 0 {
						continue
					}
					for kz := 0; kz < p.Nkz; kz++ {
						k2 := wrapK(kz, -qz, p.Nkz)
						for e := 0; e < p.NE; e++ {
							e2 := e + p.PhononShift(w)
							if e2 >= p.NE {
								continue
							}
							gLess.BlockInto(&gvL, k2, e2, a)
							gGtr.BlockInto(&gvG, k2, e2, a)
							for i := 0; i < p.N3D; i++ {
								k.dH[f][r][i].MulInto(uLess[i], &gvL)
								k.dH[f][r][i].MulInto(uGtr[i], &gvG)
							}
							gLess.BlockInto(&gvL, kz, e, f)
							gGtr.BlockInto(&gvG, kz, e, f)
							for j := 0; j < p.N3D; j++ {
								k.dH[a][b][j].MulInto(wLess[j], &gvL)
								k.dH[a][b][j].MulInto(wGtr[j], &gvG)
							}
							for i := 0; i < p.N3D; i++ {
								for j := 0; j < p.N3D; j++ {
									piAccumulate(piLess, qz, w, a, b, i, j, p.NB, pref*uLess[i].TraceMul(wGtr[j]))
									piAccumulate(piGtr, qz, w, a, b, i, j, p.NB, pref*uGtr[i].TraceMul(wLess[j]))
								}
							}
						}
					}
				}
			}
		}
	}
	for i := 0; i < p.N3D; i++ {
		cmat.PutAll(uLess[i], uGtr[i], wLess[i], wGtr[i])
	}
	return piLess, piGtr
}

// PiDaCe evaluates Eqs. (4)–(5) with the data-centric transformation: the
// products U_i = ∇iH_ba·G^≷_aa and W_j = ∇jH_ab·G^≶_bb depend only on the
// unshifted (kz, E) grid, so they are computed ONCE per bond — outside the
// (qz, ω) loops — and the (qz, ω) sweep reduces to Norb² trace contractions.
// This is the same redundancy-removal step as Fig. 10(b) applied to Π. It
// is the one-tile case of the tile kernel, covering the whole grid.
func (k *Kernel) PiDaCe(gLess, gGtr *tensor.GTensor) (piLess, piGtr *tensor.DTensor) {
	return k.PiDaCeTile(gLess, gGtr, 0, k.Dev.P.NE, 0, k.Dev.P.NA)
}
