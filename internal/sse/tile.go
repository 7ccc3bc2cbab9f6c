package sse

import (
	"negfsim/internal/cmat"
	"negfsim/internal/tensor"
)

// Tile kernels: the communication-avoiding decomposition (§4.1) assigns
// each process an energy window × atom tile of the SSE output. These
// kernels compute exactly that tile, touching only the halo region of the
// inputs — energies [eLo−Nω, eHi) for Σ (the E−ℏω window), [eLo, eHi+Nω)
// for Π (the E+ℏω window), and the f(a, b) neighbor halo of the atom tile.
// The union of all tiles reproduces the full kernels exactly (tested), and
// the input footprint is the (NE/TE + 2Nω)·(NA/TA + NB) factor of the
// communication model.
//
// sigmaTile and piTile are the one DaCe body per self-energy. Every DaCe
// execution runs them: the serial kernels as one tile over the whole grid,
// ComputePhaseParallel as atom tiles writing in place into one shared
// output, and a distributed rank as its TE×TA tile. A tile writes only its
// own atoms' output blocks, so tiles over disjoint atoms never write the
// same element and need no lock. Likewise a tile counts its flops into a
// local cmat.Tally and publishes it to cmat.Counter once, on return, so
// concurrent tiles share no cache line per block product.

// SigmaDaCeTile computes Σ^≷[kz, E, a] for E ∈ [eLo, eHi) and a ∈ [aLo,
// aHi) with the DaCe-transformed kernel. The output tensor is full-size
// with zeros outside the tile. g must hold valid data for energies
// [max(0, eLo−Nω), eHi) and for the tile's atoms plus their neighbors.
func (k *Kernel) SigmaDaCeTile(g *tensor.GTensor, d *PreD, eLo, eHi, aLo, aHi int) *tensor.GTensor {
	sigma := k.newSigma()
	k.sigmaTile(sigma, g, d, eLo, eHi, aLo, aHi)
	return sigma
}

// PiDaCeTile computes the Π^≷ contributions of the trace terms whose
// unshifted energy E lies in [eLo, eHi) and whose atom a lies in [aLo,
// aHi). Because the (E, a) pairs partition across tiles, summing the
// returned tensors over all tiles reproduces PiDaCe exactly. g≷ must hold
// valid data for energies [eLo, eHi+Nω) and the tile's atoms plus halo.
func (k *Kernel) PiDaCeTile(gLess, gGtr *tensor.GTensor, eLo, eHi, aLo, aHi int) (piLess, piGtr *tensor.DTensor) {
	piLess, piGtr = k.newPi(), k.newPi()
	k.piTile(piLess, piGtr, gLess, gGtr, eLo, eHi, aLo, aHi)
	return piLess, piGtr
}

// sigmaTile accumulates the Σ^≷ tile E ∈ [eLo, eHi), a ∈ [aLo, aHi) of
// Eq. (3) into dst, writing only the tile's (kz, E, a) blocks. The stages
// are those of SigmaDaCe's Figs. 9–12 walk-through.
func (k *Kernel) sigmaTile(dst, g *tensor.GTensor, d *PreD, eLo, eHi, aLo, aHi int) {
	p := k.Dev.P
	pref := k.sigmaPref()
	am := g.ToAtomMajor() // Fig. 10(c): the data-layout transformation.
	no := p.Norb
	var flops cmat.Tally
	defer flops.Publish()

	// Reusable per-bond transients (Fig. 12: three-dimensional, per (a,b)),
	// all drawn from the workspace arena.
	dHG := make([]*cmat.Dense, p.N3D)
	for i := range dHG {
		dHG[i] = cmat.GetDense(p.Nkz*p.NE*no, no)
	}
	dHD := make([][]*cmat.Dense, p.N3D) // [i][qz]: (Nω·Norb) × Norb stacks
	for i := range dHD {
		dHD[i] = make([]*cmat.Dense, p.Nqz)
		for qz := range dHD[i] {
			dHD[i][qz] = cmat.GetDense(p.Nw*no, no)
		}
	}

	var rowBlock, out, vb, cb cmat.Dense // reusable view headers
	for a := aLo; a < aHi; a++ {
		for b := 0; b < p.NB; b++ {
			f := k.Dev.Neigh[a][b]
			if f < 0 {
				continue
			}
			// Stage 1 (Fig. 10d): one fused GEMM per direction.
			for i := 0; i < p.N3D; i++ {
				am.Atom[f].MulIntoTally(dHG[i], k.dH[a][b][i], &flops)
			}
			// Stage 2: ∇H·D^≷ with the j reduction folded in; the ω blocks
			// are stacked ascending-energy (descending ω) so stage 3 can
			// consume a contiguous window. The prefactor is folded in here.
			for i := 0; i < p.N3D; i++ {
				for qz := 0; qz < p.Nqz; qz++ {
					stack := dHD[i][qz]
					stack.Zero()
					for w := 0; w < p.Nw; w++ {
						cmat.ViewInto(&rowBlock, no, no,
							stack.Data[(p.Nw-1-w)*no*no:(p.Nw-w)*no*no])
						for j := 0; j < p.N3D; j++ {
							rowBlock.AddScaledInPlace(pref*d.At(qz, w, a, b, i, j), k.dH[a][b][j])
						}
					}
				}
			}
			// Stage 3 (Fig. 11c): windowed fused accumulation over ω.
			for i := 0; i < p.N3D; i++ {
				for qz := 0; qz < p.Nqz; qz++ {
					stack := dHD[i][qz]
					for kz := 0; kz < p.Nkz; kz++ {
						k2 := wrapK(kz, qz, p.Nkz)
						base := k2 * p.NE
						for e := max(eLo, 1); e < eHi; e++ {
							smax := min(p.Nw, e)
							dst.BlockInto(&out, kz, e, a)
							// Slab of ∇H·G^≷ at energies e−smax … e−1 and
							// the matching ∇H·D^≷ window (shift s = e−e').
							vlo := (base + e - smax) * no
							for t := 0; t < smax; t++ {
								cmat.ViewInto(&vb, no, no, dHG[i].Data[(vlo+t*no)*no:(vlo+(t+1)*no)*no])
								cmat.ViewInto(&cb, no, no, stack.Data[((p.Nw-smax)+t)*no*no:((p.Nw-smax)+t+1)*no*no])
								vb.MulAddIntoTally(&out, &cb, &flops)
							}
						}
					}
				}
			}
		}
	}
	cmat.PutAll(dHG...)
	for i := range dHD {
		cmat.PutAll(dHD[i]...)
	}
}

// piTile accumulates into dstL, dstG the Π^≷ trace terms of Eqs. (4)–(5)
// whose unshifted energy E lies in [eLo, eHi) and whose atom a lies in
// [aLo, aHi); each lands in a's own (a, b) and (a, a) slots. Per bond,
// U_i = ∇iH_ba·G^≷_aa is formed once on exactly the shifted window the
// trace sweep reads, [eLo+PhononShift(0), min(NE, eHi+PhononShift(Nω−1))),
// and W_j = ∇jH_ab·G^≶_bb once on [eLo, eHi); the (qz, ω) sweep then
// reduces to Norb² trace contractions.
func (k *Kernel) piTile(dstL, dstG *tensor.DTensor, gLess, gGtr *tensor.GTensor, eLo, eHi, aLo, aHi int) {
	if eLo >= eHi {
		return
	}
	var flops cmat.Tally
	defer flops.Publish()
	p := k.Dev.P
	pref := complex(0, k.piPref())
	uLo, uHi := eLo+p.PhononShift(0), min(p.NE, eHi+p.PhononShift(p.Nw-1))
	nu, nw := max(0, uHi-uLo), eHi-eLo
	// Per-bond transients from the arena, reused across bonds and indexed
	// kz·n + (E − lo) over their energy window.
	no := p.Norb
	alloc := func(n int) [][]*cmat.Dense {
		m := make([][]*cmat.Dense, p.N3D)
		for i := range m {
			m[i] = make([]*cmat.Dense, p.Nkz*n)
			for s := range m[i] {
				m[i][s] = cmat.GetDense(no, no)
			}
		}
		return m
	}
	uLess, uGtr, wLess, wGtr := alloc(nu), alloc(nu), alloc(nw), alloc(nw)
	var gvL, gvG cmat.Dense // reusable block-view headers
	for a := aLo; a < aHi; a++ {
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
				for e := uLo; e < uHi; e++ {
					idx := kz*nu + e - uLo
					gLess.BlockInto(&gvL, kz, e, a)
					gGtr.BlockInto(&gvG, kz, e, a)
					for i := 0; i < p.N3D; i++ {
						k.dH[f][r][i].MulIntoTally(uLess[i][idx], &gvL, &flops)
						k.dH[f][r][i].MulIntoTally(uGtr[i][idx], &gvG, &flops)
					}
				}
				for e := eLo; e < eHi; e++ {
					idx := kz*nw + e - eLo
					gLess.BlockInto(&gvL, kz, e, f)
					gGtr.BlockInto(&gvG, kz, e, f)
					for i := 0; i < p.N3D; i++ {
						k.dH[a][b][i].MulIntoTally(wLess[i][idx], &gvL, &flops)
						k.dH[a][b][i].MulIntoTally(wGtr[i][idx], &gvG, &flops)
					}
				}
			}
			for qz := 0; qz < p.Nqz; qz++ {
				for w := 0; w < p.Nw; w++ {
					shift := p.PhononShift(w)
					for kz := 0; kz < p.Nkz; kz++ {
						k2 := wrapK(kz, -qz, p.Nkz)
						for e := eLo; e < eHi && e+shift < p.NE; e++ {
							su := k2*nu + e + shift - uLo
							sw := kz*nw + e - eLo
							for i := 0; i < p.N3D; i++ {
								for j := 0; j < p.N3D; j++ {
									piAccumulate(dstL, qz, w, a, b, i, j, p.NB, pref*uLess[i][su].TraceMulTally(wGtr[j][sw], &flops))
									piAccumulate(dstG, qz, w, a, b, i, j, p.NB, pref*uGtr[i][su].TraceMulTally(wLess[j][sw], &flops))
								}
							}
						}
					}
				}
			}
		}
	}
	for _, m := range [][][]*cmat.Dense{uLess, uGtr, wLess, wGtr} {
		for i := range m {
			cmat.PutAll(m[i]...)
		}
	}
}
