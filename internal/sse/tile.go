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
// concurrent tiles share no cache line.
//
// The hot loops are fused: Π's trace sweep and Σ's windowed accumulation
// contract each output element in a register over a contiguous panel
// instead of calling a cmat kernel per Norb×Norb block. The contract is
// bit-identity: every element receives its floating-point additions in the
// order of the unfused block-by-block loop nest, so the outputs, the flop
// counts and every result downstream are unchanged by the fusion
// (TestTileKernelsMatchReferenceOrderBitwise keeps that loop nest as the
// reference).

// SigmaDaCeTile computes Σ^≷[kz, E, a] for E ∈ [eLo, eHi) and a ∈ [aLo,
// aHi) with the DaCe-transformed kernel. The output tensor is full-size
// with zeros outside the tile. g must hold valid data for energies
// [max(0, eLo−Nω), eHi) and for the tile's atoms plus their neighbors.
func (k *Kernel) SigmaDaCeTile(g *tensor.GTensor, d *PreD, eLo, eHi, aLo, aHi int) *tensor.GTensor {
	return k.SigmaDaCeTileInto(k.newSigma(), g.ToAtomMajor(), d, eLo, eHi, aLo, aHi)
}

// SigmaDaCeTileInto is SigmaDaCeTile into caller-kept storage: it zeroes
// the full-size dst, computes the tile into it and returns dst. am is G^≷
// already in the atom-major layout (GTensor.ToAtomMajorInto), so a caller
// that keeps dst and am across phases allocates nothing here.
func (k *Kernel) SigmaDaCeTileInto(dst *tensor.GTensor, am *tensor.AtomMajor, d *PreD, eLo, eHi, aLo, aHi int) *tensor.GTensor {
	dst.Zero()
	k.sigmaTile(dst, am, d, eLo, eHi, aLo, aHi)
	return dst
}

// PiDaCeTile computes the Π^≷ contributions of the trace terms whose
// unshifted energy E lies in [eLo, eHi) and whose atom a lies in [aLo,
// aHi). Because the (E, a) pairs partition across tiles, summing the
// returned tensors over all tiles reproduces PiDaCe exactly. g≷ must hold
// valid data for energies [eLo, eHi+Nω) and the tile's atoms plus halo.
func (k *Kernel) PiDaCeTile(gLess, gGtr *tensor.GTensor, eLo, eHi, aLo, aHi int) (piLess, piGtr *tensor.DTensor) {
	return k.PiDaCeTileInto(k.newPi(), k.newPi(), gLess, gGtr, eLo, eHi, aLo, aHi)
}

// PiDaCeTileInto is PiDaCeTile into caller-kept storage: it zeroes the
// full-size dstL, dstG, accumulates the tile's contributions into them and
// returns them.
func (k *Kernel) PiDaCeTileInto(dstL, dstG *tensor.DTensor, gLess, gGtr *tensor.GTensor, eLo, eHi, aLo, aHi int) (piLess, piGtr *tensor.DTensor) {
	dstL.Zero()
	dstG.Zero()
	k.piTile(dstL, dstG, gLess, gGtr, eLo, eHi, aLo, aHi)
	return dstL, dstG
}

// sigmaTile accumulates the Σ^≷ tile E ∈ [eLo, eHi), a ∈ [aLo, aHi) of
// Eq. (3) into dst, writing only the tile's (kz, E, a) blocks. am is G^≷
// after the data-layout transformation of Fig. 10(c), which the caller
// performs once per tensor and phase, not once per tile. The stages are
// those of SigmaDaCe's Figs. 9–12 walk-through.
func (k *Kernel) sigmaTile(dst *tensor.GTensor, am *tensor.AtomMajor, d *PreD, eLo, eHi, aLo, aHi int) {
	p := k.Dev.P
	pref := k.sigmaPref()
	no, n2 := p.Norb, p.Norb*p.Norb
	blockFlops := cmat.Tally(8 * no * n2)
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

	var rowBlock cmat.Dense // reusable view header
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
							stack.Data[(p.Nw-1-w)*n2:(p.Nw-w)*n2])
						for j := 0; j < p.N3D; j++ {
							rowBlock.AddScaledInPlace(pref*d.At(qz, w, a, b, i, j), k.dH[a][b][j])
						}
					}
				}
			}
			// Stage 3 (Fig. 11c): windowed fused accumulation over ω. For
			// each output element the smax products of the window are one
			// in-register contraction over (t, k), in the order smax
			// MulAddInto calls of the Norb×Norb blocks would add them
			// (cmat's naive i-k-j kernel, zero skip on the left operand).
			for i := 0; i < p.N3D; i++ {
				hg := dHG[i].Data
				for qz := 0; qz < p.Nqz; qz++ {
					stack := dHD[i][qz].Data
					for kz := 0; kz < p.Nkz; kz++ {
						base := wrapK(kz, qz, p.Nkz) * p.NE
						for e := max(eLo, 1); e < eHi; e++ {
							smax := min(p.Nw, e)
							o := ((kz*p.NE+e)*p.NA + a) * n2 // dst's (kz, e, a) block
							out := dst.Data[o : o+n2]
							// Slab of ∇H·G^≷ at energies e−smax … e−1 and
							// the matching ∇H·D^≷ window (shift s = e−e').
							vs := hg[(base+e-smax)*n2 : (base+e)*n2]
							cs := stack[(p.Nw-smax)*n2 : p.Nw*n2]
							for r := 0; r < no; r++ {
								for c := 0; c < no; c++ {
									acc := out[r*no+c]
									for t := 0; t < len(vs); t += n2 {
										for kk, x := range vs[t+r*no : t+r*no+no] {
											if x == 0 {
												continue
											}
											acc += x * cs[t+kk*no+c]
										}
									}
									out[r*no+c] = acc
								}
							}
							flops += blockFlops * cmat.Tally(smax)
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
// and W_j = ∇jH_ab·G^≶_bb once on [eLo, eHi), stored transposed, so that
// tr(U_i·W_j) is an element-wise product over Norb² contiguous entries.
//
// The sweep runs (qz, ω, i, j) outside (kz, E): each output element of the
// off-diagonal (a, b) and diagonal (a, a) slots of Π^< and Π^> is loaded
// once, receives every (kz, E) term in a register and is stored once. A
// term is still pref·tr(U_i·W_j) with the trace summed from zero in
// TraceMul's order, added per E: the floating-point additions of every
// element happen in the order of one piAccumulate call per (kz, E, i, j),
// so the result is bitwise that of the unfused loop nest. Summing over
// (kz, E) before scaling would save a multiply per term but changes the
// rounding.
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
	// Per-bond transients, reused across bonds: one arena slab per tensor
	// whose Norb×Norb block (i, kz·n + E − lo) covers direction i over the
	// tensor's energy window, so the tile allocates nothing per energy.
	no, n2 := p.Norb, p.Norb*p.Norb
	uLess, uGtr := cmat.GetDense(p.N3D*p.Nkz*nu*no, no), cmat.GetDense(p.N3D*p.Nkz*nu*no, no)
	wLess, wGtr := cmat.GetDense(p.N3D*p.Nkz*nw*no, no), cmat.GetDense(p.N3D*p.Nkz*nw*no, no)
	defer cmat.PutAll(uLess, uGtr, wLess, wGtr)
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
					gLess.BlockInto(&gvL, kz, e, a)
					gGtr.BlockInto(&gvG, kz, e, a)
					for i := 0; i < p.N3D; i++ {
						o := (i*p.Nkz*nu + kz*nu + e - uLo) * n2
						dh := k.dH[f][r][i].Data
						flops += blockMul(uLess.Data[o:o+n2], dh, gvL.Data, no, false)
						flops += blockMul(uGtr.Data[o:o+n2], dh, gvG.Data, no, false)
					}
				}
				for e := eLo; e < eHi; e++ {
					gLess.BlockInto(&gvL, kz, e, f)
					gGtr.BlockInto(&gvG, kz, e, f)
					for i := 0; i < p.N3D; i++ {
						o := (i*p.Nkz*nw + kz*nw + e - eLo) * n2
						dh := k.dH[a][b][i].Data
						flops += blockMul(wLess.Data[o:o+n2], dh, gvL.Data, no, true)
						flops += blockMul(wGtr.Data[o:o+n2], dh, gvG.Data, no, true)
					}
				}
			}
			for qz := 0; qz < p.Nqz; qz++ {
				for w := 0; w < p.Nw; w++ {
					shift := p.PhononShift(w)
					// Terms with E+ℏω off the grid are dropped.
					cnt := min(eHi, p.NE-shift) - eLo
					if cnt <= 0 {
						continue
					}
					kzFlops := cmat.Tally(16 * n2 * cnt)
					offB, diagB := dstL.BlockOffset(qz, w, a, b), dstL.BlockOffset(qz, w, a, p.NB)
					for i := 0; i < p.N3D; i++ {
						for j := 0; j < p.N3D; j++ {
							off, diag := offB+i*p.N3D+j, diagB+i*p.N3D+j
							offL, diagL := dstL.Data[off], dstL.Data[diag]
							offG, diagG := dstG.Data[off], dstG.Data[diag]
							for kz := 0; kz < p.Nkz; kz++ {
								// U at (kz+qz, E+ℏω) pairs with W at (kz, E).
								k2 := (kz + qz) % p.Nkz
								ou := (i*p.Nkz*nu + k2*nu + eLo + shift - uLo) * n2
								ow := (j*p.Nkz*nw + kz*nw) * n2
								ul, ug := uLess.Data[ou:ou+cnt*n2], uGtr.Data[ou:ou+cnt*n2]
								wl, wg := wLess.Data[ow:ow+cnt*n2], wGtr.Data[ow:ow+cnt*n2]
								for x := 0; x < len(ul); x += n2 {
									var tl, tg complex128
									for y := x; y < x+n2; y++ {
										tl += ul[y] * wg[y]
										tg += ug[y] * wl[y]
									}
									vl, vg := pref*tl, pref*tg
									offL += vl
									diagL += -vl
									offG += vg
									diagG += -vg
								}
								flops += kzFlops
							}
							dstL.Data[off], dstL.Data[diag] = offL, diagL
							dstG.Data[off], dstG.Data[diag] = offG, diagG
						}
					}
				}
			}
		}
	}
}

// blockMul sets the Norb×Norb block dst to m·n, or to (m·n)ᵀ when trans is
// set, and returns its flops. Each element is summed from zero over k in
// cmat's naive i-k-j order with its zero skip on m — the order MulInto
// takes for every product below its blocked-GEMM threshold, which Norb³
// stays under for Norb < 32 — so the block is bitwise MulInto's.
func blockMul(dst, m, n []complex128, no int, trans bool) cmat.Tally {
	for r := 0; r < no; r++ {
		mrow := m[r*no : r*no+no]
		for c := 0; c < no; c++ {
			var s complex128
			for k, x := range mrow {
				if x == 0 {
					continue
				}
				s += x * n[k*no+c]
			}
			if trans {
				dst[c*no+r] = s
			} else {
				dst[r*no+c] = s
			}
		}
	}
	return cmat.Tally(8 * no * no * no)
}
