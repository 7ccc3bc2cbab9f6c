// Package sse implements the scattering self-energy phase of the simulator:
// the electron self-energies Σ^≷ of Eq. (3) and the phonon self-energies
// Π^≷ of Eqs. (4)–(5), in three algorithmic variants:
//
//   - Reference: the naive 8-dimensional map of Fig. 8, exactly as parsed
//     from the Python source — every temporary recomputed at every point.
//   - OMEN: the hand-optimized structure of the original C++ code — ∇H·G
//     hoisted out of the innermost vibration-direction loop, but still
//     recomputed for every (qz, ω) pair.
//   - DaCe: the data-centric transformed kernel of Figs. 9–12 — map fission,
//     redundancy removal (∇H·G computed once per bond and direction for the
//     whole (kz, E) grid as one fused GEMM), data-layout transformation to
//     atom-major storage, and fused windowed accumulation over ω.
//
// The DaCe variant has one tile kernel per self-energy, restricted to an
// energy × atom tile of the output: the serial kernels run it as one tile,
// the shared-memory phase (ComputePhaseParallel) as atom tiles writing in
// place, and a distributed rank (internal/core) as its TE×TA tile.
//
// All variants compute identical values (verified by tests); they differ in
// data movement and flop count, which is the point of the paper.
//
// Index semantics (OMEN's commensurate-grid convention): momentum
// differences wrap modulo Nkz (periodic z axis); phonon energies are
// (w+1)·ΔE so energy shifts are integer grid displacements; contributions
// whose shifted energy falls off the grid are dropped.
package sse

import (
	"fmt"
	"math"
	"math/cmplx"

	"negfsim/internal/cmat"
	"negfsim/internal/device"
	"negfsim/internal/obs"
	"negfsim/internal/pool"
	"negfsim/internal/tensor"
)

// Phase timers of the SSE phase, shared by the serial, shared-memory
// parallel and distributed execution paths (core's distributed tiles record
// on the same names). For parallel tiles the totals are cumulative across
// workers, so they can exceed elapsed wall clock.
var (
	obsSpanPreprocess = obs.GetTimer("sse.preprocess")
	obsSpanSigma      = obs.GetTimer("sse.sigma")
	obsSpanPi         = obs.GetTimer("sse.pi")
)

// Variant selects the algorithmic formulation of the SSE kernels.
type Variant int

const (
	// Reference is the naive dataflow of Fig. 8.
	Reference Variant = iota
	// OMEN is the hand-tuned original C++ structure.
	OMEN
	// DaCe is the data-centric transformed kernel (Figs. 9–12).
	DaCe
)

// String returns the variant name used in tables and benchmarks.
func (v Variant) String() string {
	switch v {
	case Reference:
		return "Reference"
	case OMEN:
		return "OMEN"
	case DaCe:
		return "DaCe"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// Kernel carries the structure-dependent inputs of the SSE phase: the
// neighbor map and the Hamiltonian derivatives ∇H.
type Kernel struct {
	Dev *device.Device
	dH  [][][]*cmat.Dense // [atom][neighbor slot][direction], nil at edges
}

// NewKernel precomputes ∇H for the device.
func NewKernel(dev *device.Device) *Kernel {
	return &Kernel{Dev: dev, dH: dev.GradHAll()}
}

// sigmaPref is the prefactor i·ΔE/(2π·Nqz) of the discretized Eq. (3):
// i from the equation, ΔE/2π from the frequency integral (commensurate
// grid), 1/Nqz from the momentum-zone average.
func (k *Kernel) sigmaPref() complex128 {
	p := k.Dev.P
	return complex(0, p.EStep()/(2*math.Pi*float64(p.Nqz)))
}

// piPref is the magnitude of the prefactor ΔE/(2π·Nkz) of Eqs. (4)–(5);
// the diagonal term carries −i, the off-diagonal +i.
func (k *Kernel) piPref() float64 {
	p := k.Dev.P
	return p.EStep() / (2 * math.Pi * float64(p.Nkz))
}

// wrapK returns (k − q) mod Nkz ≥ 0.
func wrapK(k, q, nkz int) int { return ((k-q)%nkz + nkz) % nkz }

// PreD is the preprocessed phonon Green's function of Eq. (3): for every
// (qz, ω, a, b, i, j) the scalar combination
//
//	D^≷ij_ba − D^≷ij_bb − D^≷ij_aa + D^≷ij_ab,
//
// stored as a flat 6-D array with NB neighbor slots (no self slot).
type PreD struct {
	Nqz, Nw, NA, NB, N3D int
	Data                 []complex128
}

// At returns the preprocessed value at (qz, w, a, b, i, j).
func (p *PreD) At(qz, w, a, b, i, j int) complex128 {
	return p.Data[((((qz*p.Nw+w)*p.NA+a)*p.NB+b)*p.N3D+i)*p.N3D+j]
}

// PreprocessD builds the PreD combination from a phonon tensor. Bonds whose
// reverse direction is missing from the neighbor list (structure edges)
// contribute their forward information only, matching what OMEN's
// preprocessing does at device boundaries.
func (k *Kernel) PreprocessD(d *tensor.DTensor) *PreD { return k.PreprocessDInto(nil, d) }

// PreprocessDInto is PreprocessD into dst, every element of which it
// overwrites; a nil dst allocates. It returns dst.
func (k *Kernel) PreprocessDInto(dst *PreD, d *tensor.DTensor) *PreD {
	p := k.Dev.P
	if dst == nil {
		dst = &PreD{Nqz: d.Nqz, Nw: d.Nw, NA: p.NA, NB: p.NB, N3D: p.N3D,
			Data: make([]complex128, d.Nqz*d.Nw*p.NA*p.NB*p.N3D*p.N3D)}
	}
	var dab, daa, dbb, dba cmat.Dense // reusable block-view headers
	idx := 0
	for qz := 0; qz < d.Nqz; qz++ {
		for w := 0; w < d.Nw; w++ {
			for a := 0; a < p.NA; a++ {
				for b := 0; b < p.NB; b++ {
					f := k.Dev.Neigh[a][b]
					if f < 0 {
						clear(dst.Data[idx : idx+p.N3D*p.N3D])
						idx += p.N3D * p.N3D
						continue
					}
					d.BlockInto(&dab, qz, w, a, b)
					d.BlockInto(&daa, qz, w, a, p.NB)
					d.BlockInto(&dbb, qz, w, f, p.NB)
					r := k.Dev.NeighborSlot(f, a)
					if r >= 0 {
						d.BlockInto(&dba, qz, w, f, r)
					}
					for i := 0; i < p.N3D; i++ {
						for j := 0; j < p.N3D; j++ {
							v := dab.At(i, j) - dbb.At(i, j) - daa.At(i, j)
							if r >= 0 {
								v += dba.At(i, j)
							}
							dst.Data[idx] = v
							idx++
						}
					}
				}
			}
		}
	}
	return dst
}

// PhaseInput bundles the Green's functions entering one SSE phase.
type PhaseInput struct {
	GLess, GGtr *tensor.GTensor
	DLess, DGtr *tensor.DTensor
}

// PhaseOutput bundles the self-energies the SSE phase produces.
type PhaseOutput struct {
	SigmaLess, SigmaGtr *tensor.GTensor
	PiLess, PiGtr       *tensor.DTensor
}

// ComputePhase evaluates the full SSE phase (Σ^≷ and Π^≷) with the selected
// variant on one worker.
func (k *Kernel) ComputePhase(in PhaseInput, v Variant) PhaseOutput {
	return k.ComputePhaseParallel(in, v, 1)
}

// ComputePhaseParallel evaluates the full SSE phase with the selected
// variant. The DaCe variant runs the tile kernels over `workers` atom tiles
// — the shared-memory counterpart of the distributed decomposition — on the
// persistent worker pool rather than freshly spawned goroutines. Each tile
// writes its disjoint atom slice of Σ^≷ and Π^≷ in place, so the result is
// bitwise independent of workers; one tile covers every atom when workers ≤
// 1 or NA < 2·workers. Reference and OMEN run serially: their loop nests
// are Table 7's comparison rows, not tile slices.
func (k *Kernel) ComputePhaseParallel(in PhaseInput, v Variant, workers int) PhaseOutput {
	p := k.Dev.P
	spp := obsSpanPreprocess.Start()
	preLess := k.PreprocessD(in.DLess)
	preGtr := k.PreprocessD(in.DGtr)
	spp.End()
	var out PhaseOutput
	switch v {
	case Reference, OMEN:
		sigma, pi := k.SigmaReference, k.PiReference
		if v == OMEN {
			sigma, pi = k.SigmaOMEN, k.PiOMEN
		}
		sps := obsSpanSigma.Start()
		out.SigmaLess, out.SigmaGtr = sigma(in.GLess, preLess), sigma(in.GGtr, preGtr)
		sps.End()
		spq := obsSpanPi.Start()
		out.PiLess, out.PiGtr = pi(in.GLess, in.GGtr)
		spq.End()
	case DaCe:
		out = PhaseOutput{k.newSigma(), k.newSigma(), k.newPi(), k.newPi()}
		if workers <= 1 || p.NA < 2*workers {
			workers = 1
		}
		// Fig. 10(c)'s layout change, once per tensor for every tile, into
		// arena storage that the next phase reuses.
		amL, amG := arenaAtomMajor(in.GLess), arenaAtomMajor(in.GGtr)
		defer cmat.PutAll(amL.Atom...)
		defer cmat.PutAll(amG.Atom...)
		tasks := make([]pool.Task, workers)
		for w := range tasks {
			aLo, aHi := w*p.NA/workers, (w+1)*p.NA/workers
			tasks[w] = func() {
				sps := obsSpanSigma.Start()
				k.sigmaTile(out.SigmaLess, amL, preLess, 0, p.NE, aLo, aHi)
				k.sigmaTile(out.SigmaGtr, amG, preGtr, 0, p.NE, aLo, aHi)
				sps.End()
				spq := obsSpanPi.Start()
				k.piTile(out.PiLess, out.PiGtr, in.GLess, in.GGtr, 0, p.NE, aLo, aHi)
				spq.End()
			}
		}
		pool.Do(tasks...)
	default:
		panic("sse: unknown variant")
	}
	return out
}

// newSigma and newPi allocate zeroed full-grid Σ^≷ and Π^≷ tensors.
func (k *Kernel) newSigma() *tensor.GTensor {
	p := k.Dev.P
	return tensor.NewGTensor(p.Nkz, p.NE, p.NA, p.Norb)
}

func (k *Kernel) newPi() *tensor.DTensor {
	p := k.Dev.P
	return tensor.NewDTensor(p.Nqz, p.Nw, p.NA, p.NB, p.N3D)
}

// arenaAtomMajor returns g in the atom-major layout, its per-atom matrices
// drawn from the workspace arena; the caller returns them with cmat.PutAll.
func arenaAtomMajor(g *tensor.GTensor) *tensor.AtomMajor {
	am := &tensor.AtomMajor{Nkz: g.Nkz, NE: g.NE, NA: g.NA, Norb: g.Norb, Atom: make([]*cmat.Dense, g.NA)}
	for a := range am.Atom {
		am.Atom[a] = cmat.GetDense(g.Nkz*g.NE*g.Norb, g.Norb)
	}
	return g.ToAtomMajorInto(am)
}

// Retarded returns the retarded component from the lesser/greater pair via
// the paper's relation Σ^R ≈ (Σ^> − Σ^<)/2 (also used for Π^R), written
// into dst, or into a fresh tensor when dst is nil.
func Retarded(dst, less, gtr *tensor.GTensor) *tensor.GTensor {
	if dst == nil {
		dst = tensor.NewGTensor(less.Nkz, less.NE, less.NA, less.Norb)
	}
	for i := range dst.Data {
		dst.Data[i] = 0.5 * (gtr.Data[i] - less.Data[i])
	}
	return dst
}

// RetardedD is the phonon analogue of Retarded: Π^R ≈ (Π^> − Π^<)/2, into
// dst, or into a fresh tensor when dst is nil.
func RetardedD(dst, less, gtr *tensor.DTensor) *tensor.DTensor {
	if dst == nil {
		dst = tensor.NewDTensor(less.Nqz, less.Nw, less.NA, less.NB, less.N3D)
	}
	for i := range dst.Data {
		dst.Data[i] = 0.5 * (gtr.Data[i] - less.Data[i])
	}
	return dst
}

// AntiHermitize projects every diagonal (kz, E, a) block of t onto its
// anti-Hermitian part, t ← (t − t^H)/2 — the stabilization real NEGF codes
// apply to scattering self-energies before feeding them back into the GF
// phase. Each (i, j)/(j, i) pair of a block is updated in place from its two
// old values, with the arithmetic of (t + (−1)·t^H)·½.
func AntiHermitize(t *tensor.GTensor) {
	const alpha, half = complex(-1, 0), complex(0.5, 0)
	n := t.Norb
	for off := 0; off < len(t.Data); off += n * n {
		b := t.Data[off : off+n*n]
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				bij, bji := b[i*n+j], b[j*n+i]
				b[i*n+j] = (bij + alpha*cmplx.Conj(bji)) * half
				b[j*n+i] = (bji + alpha*cmplx.Conj(bij)) * half
			}
		}
	}
}
