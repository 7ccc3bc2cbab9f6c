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
func (k *Kernel) PreprocessD(d *tensor.DTensor) *PreD {
	p := k.Dev.P
	out := &PreD{Nqz: d.Nqz, Nw: d.Nw, NA: p.NA, NB: p.NB, N3D: p.N3D,
		Data: make([]complex128, d.Nqz*d.Nw*p.NA*p.NB*p.N3D*p.N3D)}
	idx := 0
	for qz := 0; qz < d.Nqz; qz++ {
		for w := 0; w < d.Nw; w++ {
			for a := 0; a < p.NA; a++ {
				for b := 0; b < p.NB; b++ {
					f := k.Dev.Neigh[a][b]
					if f < 0 {
						idx += p.N3D * p.N3D
						continue
					}
					dab := d.Block(qz, w, a, b)
					daa := d.Block(qz, w, a, p.NB)
					dbb := d.Block(qz, w, f, p.NB)
					var dba *cmat.Dense
					if r := k.Dev.NeighborSlot(f, a); r >= 0 {
						dba = d.Block(qz, w, f, r)
					}
					for i := 0; i < p.N3D; i++ {
						for j := 0; j < p.N3D; j++ {
							v := dab.At(i, j) - dbb.At(i, j) - daa.At(i, j)
							if dba != nil {
								v += dba.At(i, j)
							}
							out.Data[idx] = v
							idx++
						}
					}
				}
			}
		}
	}
	return out
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
		tasks := make([]pool.Task, workers)
		for w := range tasks {
			aLo, aHi := w*p.NA/workers, (w+1)*p.NA/workers
			tasks[w] = func() {
				sps := obsSpanSigma.Start()
				k.sigmaTile(out.SigmaLess, in.GLess, preLess, 0, p.NE, aLo, aHi)
				k.sigmaTile(out.SigmaGtr, in.GGtr, preGtr, 0, p.NE, aLo, aHi)
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

// Retarded returns the retarded component from the lesser/greater pair via
// the paper's relation Σ^R ≈ (Σ^> − Σ^<)/2 (also used for Π^R).
func Retarded(less, gtr *tensor.GTensor) *tensor.GTensor {
	out := tensor.NewGTensor(less.Nkz, less.NE, less.NA, less.Norb)
	for i := range out.Data {
		out.Data[i] = 0.5 * (gtr.Data[i] - less.Data[i])
	}
	return out
}

// RetardedD is the phonon analogue of Retarded: Π^R ≈ (Π^> − Π^<)/2.
func RetardedD(less, gtr *tensor.DTensor) *tensor.DTensor {
	out := tensor.NewDTensor(less.Nqz, less.Nw, less.NA, less.NB, less.N3D)
	for i := range out.Data {
		out.Data[i] = 0.5 * (gtr.Data[i] - less.Data[i])
	}
	return out
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

// DH returns the precomputed derivative block ∇_i H at (atom, neighbor
// slot, direction); nil for missing neighbors. Exposed for the distributed
// round kernels in internal/core.
func (k *Kernel) DH(a, b, i int) *cmat.Dense { return k.dH[a][b][i] }

// SigmaPrefactor exposes the Σ^≷ accumulation prefactor i·ΔE/(2π·Nqz).
func (k *Kernel) SigmaPrefactor() complex128 { return k.sigmaPref() }

// PiPrefactor exposes the magnitude of the Π^≷ prefactor ΔE/(2π·Nkz).
func (k *Kernel) PiPrefactor() float64 { return k.piPref() }
