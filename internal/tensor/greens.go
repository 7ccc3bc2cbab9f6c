// Package tensor provides the multi-dimensional complex tensors that carry
// the Green's functions and self-energies of the simulation:
//
//   - G≷, Σ≷ : 5-D [Nkz, NE, NA, Norb, Norb]   (electrons)
//   - D≷, Π≷ : 6-D [Nqz, Nω, NA, NB+1, N3D, N3D] (phonons)
//
// and AtomMajor, the data-layout transformation of Fig. 10(c) in the paper:
// G≷ re-laid-out from (kz, E)-major to atom-major so that the Nkz·NE small
// matrix multiplications fuse into one large GEMM.
package tensor

import (
	"fmt"

	"negfsim/internal/cmat"
)

// GTensor holds an electron Green's function or self-energy tensor with the
// paper's 5-D shape [Nkz, NE, NA, Norb, Norb]. The innermost Norb×Norb
// matrix of a (kz, E, atom) point is stored contiguously so it can be viewed
// as a cmat.Dense without copying.
type GTensor struct {
	Nkz, NE, NA, Norb int
	Data              []complex128
}

// NewGTensor allocates a zeroed electron tensor.
func NewGTensor(nkz, ne, na, norb int) *GTensor {
	return &GTensor{Nkz: nkz, NE: ne, NA: na, Norb: norb,
		Data: make([]complex128, nkz*ne*na*norb*norb)}
}

// Block returns the Norb×Norb matrix at (kz, E, a) as a view sharing storage.
func (g *GTensor) Block(kz, e, a int) *cmat.Dense {
	if kz < 0 || kz >= g.Nkz || e < 0 || e >= g.NE || a < 0 || a >= g.NA {
		panic(fmt.Sprintf("tensor: GTensor.Block(%d,%d,%d) out of range (%d,%d,%d)", kz, e, a, g.Nkz, g.NE, g.NA))
	}
	n2 := g.Norb * g.Norb
	off := ((kz*g.NE+e)*g.NA + a) * n2
	return cmat.DenseFromSlice(g.Norb, g.Norb, g.Data[off:off+n2])
}

// BlockInto rebinds dst as the (kz, E, a) view without allocating a header:
// the steady-state alternative to Block for hot loops. dst shares storage
// with g afterwards.
func (g *GTensor) BlockInto(dst *cmat.Dense, kz, e, a int) {
	if kz < 0 || kz >= g.Nkz || e < 0 || e >= g.NE || a < 0 || a >= g.NA {
		panic(fmt.Sprintf("tensor: GTensor.BlockInto(%d,%d,%d) out of range (%d,%d,%d)", kz, e, a, g.Nkz, g.NE, g.NA))
	}
	n2 := g.Norb * g.Norb
	off := ((kz*g.NE+e)*g.NA + a) * n2
	dst.Rows, dst.Cols, dst.Data = g.Norb, g.Norb, g.Data[off:off+n2]
}

// Clone returns a deep copy.
func (g *GTensor) Clone() *GTensor {
	out := NewGTensor(g.Nkz, g.NE, g.NA, g.Norb)
	copy(out.Data, g.Data)
	return out
}

// Zero clears the tensor.
func (g *GTensor) Zero() {
	for i := range g.Data {
		g.Data[i] = 0
	}
}

// Bytes returns the storage footprint in bytes (16 bytes per complex128).
func (g *GTensor) Bytes() int { return 16 * len(g.Data) }

// MaxAbsDiff returns the largest element-wise |difference| between g and h.
func (g *GTensor) MaxAbsDiff(h *GTensor) float64 {
	if len(g.Data) != len(h.Data) {
		panic("tensor: GTensor.MaxAbsDiff shape mismatch")
	}
	var d float64
	for i := range g.Data {
		dd := g.Data[i] - h.Data[i]
		if a := real(dd)*real(dd) + imag(dd)*imag(dd); a > d {
			d = a
		}
	}
	return sqrt(d)
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	// Newton iterations are plenty here; avoids importing math for one call.
	z := x
	for i := 0; i < 32; i++ {
		z = 0.5 * (z + x/z)
	}
	return z
}

// AtomMajor is the data-layout transformation of Fig. 10(c): the electron
// tensor re-laid-out per atom, with all (kz, E) matrices of one atom stacked
// vertically into a single (Nkz·NE·Norb) × Norb matrix. In that layout,
// the Nkz·NE small multiplications G≷[f]·∇H of the SSE kernel become ONE
// (Nkz·NE·Norb) × Norb × Norb GEMM (the multiplication fusion of Fig. 10(d)).
type AtomMajor struct {
	Nkz, NE, NA, Norb int
	// Atom[a] is the stacked (Nkz·NE·Norb) × Norb matrix of atom a; row
	// block (kz·NE + E) holds the Norb×Norb matrix of that (kz, E) point.
	Atom []*cmat.Dense
}

// NewAtomMajor allocates a zeroed atom-major tensor of the given shape.
func NewAtomMajor(nkz, ne, na, norb int) *AtomMajor {
	am := &AtomMajor{Nkz: nkz, NE: ne, NA: na, Norb: norb, Atom: make([]*cmat.Dense, na)}
	for a := range am.Atom {
		am.Atom[a] = cmat.NewDense(nkz*ne*norb, norb)
	}
	return am
}

// ToAtomMajor performs the layout transformation (a full copy of G).
func (g *GTensor) ToAtomMajor() *AtomMajor {
	return g.ToAtomMajorInto(NewAtomMajor(g.Nkz, g.NE, g.NA, g.Norb))
}

// ToAtomMajorInto performs the layout transformation into dst, which must
// have g's shape, overwriting every element, and returns dst: the
// steady-state form of ToAtomMajor for a caller that keeps dst across
// phases.
func (g *GTensor) ToAtomMajorInto(dst *AtomMajor) *AtomMajor {
	if dst.Nkz != g.Nkz || dst.NE != g.NE || dst.NA != g.NA || dst.Norb != g.Norb {
		panic("tensor: ToAtomMajorInto shape mismatch")
	}
	// A Norb×Norb block is contiguous in both layouts: row block kz·NE+E
	// of the stacked matrix is one Norb² run of its data.
	n2 := g.Norb * g.Norb
	for a, m := range dst.Atom {
		for kz := 0; kz < g.Nkz; kz++ {
			for e := 0; e < g.NE; e++ {
				off := ((kz*g.NE+e)*g.NA + a) * n2
				copy(m.Data[(kz*g.NE+e)*n2:], g.Data[off:off+n2])
			}
		}
	}
	return dst
}

// Block returns the Norb×Norb matrix of (kz, E) for atom a as a view.
func (am *AtomMajor) Block(kz, e, a int) *cmat.Dense {
	n := am.Norb
	r0 := (kz*am.NE + e) * n
	m := am.Atom[a]
	return cmat.DenseFromSlice(n, n, m.Data[r0*n:(r0+n)*n])
}

// ToGTensor converts back to the (kz, E)-major layout (round trip of the
// transformation, used by tests).
func (am *AtomMajor) ToGTensor() *GTensor {
	g := NewGTensor(am.Nkz, am.NE, am.NA, am.Norb)
	for a := 0; a < am.NA; a++ {
		for kz := 0; kz < am.Nkz; kz++ {
			for e := 0; e < am.NE; e++ {
				g.Block(kz, e, a).CopyFrom(am.Block(kz, e, a))
			}
		}
	}
	return g
}

// DTensor holds a phonon Green's function or self-energy tensor with the
// paper's 6-D shape [Nqz, Nω, NA, NB+1, N3D, N3D]: for every (qz, ω, atom)
// it stores one N3D×N3D matrix per neighbor slot (slot NB is the atom's own
// diagonal block, slots 0..NB−1 the couplings to its NB neighbors).
type DTensor struct {
	Nqz, Nw, NA, NB, N3D int
	Data                 []complex128
}

// NewDTensor allocates a zeroed phonon tensor. The neighbor axis has NB+1
// slots (NB couplings plus the self block).
func NewDTensor(nqz, nw, na, nb, n3d int) *DTensor {
	return &DTensor{Nqz: nqz, Nw: nw, NA: na, NB: nb, N3D: n3d,
		Data: make([]complex128, nqz*nw*na*(nb+1)*n3d*n3d)}
}

// Block returns the N3D×N3D matrix at (qz, ω, a, neighbor slot b) as a view.
// b == NB addresses the atom's own block.
func (d *DTensor) Block(qz, w, a, b int) *cmat.Dense {
	if qz < 0 || qz >= d.Nqz || w < 0 || w >= d.Nw || a < 0 || a >= d.NA || b < 0 || b > d.NB {
		panic(fmt.Sprintf("tensor: DTensor.Block(%d,%d,%d,%d) out of range", qz, w, a, b))
	}
	off := d.BlockOffset(qz, w, a, b)
	return cmat.DenseFromSlice(d.N3D, d.N3D, d.Data[off:off+d.N3D*d.N3D])
}

// BlockInto rebinds dst as the (qz, ω, a, b) view without allocating a
// header: the steady-state alternative to Block for hot loops. dst shares
// storage with d afterwards.
func (d *DTensor) BlockInto(dst *cmat.Dense, qz, w, a, b int) {
	if qz < 0 || qz >= d.Nqz || w < 0 || w >= d.Nw || a < 0 || a >= d.NA || b < 0 || b > d.NB {
		panic(fmt.Sprintf("tensor: DTensor.BlockInto(%d,%d,%d,%d) out of range", qz, w, a, b))
	}
	off := d.BlockOffset(qz, w, a, b)
	dst.Rows, dst.Cols, dst.Data = d.N3D, d.N3D, d.Data[off:off+d.N3D*d.N3D]
}

// BlockOffset returns the flat index in Data of element (0, 0) of the (qz,
// ω, a, b) block; the block's N3D×N3D elements follow row-major. It does
// not check bounds.
func (d *DTensor) BlockOffset(qz, w, a, b int) int {
	return (((qz*d.Nw+w)*d.NA+a)*(d.NB+1) + b) * d.N3D * d.N3D
}

// AddAt adds v to element (i, j) of the (qz, ω, a, b) block by direct
// indexing — no block header is materialized, so the Π accumulation loops
// stay allocation-free.
func (d *DTensor) AddAt(qz, w, a, b, i, j int, v complex128) {
	d.Data[d.BlockOffset(qz, w, a, b)+i*d.N3D+j] += v
}

// Clone returns a deep copy.
func (d *DTensor) Clone() *DTensor {
	out := NewDTensor(d.Nqz, d.Nw, d.NA, d.NB, d.N3D)
	copy(out.Data, d.Data)
	return out
}

// Zero clears the tensor.
func (d *DTensor) Zero() {
	for i := range d.Data {
		d.Data[i] = 0
	}
}

// Bytes returns the storage footprint in bytes.
func (d *DTensor) Bytes() int { return 16 * len(d.Data) }

// MaxAbsDiff returns the largest element-wise |difference| between d and e.
func (d *DTensor) MaxAbsDiff(e *DTensor) float64 {
	if len(d.Data) != len(e.Data) {
		panic("tensor: DTensor.MaxAbsDiff shape mismatch")
	}
	var m float64
	for i := range d.Data {
		dd := d.Data[i] - e.Data[i]
		if a := real(dd)*real(dd) + imag(dd)*imag(dd); a > m {
			m = a
		}
	}
	return sqrt(m)
}
