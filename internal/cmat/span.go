package cmat

import "fmt"

// Products over index ranges. The couplings of a block-tridiagonal operator
// connect only the orbitals at a block's boundary: on gf_wire every
// A[i,i±1] has nonzeros in 32 of its 64 rows and 32 of its 64 columns, and
// a device numbers its atoms so that those form one range per dimension. A
// product with such a block, or with an intermediate that inherits its
// support, has exact zeros as every term outside those ranges. A Span names
// the ranges that can hold a nonzero term, and the span product runs only
// over them, in place (Table 6's sparse-aware choice inside the solver; see
// DESIGN.md §9).

// Range is the half-open index range [Lo, Hi) of one dimension. The zero
// Range stands for every index of its dimension; an empty range is any
// other with Lo ≥ Hi, such as [n, n).
type Range struct {
	Lo, Hi int
}

// bounds is r over a dimension of length dim, as lo ≤ hi.
func (r Range) bounds(dim int) (lo, hi int) {
	if r == (Range{}) {
		return 0, dim
	}
	return r.Lo, max(r.Lo, r.Hi)
}

// Span restricts out = m·n to the ranges where its terms can be nonzero:
// out[Rows, Cols] = m[Rows, Inner]·n[Inner, Cols]. The zero Span is the
// plain product.
type Span struct {
	Rows, Inner, Cols Range
}

// Support is the nonzero pattern of a matrix, bounded: the range of rows
// and the range of columns that hold every nonzero entry.
type Support struct {
	Rows, Cols Range
}

// Support returns m's support: the smallest row and column ranges holding
// every nonzero, the zero Range for a dimension they span whole, and empty
// ranges for a zero matrix. A range may hold zero rows or columns between
// nonzero ones; a product over it then adds exact zeros it could skip.
func (m *Dense) Support() Support {
	R, C := m.Rows, m.Cols
	r0, r1, c0, c1 := R, 0, C, 0
	for i := 0; i < R; i++ {
		row := m.Data[i*C : (i+1)*C]
		lo := 0
		for lo < C && row[lo] == 0 {
			lo++
		}
		if lo == C {
			continue
		}
		hi := C
		for row[hi-1] == 0 {
			hi--
		}
		r0, r1 = min(r0, i), i+1
		c0, c1 = min(c0, lo), max(c1, hi)
	}
	if r0 == R {
		return Support{Rows: Range{R, R}, Cols: Range{C, C}}
	}
	return Support{Rows: rangeOf(r0, r1, R), Cols: rangeOf(c0, c1, C)}
}

// rangeOf is [lo, hi) in a dimension of length dim, the zero Range when it
// spans the dimension whole.
func rangeOf(lo, hi, dim int) Range {
	if lo == 0 && hi == dim {
		return Range{}
	}
	return Range{lo, hi}
}

// MulSpanInto computes out = m·n over the span sp: out[Rows, Cols] =
// m[Rows, Inner]·n[Inner, Cols], with every other element of out zeroed.
// When the terms sp leaves out are exact zeros and the operands finite, out
// holds the bits MulInto gives it: the span product runs the kernel (naive
// or blocked) the full product would pick from the full operands, and
// gives each element the same order of summation, which skipping exact
// zero terms does not change. It counts the span's 8·|Rows|·|Inner|·|Cols|
// flops, whichever kernel runs. A product below the blocked engine's size
// threshold runs whole, as MulInto, and is counted whole.
func (m *Dense) MulSpanInto(out, n *Dense, sp Span) {
	Counter.AddFlops(m.mulSpan(out, n, sp, false))
}

// MulSpanAddInto computes out += m·n over the span sp, adding nothing but
// zeros to out outside sp.Rows × sp.Cols. It is bitwise MulAddInto under
// MulSpanInto's conditions, save that an element of out holding −0 may keep
// its sign where the full product would add a +0 term to it.
func (m *Dense) MulSpanAddInto(out, n *Dense, sp Span) {
	Counter.AddFlops(m.mulSpan(out, n, sp, true))
}

// spanWork is the R·K·C volume mulSpan counts for m·n over sp.
func (m *Dense) spanWork(n *Dense, sp Span) int {
	R, K, C := m.Rows, m.Cols, n.Cols
	if R*K*C < blockedMinWork {
		return R * K * C
	}
	i0, i1 := sp.Rows.bounds(R)
	k0, k1 := sp.Inner.bounds(K)
	j0, j1 := sp.Cols.bounds(C)
	return (i1 - i0) * (k1 - k0) * (j1 - j0)
}

// mulSpan is the body of MulSpanInto and MulSpanAddInto; it returns the
// flops of the span product.
func (m *Dense) mulSpan(out, n *Dense, sp Span, accumulate bool) uint64 {
	R, K, C := m.Rows, m.Cols, n.Cols
	if sp == (Span{}) || R*K*C < blockedMinWork {
		// Below the blocked engine's threshold the naive kernel's zero skip
		// already drops a sparse left operand's terms: the plain product,
		// counted whole.
		return m.mulInto(out, n, accumulate)
	}
	if K != n.Rows {
		panic(fmt.Sprintf("cmat: Mul dimension mismatch %d×%d · %d×%d", R, K, n.Rows, C))
	}
	if out.Rows != R || out.Cols != C {
		panic("cmat: MulSpanInto output shape mismatch")
	}
	// An overwrite zeroes out first; the blocked kernel then adds every
	// tile onto +0, which gives the bits storing it would, since a sum that
	// starts at +0 is never −0.
	if !accumulate {
		out.Zero()
	}
	work := m.spanWork(n, sp)
	switch {
	case work == 0: // an empty range: no term to add
	case m.blockedFor(n):
		m.mulBlocked(out, n, true, gemmKC, gemmNC, sp)
	default:
		m.mulSpanNaive(out, n, sp)
	}
	return uint64(8 * work)
}

// mulSpanNaive is mulAddNaive over the span: the same zero skip on m and
// the same row update, chosen by the full row width, on subslices of the
// rows of m, n and out, so every element gets the full product's sum less
// its exact zero terms.
func (m *Dense) mulSpanNaive(out, n *Dense, sp Span) {
	K, C := m.Cols, n.Cols
	i0, i1 := sp.Rows.bounds(m.Rows)
	k0, k1 := sp.Inner.bounds(K)
	j0, j1 := sp.Cols.bounds(C)
	vec := useAsmKernel && C >= axpyMinLen
	for i := i0; i < i1; i++ {
		orow := out.Data[i*C+j0 : i*C+j1]
		for k, a := range m.Data[i*K+k0 : i*K+k1] {
			if a == 0 {
				continue
			}
			nrow := n.Data[(k0+k)*C+j0 : (k0+k)*C+j1]
			if vec {
				caxpyAdd(&orow[0], &nrow[0], real(a), imag(a), len(orow))
				continue
			}
			for j := range orow {
				orow[j] += a * nrow[j]
			}
		}
	}
}
