package cmat

import "fmt"

// Products over index sets. The couplings of a block-tridiagonal operator
// connect only the orbitals at a block's boundary: on gf_wire every
// A[i,i±1] has nonzeros in 32 of its 64 rows and 32 of its 64 columns. A
// product with such a block, or with an intermediate that inherits its
// support, has exact zeros as every term outside those rows and columns.
// A Span names the index sets that can hold a nonzero term, and the span
// product runs only over them (Table 6's sparse-aware choice inside the
// solver; see DESIGN.md §9).

// Span restricts out = m·n to the index sets where its terms can be
// nonzero: out[Rows, Cols] = m[Rows, Inner]·n[Inner, Cols]. Index lists are
// ascending; a nil list stands for every index of its dimension, and an
// empty non-nil one for none. The zero Span is the plain product.
type Span struct {
	Rows, Inner, Cols []int
}

// full reports whether s restricts nothing.
func (s Span) full() bool { return s.Rows == nil && s.Inner == nil && s.Cols == nil }

// Support is the nonzero pattern of a matrix: the rows and the columns that
// hold at least one nonzero entry, ascending. A nil list stands for every
// row (or column), so a dense matrix's support restricts nothing.
type Support struct {
	Rows, Cols []int
}

// SupportInto returns m's support with its index lists written into buf,
// which needs room for m.Rows + m.Cols entries: the rows in buf[:m.Rows],
// the columns in buf[m.Rows:]. A dimension whose every index holds a
// nonzero gets nil.
func (m *Dense) SupportInto(buf []int) Support {
	R, C := m.Rows, m.Cols
	if len(buf) < R+C {
		panic(fmt.Sprintf("cmat: SupportInto needs %d index slots, got %d", R+C, len(buf)))
	}
	rows, cols := buf[:0:R], buf[R:R+C]
	clear(cols) // column marks, compacted into indices below
	for i := 0; i < R; i++ {
		hit := false
		for j, v := range m.Data[i*C : (i+1)*C] {
			if v != 0 {
				hit = true
				cols[j] = 1
			}
		}
		if hit {
			rows = append(rows, i)
		}
	}
	nc := 0
	for j, mark := range cols {
		if mark != 0 { // nc ≤ j: the write never overtakes the scan
			cols[nc] = j
			nc++
		}
	}
	s := Support{Rows: rows, Cols: cols[:nc]}
	if len(s.Rows) == R {
		s.Rows = nil
	}
	if nc == C {
		s.Cols = nil
	}
	return s
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

// MulSpanAddInto computes out += m·n over the span sp, leaving out outside
// sp.Rows × sp.Cols as it is. It is bitwise MulAddInto under MulSpanInto's
// conditions, save that an element of out holding −0 may keep its sign
// where the full product would add a +0 term to it.
func (m *Dense) MulSpanAddInto(out, n *Dense, sp Span) {
	Counter.AddFlops(m.mulSpan(out, n, sp, true))
}

// spanLen is the length of an index list, or dim for nil (every index).
func spanLen(ix []int, dim int) int {
	if ix == nil {
		return dim
	}
	return len(ix)
}

// at returns the position of the idx-th member of an index list.
func at(ix []int, idx int) int {
	if ix == nil {
		return idx
	}
	return ix[idx]
}

// spanWork is the R·K·C volume mulSpan counts for m·n over sp.
func (m *Dense) spanWork(n *Dense, sp Span) int {
	R, K, C := m.Rows, m.Cols, n.Cols
	if R*K*C < blockedMinWork {
		return R * K * C
	}
	return spanLen(sp.Rows, R) * spanLen(sp.Inner, K) * spanLen(sp.Cols, C)
}

// mulSpan is the body of MulSpanInto and MulSpanAddInto; it returns the
// flops of the span product.
func (m *Dense) mulSpan(out, n *Dense, sp Span, accumulate bool) uint64 {
	R, K, C := m.Rows, m.Cols, n.Cols
	if sp.full() || R*K*C < blockedMinWork {
		// Below the blocked engine's threshold the naive kernel's zero skip
		// already drops a sparse left operand's terms, and gathering would
		// cost more than the rest saves: the plain product, counted whole.
		return m.mulInto(out, n, accumulate)
	}
	if K != n.Rows {
		panic(fmt.Sprintf("cmat: Mul dimension mismatch %d×%d · %d×%d", R, K, n.Rows, C))
	}
	if out.Rows != R || out.Cols != C {
		panic("cmat: MulSpanInto output shape mismatch")
	}
	work := m.spanWork(n, sp)
	if work == 0 {
		if !accumulate {
			out.Zero()
		}
		return 0
	}
	switch {
	case !m.blockedFor(n):
		m.mulSpanNaive(out, n, sp, accumulate)
	case K <= gemmKC && C <= gemmNC && C%gemmNR == 0 && R%2 == 0:
		m.mulSpanBlocked(out, n, sp, accumulate)
	default:
		// The full product's K- or column-panel split, or its column and
		// row tails, would not survive compaction: run it whole.
		m.gemm(out, n, accumulate)
	}
	return uint64(8 * work)
}

// mulSpanNaive is mulAddNaive over the span: the same zero skip on m and
// the same row update, chosen by the full row width, so every element gets
// the full product's sum less its exact zero terms.
func (m *Dense) mulSpanNaive(out, n *Dense, sp Span, accumulate bool) {
	K, C := m.Cols, n.Cols
	r, k, c := spanLen(sp.Rows, m.Rows), spanLen(sp.Inner, K), spanLen(sp.Cols, C)
	vec := useAsmKernel && C >= axpyMinLen
	if !accumulate {
		out.Zero()
	}
	// With every column in the span, the rows of n and out are used in
	// place; otherwise their span columns are gathered and out's scattered
	// back.
	var bc, oc *Dense
	if sp.Cols != nil {
		bc = GetDenseNoZero(k, c)
		gather(bc, n, sp.Inner, sp.Cols)
		oc = GetDenseNoZero(r, c)
		gather(oc, out, sp.Rows, sp.Cols)
	}
	for ii := 0; ii < r; ii++ {
		i := at(sp.Rows, ii)
		mrow := m.Data[i*K : (i+1)*K]
		orow := out.Data[i*C : (i+1)*C]
		if oc != nil {
			orow = oc.Data[ii*c : (ii+1)*c]
		}
		for kk := 0; kk < k; kk++ {
			kx := at(sp.Inner, kk)
			a := mrow[kx]
			if a == 0 {
				continue
			}
			nrow := n.Data[kx*C : (kx+1)*C]
			if bc != nil {
				nrow = bc.Data[kk*c : (kk+1)*c]
			}
			if vec {
				caxpyAdd(&orow[0], &nrow[0], real(a), imag(a), len(orow))
				continue
			}
			for j := range orow {
				orow[j] += a * nrow[j]
			}
		}
	}
	if oc != nil {
		scatter(out, oc, sp.Rows, sp.Cols)
		PutAll(bc, oc)
	}
}

// mulSpanBlocked is mulBlocked on the gathered span, for a full product of
// one K-panel and one column panel, whole gemmNR strips and whole row
// pairs. The gathered operands keep that geometry: a row pair of zeros and
// zero columns up to a whole strip pad them, and their outputs are dropped,
// so every element runs the micro-kernel the full product runs it on.
func (m *Dense) mulSpanBlocked(out, n *Dense, sp Span, accumulate bool) {
	r, k, c := spanLen(sp.Rows, m.Rows), spanLen(sp.Inner, m.Cols), spanLen(sp.Cols, n.Cols)
	rp, cp := r+r%2, c+(gemmNR-c%gemmNR)%gemmNR
	ac := GetDenseNoZero(rp, k)
	gather(ac, m, sp.Rows, sp.Inner)
	bc := GetDenseNoZero(k, cp)
	gather(bc, n, sp.Inner, sp.Cols)
	oc := GetDenseNoZero(rp, cp)
	if accumulate {
		gather(oc, out, sp.Rows, sp.Cols)
	}
	ac.mulBlocked(oc, bc, accumulate, gemmKC, gemmNC)
	if !accumulate {
		out.Zero()
	}
	scatter(out, oc, sp.Rows, sp.Cols)
	PutAll(ac, bc, oc)
}

// gather copies src[rows, cols] into the leading len(rows)×len(cols)
// corner of dst and zeroes the rest of dst (its padding).
func gather(dst, src *Dense, rows, cols []int) {
	r, c := spanLen(rows, src.Rows), spanLen(cols, src.Cols)
	D, S := dst.Cols, src.Cols
	for ii := 0; ii < dst.Rows; ii++ {
		d := dst.Data[ii*D : (ii+1)*D]
		if ii >= r {
			clear(d)
			continue
		}
		s := src.Data[at(rows, ii)*S : (at(rows, ii)+1)*S]
		if cols == nil {
			copy(d, s)
		} else {
			for jj, j := range cols {
				d[jj] = s[j]
			}
		}
		clear(d[c:])
	}
}

// scatter writes the leading len(rows)×len(cols) corner of src into
// dst[rows, cols].
func scatter(dst, src *Dense, rows, cols []int) {
	r, c := spanLen(rows, dst.Rows), spanLen(cols, dst.Cols)
	D, S := dst.Cols, src.Cols
	for ii := 0; ii < r; ii++ {
		s := src.Data[ii*S : ii*S+c]
		d := dst.Data[at(rows, ii)*D : (at(rows, ii)+1)*D]
		if cols == nil {
			copy(d, s)
			continue
		}
		for jj, j := range cols {
			d[j] = s[jj]
		}
	}
}
