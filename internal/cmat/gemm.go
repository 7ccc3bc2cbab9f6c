package cmat

import "negfsim/internal/num"

// Blocked GEMM engine. The paper wins its single-node speedups by turning
// myriads of tiny Norb×Norb multiplications into large, well-scheduled GEMMs
// at the SDFG level; this file applies the same kernel-granularity idea at
// the runtime level. Large dense products run through a cache-blocked,
// panel-packed, register-tiled kernel; small products (the Norb×Norb blocks
// of the SSE stage) and sparse-ish operands (Hamiltonian blocks with ~5%
// fill, where the naive kernel's zero-skip wins) keep the simple i-k-j loop,
// which also serves as the property-test oracle.
//
// Blocking scheme (see DESIGN.md §9):
//
//   - The K dimension is split into panels of gemmKC rows of B.
//   - The C dimension is split into panels of gemmNC columns; each kc×nc
//     panel of B is packed into strips of gemmNR contiguous columns
//     (k-major within a strip), so the micro-kernel streams B unit-stride
//     out of L1/L2 regardless of the source leading dimension.
//   - The micro-kernel computes a gemmMR×gemmNR output tile with the
//     accumulators held in registers across the whole kc loop, eliminating
//     the per-k load/store traffic on the output row that bounds the naive
//     kernel. The R mod gemmMR rows left over run 2×4 and 1×4 tiles, and
//     so does the pure Go path; every tile gives an element the same
//     summation, so the tiling never changes a bit of the result.
//
// The panel sizes and dispatch thresholds are compile-time constants, so a
// product's summation order depends only on its operands, never on the host
// (EXPERIMENTS.md records why a measured per-host search was dropped).
const (
	gemmKC = 192 // K-panel height: one packed strip is gemmKC·gemmNR·16 B
	gemmNC = 64  // column-panel width: a packed panel is ≤ gemmKC·gemmNC·16 B ≈ 192 KiB
	gemmNR = 4   // micro-tile width (columns)
	gemmMR = 4   // assembly micro-tile height (rows); R mod 4 rows and the Go path use 2-row tiles

	// blockedMinWork is the R·K·C product volume above which the blocked
	// engine is tried; below it the packing and dispatch overhead exceeds
	// the cache savings and the naive kernel wins.
	blockedMinWork = 32 * 32 * 32

	// axpyMinLen is the shortest row the assembly AXPY (caxpyAdd,
	// caxpySub) takes under the naive product and LU: below it the call
	// costs more than the inlined scalar loop it replaces.
	axpyMinLen = 3

	// blockedMinDensity is the minimum nonzero fraction of the left operand
	// for the blocked path: below it the naive kernel's a==0 row skip
	// (Hamiltonian blocks are ~5% dense) beats the dense micro-kernel.
	blockedMinDensity = 0.25
)

// mulAddNaive is the original i-k-j triple loop with the zero-skip on the
// left operand. It is the oracle the blocked kernel is property-tested
// against and the fast path for small or sparse operands.
func (m *Dense) mulAddNaive(out, n *Dense) {
	R, K, C := m.Rows, m.Cols, n.Cols
	vec := useAsmKernel && C >= axpyMinLen
	for i := 0; i < R; i++ {
		mrow := m.Data[i*K : (i+1)*K]
		orow := out.Data[i*C : (i+1)*C]
		for k := 0; k < K; k++ {
			a := mrow[k]
			if a == 0 {
				continue
			}
			nrow := n.Data[k*C : (k+1)*C]
			if vec {
				caxpyAdd(&orow[0], &nrow[0], real(a), imag(a), C)
				continue
			}
			for j := 0; j < C; j++ {
				orow[j] += a * nrow[j]
			}
		}
	}
}

// gemm computes out += m·n (accumulate) or out = m·n, dispatching between
// the naive and the blocked kernel on size and left-operand density.
func (m *Dense) gemm(out, n *Dense, accumulate bool) {
	if m.Cols == 0 {
		if !accumulate {
			out.Zero()
		}
		return
	}
	if !m.blockedFor(n) {
		if !accumulate {
			out.Zero()
		}
		m.mulAddNaive(out, n)
		return
	}
	m.mulBlocked(out, n, accumulate, gemmKC, gemmNC, Span{})
}

// blockedFor reports whether gemm runs m·n on the blocked engine: a product
// large enough to pay for the packing, at least one strip wide, with a
// dense enough left operand.
func (m *Dense) blockedFor(n *Dense) bool {
	R, K, C := m.Rows, m.Cols, n.Cols
	return R*K*C >= blockedMinWork && C >= gemmNR && denseEnough(m, blockedMinDensity)
}

// denseEnough reports whether at least minDensity of m's entries are
// nonzero, returning early as soon as the threshold is reached.
func denseEnough(m *Dense, minDensity float64) bool {
	need := int(minDensity*float64(len(m.Data))) + 1
	nz := 0
	for _, v := range m.Data {
		if v != 0 {
			nz++
			if nz >= need {
				return true
			}
		}
	}
	return false
}

// mulBlocked is the cache-blocked kernel: panel packing of B plus a
// register-tiled gemmMR×gemmNR micro-kernel, over the span sp (the zero
// Span for the whole product). kcMax and ncMax are the K-panel height and
// column-panel width (gemmKC and gemmNC on the dispatch path; tests pass
// other geometries to exercise the panel tails).
//
// A span runs on the whole product's tile grid, reading and writing the
// operands where they lie: each K-panel of the whole product, counted from
// 0, is clipped to sp.Inner (the terms dropped are exact zeros, and an
// accumulator that starts at +0 is not moved by them); sp.Cols rounds out
// to whole gemmNR strips of each column panel, so a column tail strip stays
// the Go tail; sp.Rows rounds out to the whole product's row pairs. Every
// element in the span is then summed over the same k-order as in the whole
// product, by the same micro-kernel or a row tile that gives it the same
// bits, and the rows and columns the rounding adds receive exact zeros.
func (m *Dense) mulBlocked(out, n *Dense, accumulate bool, kcMax, ncMax int, sp Span) {
	R, K, C := m.Rows, m.Cols, n.Cols
	i0, i1 := sp.Rows.bounds(R)
	k0, k1 := sp.Inner.bounds(K)
	j0, j1 := sp.Cols.bounds(C)
	i0, i1 = i0-i0%2, min(i1+i1%2, R)
	if C < ncMax {
		ncMax = C
	}
	stripsMax := num.CeilDiv(ncMax, gemmNR)
	pack := GetDenseNoZero(1, kcMax*stripsMax*gemmNR)
	pb := pack.Data
	// The first K-panel may overwrite; subsequent panels accumulate on top
	// of it.
	acc := accumulate
	for kp := k0 - k0%kcMax; kp < k1; kp += kcMax {
		kb := max(kp, k0)
		kc := min(kp+kcMax, k1) - kb
		for jp := j0 - j0%ncMax; jp < j1; jp += ncMax {
			// The span's whole strips of the column panel at jp.
			jb := jp + (max(jp, j0)-jp)/gemmNR*gemmNR
			nc := min(jp+ncMax, C, jp+num.CeilDiv(j1-jp, gemmNR)*gemmNR) - jb
			packPanel(pb, n, kb, kc, jb, nc)
			// ncFull is the widest jj for which a full gemmNR strip fits; the
			// assembly kernels handle only full strips (they store 4 columns
			// unconditionally), the Go micro-kernels cover column tails.
			ncFull := 0
			if useAsmKernel {
				ncFull = nc - nc%gemmNR
			}
			i := i0
			if useAsmKernel {
				for ; i+gemmMR <= i1; i += gemmMR {
					a := m.Data[i*K+kb:]
					o := out.Data[i*C+jb:]
					for jj := 0; jj < ncFull; jj += gemmNR {
						gemmKernel4x4(&a[0], &pb[(jj/gemmNR)*kc*gemmNR], &o[jj], K, C, kc, acc)
					}
					m.tail2x4(out, pb, i, kb, kc, jb, ncFull, nc, acc)
					m.tail2x4(out, pb, i+2, kb, kc, jb, ncFull, nc, acc)
				}
			}
			for ; i+2 <= i1; i += 2 {
				a0, a1 := m.Data[i*K+kb:], m.Data[(i+1)*K+kb:]
				for jj := 0; jj < ncFull; jj += gemmNR {
					gemmKernel2x4(&a0[0], &a1[0], &pb[(jj/gemmNR)*kc*gemmNR],
						&out.Data[i*C+jb+jj], &out.Data[(i+1)*C+jb+jj], kc, acc)
				}
				m.tail2x4(out, pb, i, kb, kc, jb, ncFull, nc, acc)
			}
			for ; i < i1; i++ {
				a0 := m.Data[i*K+kb : i*K+kb+kc : i*K+kb+kc]
				jj := 0
				for ; jj < ncFull; jj += gemmNR {
					gemmKernel1x4(&a0[0], &pb[(jj/gemmNR)*kc*gemmNR],
						&out.Data[i*C+jb+jj], kc, acc)
				}
				for ; jj < nc; jj += gemmNR {
					c0, c1, c2, c3 := micro1x4(a0, pb[(jj/gemmNR)*kc*gemmNR:], kc)
					storeRow(out, i, jb+jj, nc-jj, acc, c0, c1, c2, c3)
				}
			}
		}
		acc = true
	}
	PutDense(pack)
}

// tail2x4 runs the Go micro2x4 over rows i and i+1 of the panel's strips
// from column jj0 to nc: the column tail the assembly kernels leave, or
// every strip when they are off.
func (m *Dense) tail2x4(out *Dense, pb []complex128, i, kb, kc, jb, jj0, nc int, acc bool) {
	K := m.Cols
	a0 := m.Data[i*K+kb : i*K+kb+kc : i*K+kb+kc]
	a1 := m.Data[(i+1)*K+kb : (i+1)*K+kb+kc : (i+1)*K+kb+kc]
	for jj := jj0; jj < nc; jj += gemmNR {
		c00, c01, c02, c03, c10, c11, c12, c13 := micro2x4(a0, a1, pb[(jj/gemmNR)*kc*gemmNR:], kc)
		storeTile(out, i, jb+jj, nc-jj, acc,
			c00, c01, c02, c03, c10, c11, c12, c13)
	}
}

// packPanel copies the kc×nc panel of n starting at (kb, jb) into pb as
// strips of gemmNR columns, k-major within each strip; strip s occupies
// pb[s·kc·gemmNR : (s+1)·kc·gemmNR]. Columns beyond nc are zero-padded so
// the micro-kernel never branches on the column tail.
func packPanel(pb []complex128, n *Dense, kb, kc, jb, nc int) {
	C := n.Cols
	for s := 0; s*gemmNR < nc; s++ {
		j0 := jb + s*gemmNR
		w := nc - s*gemmNR
		if w > gemmNR {
			w = gemmNR
		}
		dst := pb[s*kc*gemmNR:]
		for k := 0; k < kc; k++ {
			src := n.Data[(kb+k)*C+j0 : (kb+k)*C+j0+w]
			d := dst[k*gemmNR : k*gemmNR+gemmNR]
			switch w {
			case gemmNR:
				d[0], d[1], d[2], d[3] = src[0], src[1], src[2], src[3]
			case 3:
				d[0], d[1], d[2], d[3] = src[0], src[1], src[2], 0
			case 2:
				d[0], d[1], d[2], d[3] = src[0], src[1], 0, 0
			case 1:
				d[0], d[1], d[2], d[3] = src[0], 0, 0, 0
			}
		}
	}
}

// micro2x4 accumulates a 2×4 output tile over kc steps: two rows of A
// against one packed gemmNR strip of B.
func micro2x4(a0, a1, bp []complex128, kc int) (c00, c01, c02, c03, c10, c11, c12, c13 complex128) {
	bp = bp[: kc*gemmNR : kc*gemmNR]
	for k := 0; k < kc; k++ {
		b := bp[k*gemmNR : k*gemmNR+gemmNR : k*gemmNR+gemmNR]
		b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
		ra := a0[k]
		c00 += ra * b0
		c01 += ra * b1
		c02 += ra * b2
		c03 += ra * b3
		rb := a1[k]
		c10 += rb * b0
		c11 += rb * b1
		c12 += rb * b2
		c13 += rb * b3
	}
	return
}

// micro1x4 is the single-row tail variant of micro2x4.
func micro1x4(a0, bp []complex128, kc int) (c0, c1, c2, c3 complex128) {
	bp = bp[: kc*gemmNR : kc*gemmNR]
	for k := 0; k < kc; k++ {
		b := bp[k*gemmNR : k*gemmNR+gemmNR : k*gemmNR+gemmNR]
		ra := a0[k]
		c0 += ra * b[0]
		c1 += ra * b[1]
		c2 += ra * b[2]
		c3 += ra * b[3]
	}
	return
}

// storeTile writes a 2×4 accumulator tile into out at (i, j), accumulating
// or overwriting, honouring the column tail width w.
func storeTile(out *Dense, i, j, w int, acc bool, c00, c01, c02, c03, c10, c11, c12, c13 complex128) {
	if w > gemmNR {
		w = gemmNR
	}
	C := out.Cols
	o0 := out.Data[i*C+j : i*C+j+w]
	o1 := out.Data[(i+1)*C+j : (i+1)*C+j+w]
	if acc {
		switch w {
		case 4:
			o0[0] += c00
			o0[1] += c01
			o0[2] += c02
			o0[3] += c03
			o1[0] += c10
			o1[1] += c11
			o1[2] += c12
			o1[3] += c13
		case 3:
			o0[0] += c00
			o0[1] += c01
			o0[2] += c02
			o1[0] += c10
			o1[1] += c11
			o1[2] += c12
		case 2:
			o0[0] += c00
			o0[1] += c01
			o1[0] += c10
			o1[1] += c11
		case 1:
			o0[0] += c00
			o1[0] += c10
		}
		return
	}
	switch w {
	case 4:
		o0[0], o0[1], o0[2], o0[3] = c00, c01, c02, c03
		o1[0], o1[1], o1[2], o1[3] = c10, c11, c12, c13
	case 3:
		o0[0], o0[1], o0[2] = c00, c01, c02
		o1[0], o1[1], o1[2] = c10, c11, c12
	case 2:
		o0[0], o0[1] = c00, c01
		o1[0], o1[1] = c10, c11
	case 1:
		o0[0] = c00
		o1[0] = c10
	}
}

// storeRow writes a 1×4 accumulator row into out at (i, j).
func storeRow(out *Dense, i, j, w int, acc bool, c0, c1, c2, c3 complex128) {
	if w > gemmNR {
		w = gemmNR
	}
	C := out.Cols
	o := out.Data[i*C+j : i*C+j+w]
	if acc {
		switch w {
		case 4:
			o[0] += c0
			o[1] += c1
			o[2] += c2
			o[3] += c3
		case 3:
			o[0] += c0
			o[1] += c1
			o[2] += c2
		case 2:
			o[0] += c0
			o[1] += c1
		case 1:
			o[0] += c0
		}
		return
	}
	switch w {
	case 4:
		o[0], o[1], o[2], o[3] = c0, c1, c2, c3
	case 3:
		o[0], o[1], o[2] = c0, c1, c2
	case 2:
		o[0], o[1] = c0, c1
	case 1:
		o[0] = c0
	}
}
