// Package cmat provides the complex linear-algebra substrate of negfsim:
// dense complex matrices, CSR sparse matrices, and block-tridiagonal
// containers, together with the multiplication kernels compared in Table 6
// of the paper (Dense-MM, CSRMM, CSRGEMM).
//
// All matrices use complex128 elements and row-major storage. The kernels
// are pure Go; flop accounting (used to regenerate Table 3) is exact and
// publish-once: unexported kernel bodies return their flops, and each
// exported kernel adds them to the package-level Counter once per call, or
// to a caller-owned Tally in its *Tally form (see counter.go).
package cmat

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
)

// Dense is a dense complex matrix in row-major order.
type Dense struct {
	Rows, Cols int
	Data       []complex128
}

// NewDense allocates a zeroed r×c matrix.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("cmat: negative dimensions %d×%d", r, c))
	}
	return &Dense{Rows: r, Cols: c, Data: make([]complex128, r*c)}
}

// DenseFromSlice wraps the given backing slice (not copied) as an r×c matrix.
func DenseFromSlice(r, c int, data []complex128) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("cmat: slice length %d does not match %d×%d", len(data), r, c))
	}
	return &Dense{Rows: r, Cols: c, Data: data}
}

// ViewInto rebinds dst as an r×c view of data without allocating a header;
// the steady-state alternative to DenseFromSlice for hot loops.
func ViewInto(dst *Dense, r, c int, data []complex128) {
	if len(data) != r*c {
		panic(fmt.Sprintf("cmat: slice length %d does not match %d×%d", len(data), r, c))
	}
	dst.Rows, dst.Cols, dst.Data = r, c, data
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// RandomDense returns an r×c matrix with entries drawn uniformly from the
// complex unit square, using the given deterministic source.
func RandomDense(rng *rand.Rand, r, c int) *Dense {
	m := NewDense(r, c)
	for i := range m.Data {
		m.Data[i] = complex(2*rng.Float64()-1, 2*rng.Float64()-1)
	}
	return m
}

// RandomHermitian returns an n×n Hermitian matrix with the given diagonal
// shift added (useful to make it well conditioned or definite).
func RandomHermitian(rng *rand.Rand, n int, shift float64) *Dense {
	a := RandomDense(rng, n, n)
	h := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			h.Data[i*n+j] = 0.5 * (a.Data[i*n+j] + cmplx.Conj(a.Data[j*n+i]))
		}
		h.Data[i*n+i] += complex(shift, 0)
	}
	return h
}

// At returns element (i, j).
func (m *Dense) At(i, j int) complex128 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v complex128) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	n := NewDense(m.Rows, m.Cols)
	copy(n.Data, m.Data)
	return n
}

// CopyFrom overwrites m with the contents of src. Dimensions must match.
func (m *Dense) CopyFrom(src *Dense) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic("cmat: CopyFrom dimension mismatch")
	}
	copy(m.Data, src.Data)
}

// Zero sets every element of m to zero.
func (m *Dense) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Equalish reports whether m and n have the same shape and all elements
// within tol of each other (absolute difference).
func (m *Dense) Equalish(n *Dense, tol float64) bool {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		return false
	}
	for i := range m.Data {
		if cmplx.Abs(m.Data[i]-n.Data[i]) > tol {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest element-wise absolute difference between
// m and n. Panics on shape mismatch.
func (m *Dense) MaxAbsDiff(n *Dense) float64 {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		panic("cmat: MaxAbsDiff dimension mismatch")
	}
	var d float64
	for i := range m.Data {
		if a := cmplx.Abs(m.Data[i] - n.Data[i]); a > d {
			d = a
		}
	}
	return d
}

// FrobNorm returns the Frobenius norm of m.
func (m *Dense) FrobNorm() float64 {
	var s float64
	for _, v := range m.Data {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return math.Sqrt(s)
}

// MaxAbs returns the largest element magnitude in m.
func (m *Dense) MaxAbs() float64 {
	var d float64
	for _, v := range m.Data {
		if a := cmplx.Abs(v); a > d {
			d = a
		}
	}
	return d
}

// Add returns m + n as a new matrix.
func (m *Dense) Add(n *Dense) *Dense {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		panic("cmat: Add dimension mismatch")
	}
	out := NewDense(m.Rows, m.Cols)
	for i := range m.Data {
		out.Data[i] = m.Data[i] + n.Data[i]
	}
	return out
}

// AddInPlace accumulates n into m.
func (m *Dense) AddInPlace(n *Dense) {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		panic("cmat: AddInPlace dimension mismatch")
	}
	for i := range m.Data {
		m.Data[i] += n.Data[i]
	}
}

// AddScaledInPlace accumulates alpha*n into m.
func (m *Dense) AddScaledInPlace(alpha complex128, n *Dense) {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		panic("cmat: AddScaledInPlace dimension mismatch")
	}
	for i := range m.Data {
		m.Data[i] += alpha * n.Data[i]
	}
}

// SubInPlace subtracts n from m element-wise.
func (m *Dense) SubInPlace(n *Dense) {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		panic("cmat: SubInPlace dimension mismatch")
	}
	for i := range m.Data {
		m.Data[i] -= n.Data[i]
	}
}

// Sub returns m − n as a new matrix.
func (m *Dense) Sub(n *Dense) *Dense {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		panic("cmat: Sub dimension mismatch")
	}
	out := NewDense(m.Rows, m.Cols)
	for i := range m.Data {
		out.Data[i] = m.Data[i] - n.Data[i]
	}
	return out
}

// Scale returns alpha*m as a new matrix.
func (m *Dense) Scale(alpha complex128) *Dense {
	out := NewDense(m.Rows, m.Cols)
	for i := range m.Data {
		out.Data[i] = alpha * m.Data[i]
	}
	return out
}

// ScaleInPlace multiplies every element of m by alpha.
func (m *Dense) ScaleInPlace(alpha complex128) {
	for i := range m.Data {
		m.Data[i] *= alpha
	}
}

// Transpose returns mᵀ as a new matrix.
func (m *Dense) Transpose() *Dense {
	out := NewDense(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Data[j*m.Rows+i] = m.Data[i*m.Cols+j]
		}
	}
	return out
}

// ConjTranspose returns the Hermitian adjoint m^H as a new matrix.
func (m *Dense) ConjTranspose() *Dense {
	out := NewDense(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Data[j*m.Rows+i] = cmplx.Conj(m.Data[i*m.Cols+j])
		}
	}
	return out
}

// ConjTransposeInto writes m^H into dst, which must have shape
// m.Cols × m.Rows and must not alias m.
func (m *Dense) ConjTransposeInto(dst *Dense) {
	if dst.Rows != m.Cols || dst.Cols != m.Rows {
		panic("cmat: ConjTransposeInto output shape mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			dst.Data[j*m.Rows+i] = cmplx.Conj(m.Data[i*m.Cols+j])
		}
	}
}

// IsHermitian reports whether m equals its conjugate transpose within tol.
func (m *Dense) IsHermitian(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for j := i; j < m.Cols; j++ {
			if cmplx.Abs(m.Data[i*m.Cols+j]-cmplx.Conj(m.Data[j*m.Cols+i])) > tol {
				return false
			}
		}
	}
	return true
}

// Trace returns the sum of diagonal elements. Panics if m is not square.
func (m *Dense) Trace() complex128 {
	if m.Rows != m.Cols {
		panic("cmat: Trace of non-square matrix")
	}
	var t complex128
	for i := 0; i < m.Rows; i++ {
		t += m.Data[i*m.Cols+i]
	}
	return t
}

// Mul returns m·n as a new matrix. The inner loops are ordered i-k-j so the
// innermost traversal is unit-stride on both the output row and the row of n.
func (m *Dense) Mul(n *Dense) *Dense {
	out := NewDense(m.Rows, n.Cols)
	m.MulInto(out, n)
	return out
}

// MulInto computes out = m·n. out must be preallocated with shape
// m.Rows × n.Cols; it is overwritten. Large dense products run through the
// cache-blocked engine of gemm.go, which overwrites directly instead of
// zeroing first.
func (m *Dense) MulInto(out, n *Dense) { Counter.AddFlops(m.mulInto(out, n, false)) }

// MulIntoTally is MulInto counting into the caller's tally t.
func (m *Dense) MulIntoTally(out, n *Dense, t *Tally) { *t += Tally(m.mulInto(out, n, false)) }

// MulAddInto computes out += m·n without zeroing out first. Small or
// sparse-ish products take the naive i-k-j loop; large dense ones the
// cache-blocked engine (see gemm.go for the crossover).
func (m *Dense) MulAddInto(out, n *Dense) { Counter.AddFlops(m.mulInto(out, n, true)) }

// mulInto is the body of MulInto (accumulate false) and MulAddInto
// (accumulate true); it returns the flops of the product.
func (m *Dense) mulInto(out, n *Dense, accumulate bool) uint64 {
	if m.Cols != n.Rows {
		panic(fmt.Sprintf("cmat: Mul dimension mismatch %d×%d · %d×%d", m.Rows, m.Cols, n.Rows, n.Cols))
	}
	if out.Rows != m.Rows || out.Cols != n.Cols {
		if accumulate {
			panic("cmat: MulAddInto output shape mismatch")
		}
		panic("cmat: MulInto output shape mismatch")
	}
	m.gemm(out, n, accumulate)
	return uint64(8 * m.Rows * m.Cols * n.Cols)
}

// MulHerm returns m·n^H as a new matrix without materializing n^H.
func (m *Dense) MulHerm(n *Dense) *Dense {
	if m.Cols != n.Cols {
		panic("cmat: MulHerm dimension mismatch")
	}
	out := NewDense(m.Rows, n.Rows)
	R, K, C := m.Rows, m.Cols, n.Rows
	for i := 0; i < R; i++ {
		mrow := m.Data[i*K : (i+1)*K]
		orow := out.Data[i*C : (i+1)*C]
		for j := 0; j < C; j++ {
			nrow := n.Data[j*K : (j+1)*K]
			var s complex128
			for k := 0; k < K; k++ {
				s += mrow[k] * cmplx.Conj(nrow[k])
			}
			orow[j] = s
		}
	}
	Counter.AddGEMM(R, K, C)
	return out
}

// Submatrix copies rows [r0,r1) and columns [c0,c1) into a new matrix.
func (m *Dense) Submatrix(r0, r1, c0, c1 int) *Dense {
	if r0 < 0 || c0 < 0 || r1 > m.Rows || c1 > m.Cols || r0 > r1 || c0 > c1 {
		panic("cmat: Submatrix bounds out of range")
	}
	out := NewDense(r1-r0, c1-c0)
	m.SubmatrixInto(out, r0, c0)
	return out
}

// SubmatrixInto copies the dst-shaped block of m at (r0, c0) into dst: the
// allocation-free Submatrix for a caller-owned destination.
func (m *Dense) SubmatrixInto(dst *Dense, r0, c0 int) {
	if r0 < 0 || c0 < 0 || r0+dst.Rows > m.Rows || c0+dst.Cols > m.Cols {
		panic("cmat: SubmatrixInto bounds out of range")
	}
	for i := 0; i < dst.Rows; i++ {
		copy(dst.Data[i*dst.Cols:(i+1)*dst.Cols], m.Data[(r0+i)*m.Cols+c0:(r0+i)*m.Cols+c0+dst.Cols])
	}
}

// SetSubmatrix writes src into m starting at (r0, c0).
func (m *Dense) SetSubmatrix(r0, c0 int, src *Dense) {
	if r0+src.Rows > m.Rows || c0+src.Cols > m.Cols || r0 < 0 || c0 < 0 {
		panic("cmat: SetSubmatrix bounds out of range")
	}
	for i := 0; i < src.Rows; i++ {
		copy(m.Data[(r0+i)*m.Cols+c0:(r0+i)*m.Cols+c0+src.Cols], src.Data[i*src.Cols:(i+1)*src.Cols])
	}
}

// String renders small matrices for debugging.
func (m *Dense) String() string {
	s := fmt.Sprintf("Dense %d×%d", m.Rows, m.Cols)
	if m.Rows*m.Cols <= 64 {
		for i := 0; i < m.Rows; i++ {
			s += "\n"
			for j := 0; j < m.Cols; j++ {
				s += fmt.Sprintf(" %6.3f%+6.3fi", real(m.At(i, j)), imag(m.At(i, j)))
			}
		}
	}
	return s
}

// TransMul returns mᵀ·n without materializing the transpose. Shapes:
// m is K×R, n is K×C, result is R×C. The loop order keeps the inner
// traversal unit-stride on n and the output.
func (m *Dense) TransMul(n *Dense) *Dense {
	if m.Rows != n.Rows {
		panic(fmt.Sprintf("cmat: TransMul dimension mismatch %d×%d ᵀ· %d×%d", m.Rows, m.Cols, n.Rows, n.Cols))
	}
	out := NewDense(m.Cols, n.Cols)
	m.TransMulAddInto(out, n)
	return out
}

// TransMulAddInto computes out += mᵀ·n.
func (m *Dense) TransMulAddInto(out, n *Dense) {
	if m.Rows != n.Rows {
		panic(fmt.Sprintf("cmat: TransMul dimension mismatch %d×%d ᵀ· %d×%d", m.Rows, m.Cols, n.Rows, n.Cols))
	}
	if out.Rows != m.Cols || out.Cols != n.Cols {
		panic("cmat: TransMulAddInto output shape mismatch")
	}
	K, R, C := m.Rows, m.Cols, n.Cols
	for k := 0; k < K; k++ {
		mrow := m.Data[k*R : (k+1)*R]
		nrow := n.Data[k*C : (k+1)*C]
		for i := 0; i < R; i++ {
			a := mrow[i]
			if a == 0 {
				continue
			}
			orow := out.Data[i*C : (i+1)*C]
			for j := 0; j < C; j++ {
				orow[j] += a * nrow[j]
			}
		}
	}
	Counter.AddGEMM(R, K, C)
}

// TraceMul returns tr(m·n) in O(R·C) without forming the product.
func (m *Dense) TraceMul(n *Dense) complex128 {
	tr, flops := m.traceMul(n)
	Counter.AddFlops(flops)
	return tr
}

// traceMul is the body of TraceMul; it returns the trace and its flops.
func (m *Dense) traceMul(n *Dense) (complex128, uint64) {
	if m.Cols != n.Rows || m.Rows != n.Cols {
		panic("cmat: TraceMul needs m R×C and n C×R")
	}
	var t complex128
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			t += m.Data[i*m.Cols+k] * n.Data[k*n.Cols+i]
		}
	}
	return t, uint64(8 * m.Rows * m.Cols)
}
