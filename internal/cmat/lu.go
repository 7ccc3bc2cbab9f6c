package cmat

import (
	"errors"
	"math/cmplx"
)

// ErrSingular is returned when a factorization encounters a (numerically)
// singular matrix.
var ErrSingular = errors.New("cmat: matrix is singular to working precision")

// LU holds an LU factorization with partial pivoting: P·A = L·U, where L is
// unit lower triangular and U upper triangular, both packed into lu.
type LU struct {
	lu   *Dense
	piv  []int
	sign int
}

// FactorLU computes the LU factorization of a (which is not modified). The
// factorization scratch comes from the workspace arena; call Release when the
// factor is no longer needed to return it (otherwise the GC collects it).
func FactorLU(a *Dense) (*LU, error) {
	f := new(LU)
	flops, err := factorLUInto(f, a)
	if err != nil {
		return nil, err
	}
	Counter.AddFlops(flops)
	return f, nil
}

// factorLUInto factors a into a caller-provided (possibly stack-allocated)
// LU value, so steady-state callers pay no header allocation. It returns the
// flops of the factorization.
func factorLUInto(f *LU, a *Dense) (uint64, error) {
	if a.Rows != a.Cols {
		return 0, errors.New("cmat: LU of non-square matrix")
	}
	n := a.Rows
	lu := GetDenseNoZero(n, n)
	lu.CopyFrom(a)
	piv := getInts(n)
	for i := range piv {
		piv[i] = i
	}
	sign := 1
	d := lu.Data
	for k := 0; k < n; k++ {
		// Partial pivoting: find the largest magnitude in column k.
		p := k
		pmax := cmplx.Abs(d[k*n+k])
		for i := k + 1; i < n; i++ {
			if m := cmplx.Abs(d[i*n+k]); m > pmax {
				pmax, p = m, i
			}
		}
		if pmax == 0 {
			PutDense(lu)
			putInts(piv)
			return 0, ErrSingular
		}
		if p != k {
			for j := 0; j < n; j++ {
				d[k*n+j], d[p*n+j] = d[p*n+j], d[k*n+j]
			}
			piv[k], piv[p] = piv[p], piv[k]
			sign = -sign
		}
		pivVal := d[k*n+k]
		w := n - k - 1 // length of this step's row updates
		vec := useAsmKernel && w >= axpyMinLen
		for i := k + 1; i < n; i++ {
			m := d[i*n+k] / pivVal
			d[i*n+k] = m
			if m == 0 {
				continue
			}
			if vec {
				caxpySub(&d[i*n+k+1], &d[k*n+k+1], real(m), imag(m), w)
				continue
			}
			for j := k + 1; j < n; j++ {
				d[i*n+j] -= m * d[k*n+j]
			}
		}
	}
	f.lu, f.piv, f.sign = lu, piv, sign
	return uint64(8 * n * n * n / 3), nil
}

// Release returns the factorization scratch to the workspace arena. The
// factor must not be used afterwards.
func (f *LU) Release() {
	PutDense(f.lu)
	putInts(f.piv)
	f.lu, f.piv = nil, nil
}

// Solve returns X such that A·X = B, where A is the factored matrix.
func (f *LU) Solve(b *Dense) *Dense {
	x := NewDense(f.lu.Rows, b.Cols)
	f.SolveInto(x, b)
	return x
}

// SolveInto computes X with A·X = B into x (which must be b-shaped and must
// not alias b).
func (f *LU) SolveInto(x, b *Dense) {
	n := f.lu.Rows
	if b.Rows != n {
		panic("cmat: LU.Solve dimension mismatch")
	}
	if x.Rows != b.Rows || x.Cols != b.Cols {
		panic("cmat: LU.SolveInto output shape mismatch")
	}
	nc := b.Cols
	// Apply the row permutation to B.
	for i := 0; i < n; i++ {
		copy(x.Data[i*nc:(i+1)*nc], b.Data[f.piv[i]*nc:(f.piv[i]+1)*nc])
	}
	Counter.AddFlops(f.substitute(x))
}

// substitute runs the forward and back substitution on the (already
// permuted) right-hand side x in place and returns its flops.
func (f *LU) substitute(x *Dense) uint64 {
	n := f.lu.Rows
	nc := x.Cols
	d := f.lu.Data
	vec := useAsmKernel && nc >= axpyMinLen
	// Forward substitution with unit-diagonal L.
	for i := 1; i < n; i++ {
		xi := x.Data[i*nc : (i+1)*nc]
		for k := 0; k < i; k++ {
			m := d[i*n+k]
			if m == 0 {
				continue
			}
			xk := x.Data[k*nc : (k+1)*nc]
			if vec {
				caxpySub(&xi[0], &xk[0], real(m), imag(m), nc)
				continue
			}
			for j := 0; j < nc; j++ {
				xi[j] -= m * xk[j]
			}
		}
	}
	// Back substitution with U.
	for i := n - 1; i >= 0; i-- {
		xi := x.Data[i*nc : (i+1)*nc]
		for k := i + 1; k < n; k++ {
			m := d[i*n+k]
			if m == 0 {
				continue
			}
			xk := x.Data[k*nc : (k+1)*nc]
			if vec {
				caxpySub(&xi[0], &xk[0], real(m), imag(m), nc)
				continue
			}
			for j := 0; j < nc; j++ {
				xi[j] -= m * xk[j]
			}
		}
		inv := 1 / d[i*n+i]
		for j := 0; j < nc; j++ {
			xi[j] *= inv
		}
	}
	return uint64(8 * n * n * nc)
}

// Det returns the determinant of the factored matrix.
func (f *LU) Det() complex128 {
	n := f.lu.Rows
	det := complex(float64(f.sign), 0)
	for i := 0; i < n; i++ {
		det *= f.lu.Data[i*n+i]
	}
	return det
}

// Inverse returns A⁻¹ for a square matrix A using LU with partial pivoting.
func Inverse(a *Dense) (*Dense, error) {
	dst := NewDense(a.Rows, a.Cols)
	if err := InverseInto(dst, a); err != nil {
		return nil, err
	}
	return dst, nil
}

// InverseInto computes dst = a⁻¹ with all factorization scratch drawn from
// (and returned to) the workspace arena: the steady-state allocation count is
// zero. dst must be a-shaped and must not alias a.
func InverseInto(dst, a *Dense) error {
	if dst.Rows != a.Rows || dst.Cols != a.Cols {
		panic("cmat: InverseInto output shape mismatch")
	}
	var f LU // stack header; the scratch behind it is arena-backed
	flops, err := factorLUInto(&f, a)
	if err != nil {
		return err
	}
	// The permuted identity right-hand side: row i of X starts as row piv[i]
	// of I, i.e. a single 1 in column piv[i].
	n := a.Rows
	dst.Zero()
	for i := 0; i < n; i++ {
		dst.Data[i*n+f.piv[i]] = 1
	}
	flops += f.substitute(dst)
	f.Release()
	Counter.AddFlops(flops)
	return nil
}

// Solve returns X with A·X = B.
func Solve(a, b *Dense) (*Dense, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}
