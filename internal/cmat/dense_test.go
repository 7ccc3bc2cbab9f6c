package cmat

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewDenseZeroed(t *testing.T) {
	m := NewDense(3, 4)
	if m.Rows != 3 || m.Cols != 4 {
		t.Fatalf("shape = %d×%d, want 3×4", m.Rows, m.Cols)
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := complex128(0)
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Fatalf("I[%d,%d] = %v, want %v", i, j, id.At(i, j), want)
			}
		}
	}
}

func TestAtSet(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(1, 2, 3+4i)
	if got := m.At(1, 2); got != 3+4i {
		t.Fatalf("At(1,2) = %v, want 3+4i", got)
	}
	if m.Data[1*3+2] != 3+4i {
		t.Fatal("row-major layout violated")
	}
}

func TestMulKnown(t *testing.T) {
	a := DenseFromSlice(2, 2, []complex128{1, 2, 3, 4})
	b := DenseFromSlice(2, 2, []complex128{5, 6, 7, 8})
	got := a.Mul(b)
	want := DenseFromSlice(2, 2, []complex128{19, 22, 43, 50})
	if !got.Equalish(want, 0) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestMulComplex(t *testing.T) {
	a := DenseFromSlice(1, 1, []complex128{1 + 2i})
	b := DenseFromSlice(1, 1, []complex128{3 - 1i})
	if got := a.Mul(b).At(0, 0); got != (5 + 5i) {
		t.Fatalf("(1+2i)(3-1i) = %v, want 5+5i", got)
	}
}

func TestMulIdentityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		a := RandomDense(rng, n, n)
		return a.Mul(Identity(n)).Equalish(a, 1e-12) &&
			Identity(n).Mul(a).Equalish(a, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestMulAssociativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n, p := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a := RandomDense(r, m, k)
		b := RandomDense(r, k, n)
		c := RandomDense(r, n, p)
		left := a.Mul(b).Mul(c)
		right := a.Mul(b.Mul(c))
		return left.Equalish(right, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestConjTransposeProductProperty(t *testing.T) {
	// (A·B)^H = B^H · A^H
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a := RandomDense(r, m, k)
		b := RandomDense(r, k, n)
		return a.Mul(b).ConjTranspose().Equalish(b.ConjTranspose().Mul(a.ConjTranspose()), 1e-11)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := RandomDense(r, 1+r.Intn(7), 1+r.Intn(7))
		return a.Transpose().Transpose().Equalish(a, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestAddSubScale(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	a := RandomDense(r, 4, 3)
	b := RandomDense(r, 4, 3)
	if !a.Add(b).Sub(b).Equalish(a, 1e-14) {
		t.Fatal("(a+b)-b != a")
	}
	if !a.Scale(2).Equalish(a.Add(a), 1e-14) {
		t.Fatal("2a != a+a")
	}
	c := a.Clone()
	c.AddScaledInPlace(-1, a)
	if c.MaxAbs() != 0 {
		t.Fatal("a + (-1)a != 0")
	}
}

func TestRandomHermitianIsHermitian(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	h := RandomHermitian(r, 9, 2)
	if !h.IsHermitian(1e-15) {
		t.Fatal("RandomHermitian produced a non-Hermitian matrix")
	}
	// Diagonal must be real (Hermitian) and shifted.
	for i := 0; i < 9; i++ {
		if imag(h.At(i, i)) != 0 {
			t.Fatalf("diagonal element %d has imaginary part %g", i, imag(h.At(i, i)))
		}
	}
}

func TestTraceAndNorm(t *testing.T) {
	a := DenseFromSlice(2, 2, []complex128{1 + 1i, 0, 0, 2 - 1i})
	if got := a.Trace(); got != 3 {
		t.Fatalf("trace = %v, want 3", got)
	}
	want := math.Sqrt(2 + 0 + 0 + 5)
	if got := a.FrobNorm(); math.Abs(got-want) > 1e-14 {
		t.Fatalf("frobenius = %g, want %g", got, want)
	}
}

func TestSubmatrixRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	a := RandomDense(r, 6, 8)
	s := a.Submatrix(2, 5, 1, 4)
	if s.Rows != 3 || s.Cols != 3 {
		t.Fatalf("submatrix shape %d×%d, want 3×3", s.Rows, s.Cols)
	}
	b := NewDense(6, 8)
	b.SetSubmatrix(2, 1, s)
	for i := 2; i < 5; i++ {
		for j := 1; j < 4; j++ {
			if b.At(i, j) != a.At(i, j) {
				t.Fatalf("round trip mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMulIntoAndMulAddInto(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	a := RandomDense(r, 3, 4)
	b := RandomDense(r, 4, 5)
	out := NewDense(3, 5)
	a.MulInto(out, b)
	if !out.Equalish(a.Mul(b), 0) {
		t.Fatal("MulInto differs from Mul")
	}
	a.MulAddInto(out, b)
	if !out.Equalish(a.Mul(b).Scale(2), 1e-13) {
		t.Fatal("MulAddInto did not accumulate")
	}
}

func TestMulPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	NewDense(2, 3).Mul(NewDense(2, 3))
}

func TestMaxAbsDiff(t *testing.T) {
	a := DenseFromSlice(1, 2, []complex128{1, 2})
	b := DenseFromSlice(1, 2, []complex128{1, 2 + 3i})
	if got := a.MaxAbsDiff(b); math.Abs(got-3) > 1e-15 {
		t.Fatalf("MaxAbsDiff = %g, want 3", got)
	}
}

func TestHermitianDetection(t *testing.T) {
	h := DenseFromSlice(2, 2, []complex128{1, 2 + 1i, 2 - 1i, 3})
	if !h.IsHermitian(0) {
		t.Fatal("should be Hermitian")
	}
	h.Set(0, 1, 2+2i)
	if h.IsHermitian(1e-3) {
		t.Fatal("should not be Hermitian")
	}
	if !h.IsHermitian(2) {
		t.Fatal("should be Hermitian within loose tolerance")
	}
}

func TestFlopCounterGEMM(t *testing.T) {
	Counter.Reset()
	a := NewDense(3, 4)
	for i := range a.Data {
		a.Data[i] = 1
	}
	b := NewDense(4, 5)
	a.Mul(b)
	if got, want := Counter.Reset(), uint64(8*3*4*5); got != want {
		t.Fatalf("GEMM flops = %d, want %d", got, want)
	}
}

func TestScaleConjugation(t *testing.T) {
	// Scaling by i then by -i is the identity.
	r := rand.New(rand.NewSource(21))
	a := RandomDense(r, 3, 3)
	b := a.Scale(1i).Scale(-1i)
	if !b.Equalish(a, 1e-15) {
		t.Fatal("i·(-i)·A != A")
	}
	_ = cmplx.Abs // keep import alive under edits
}

func TestTraceMulMatchesExplicit(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	a := RandomDense(r, 4, 6)
	b := RandomDense(r, 6, 4)
	got := a.TraceMul(b)
	want := a.Mul(b).Trace()
	if cmplx.Abs(got-want) > 1e-12 {
		t.Fatalf("TraceMul = %v, want %v", got, want)
	}
}
