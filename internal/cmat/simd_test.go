package cmat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The amd64 kernels' contract is bitwise: the 4×4 GEMM tile gives every
// element the bits the 2×4/1×4 tiles give it, and the AXPY gives the bits of
// the scalar complex128 loop. The scalar oracles below round every product
// and sum through an explicit float64 conversion, which the Go spec forbids
// fusing into an FMA, so the pins hold under every GOAMD64 level.

// sameBits reports whether a and b are bitwise equal in both parts, with any
// NaN matching any NaN (x86 propagates one operand's payload, so which one
// depends on register order, not on the arithmetic).
func sameBits(a, b complex128) bool {
	eq := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
	}
	return eq(real(a), real(b)) && eq(imag(a), imag(b))
}

// requireAsm skips the test on hosts without the AVX2+FMA kernels.
func requireAsm(t *testing.T) {
	t.Helper()
	if !useAsmKernel {
		t.Skip("AVX2+FMA kernels unavailable on this host")
	}
}

// blockedByTwoRowTiles computes m·n into out as mulBlocked does, but one row
// pair at a time, so no tile taller than 2×4 ever runs.
func blockedByTwoRowTiles(m, n, out *Dense, accumulate bool) {
	K, C := m.Cols, n.Cols
	for i := 0; i < m.Rows; i += 2 {
		h := min(2, m.Rows-i)
		mi := DenseFromSlice(h, K, m.Data[i*K:(i+h)*K])
		oi := DenseFromSlice(h, C, out.Data[i*C:(i+h)*C])
		mi.mulBlocked(oi, n, accumulate, gemmKC, gemmNC, Span{})
	}
}

// TestGemmKernel4x4MatchesTwoRowTilesBitwise pins the 4×4 tile to the 2×4
// path over row counts of every residue mod 4, column tails, K above gemmKC
// (two K-panels) and both the accumulating and the overwriting store.
func TestGemmKernel4x4MatchesTwoRowTilesBitwise(t *testing.T) {
	requireAsm(t)
	rng := rand.New(rand.NewSource(41))
	for _, s := range [][3]int{
		{4, 8, 4}, {8, 64, 64}, {5, 33, 6}, {6, 17, 11}, {7, 64, 65},
		{64, 64, 64}, {13, gemmKC + 7, 9}, {16, 2*gemmKC + 1, gemmNC + 3},
	} {
		r, k, c := s[0], s[1], s[2]
		m, n := RandomDense(rng, r, k), RandomDense(rng, k, c)
		init := RandomDense(rng, r, c)
		for _, acc := range []bool{true, false} {
			got, want := init.Clone(), init.Clone()
			m.mulBlocked(got, n, acc, gemmKC, gemmNC, Span{})
			blockedByTwoRowTiles(m, n, want, acc)
			for i := range got.Data {
				if !sameBits(got.Data[i], want.Data[i]) {
					t.Fatalf("%d×%d·%d×%d acc=%v: element %d is %v with the 4×4 tile, %v with 2×4 tiles",
						r, k, k, c, acc, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

// axpyOracle computes y[j] ± m·x[j] with every rounding explicit.
func axpyOracle(y, x []complex128, m complex128, sub bool) {
	mr, mi := real(m), imag(m)
	for j := range y {
		xr, xi := real(x[j]), imag(x[j])
		pr := float64(mr*xr) - float64(mi*xi)
		pi := float64(mr*xi) + float64(mi*xr)
		if sub {
			y[j] = complex(real(y[j])-pr, imag(y[j])-pi)
		} else {
			y[j] = complex(real(y[j])+pr, imag(y[j])+pi)
		}
	}
}

// axpyOperand draws a value from a wide magnitude range, with signed zeros,
// infinities and NaNs mixed in.
func axpyOperand(rng *rand.Rand) float64 {
	switch rng.Intn(16) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.Inf(1 - 2*rng.Intn(2))
	case 3:
		return math.NaN()
	case 4:
		return math.SmallestNonzeroFloat64 * float64(1+rng.Intn(8))
	}
	return (2*rng.Float64() - 1) * math.Pow(2, float64(rng.Intn(2000)-1000))
}

// TestAxpyMatchesScalarOracleBitwise pins caxpySub and caxpyAdd to the
// explicitly rounded scalar loop for lengths 0–33, and checks that neither
// writes past y[n-1].
func TestAxpyMatchesScalarOracleBitwise(t *testing.T) {
	requireAsm(t)
	rng := rand.New(rand.NewSource(43))
	draw := func() complex128 { return complex(axpyOperand(rng), axpyOperand(rng)) }
	const guard = complex(7, -7)
	for n := 0; n <= 33; n++ {
		for trial := 0; trial < 20; trial++ {
			x, y := make([]complex128, n+1), make([]complex128, n+1)
			for j := 0; j < n; j++ {
				x[j], y[j] = draw(), draw()
			}
			y[n] = guard
			m := draw()
			if trial%4 == 0 {
				m = complex(2*rng.Float64()-1, 2*rng.Float64()-1) // finite multiplier
			}
			for _, sub := range []bool{true, false} {
				want := append([]complex128(nil), y...)
				axpyOracle(want[:n], x, m, sub)
				got := append([]complex128(nil), y...)
				if sub {
					caxpySub(&got[0], &x[0], real(m), imag(m), n)
				} else {
					caxpyAdd(&got[0], &x[0], real(m), imag(m), n)
				}
				for j := range want {
					if !sameBits(got[j], want[j]) {
						t.Fatalf("n=%d sub=%v element %d: y=%v m=%v x=%v: kernel %v, oracle %v",
							n, sub, j, y[j], m, x[j], got[j], want[j])
					}
				}
			}
		}
	}
}

// wellConditioned returns a random diagonally dominant n×n matrix.
func wellConditioned(rng *rand.Rand, n int) *Dense {
	a := RandomDense(rng, n, n)
	for i := 0; i < n; i++ {
		a.Data[i*n+i] += complex(float64(4*n), 0)
	}
	return a
}

// withScalarKernels runs fn with the assembly kernels switched off.
func withScalarKernels(fn func()) {
	saved := useAsmKernel
	defer func() { useAsmKernel = saved }()
	useAsmKernel = false
	fn()
}

// scalarAxpyFuses reports whether this build's scalar AXPY loop differs from
// the explicitly rounded oracle, as it may where GOAMD64=v3 lets the
// compiler fuse its multiply and subtract.
func scalarAxpyFuses() bool {
	rng := rand.New(rand.NewSource(45))
	x, y := RandomDense(rng, 1, 256).Data, RandomDense(rng, 1, 256).Data
	m := complex(rng.Float64(), rng.Float64())
	want := append([]complex128(nil), y...)
	axpyOracle(want, x, m, true)
	for j := range y {
		y[j] -= m * x[j]
	}
	for j := range y {
		if !sameBits(y[j], want[j]) {
			return true
		}
	}
	return false
}

// TestAxpyCallersBitwiseAcrossKernels checks that InverseInto (LU
// factorization and both substitutions) and mulAddNaive return the same
// bits with the assembly AXPY as with the scalar loops, over sizes on both
// sides of axpyMinLen. The scalar path is the Go loop itself, so the pin is
// skipped on a build that fuses it.
func TestAxpyCallersBitwiseAcrossKernels(t *testing.T) {
	requireAsm(t)
	if scalarAxpyFuses() {
		t.Skip("this build fuses the scalar AXPY loop")
	}
	same := func(what string, got, want *Dense) {
		t.Helper()
		for i := range got.Data {
			if !sameBits(got.Data[i], want.Data[i]) {
				t.Fatalf("%s: element %d is %v with the assembly AXPY, %v with the scalar loop", what, i, got.Data[i], want.Data[i])
			}
		}
	}
	rng := rand.New(rand.NewSource(47))
	for _, n := range []int{1, 2, 3, 4, 7, 24, 64} {
		a := wellConditioned(rng, n)
		got, want := NewDense(n, n), NewDense(n, n)
		err := InverseInto(got, a)
		if err != nil {
			t.Fatal(err)
		}
		withScalarKernels(func() { err = InverseInto(want, a) })
		if err != nil {
			t.Fatal(err)
		}
		same(fmt.Sprintf("InverseInto n=%d", n), got, want)

		m, b := RandomDense(rng, n+1, n), RandomDense(rng, n, n)
		m.Data[0] = 0 // exercise the zero skip
		got, want = RandomDense(rng, n+1, n), NewDense(n+1, n)
		want.CopyFrom(got)
		m.mulAddNaive(got, b)
		withScalarKernels(func() { m.mulAddNaive(want, b) })
		same(fmt.Sprintf("mulAddNaive %d×%d·%d×%d", n+1, n, n, n), got, want)
	}
}

// TestInverseIntoFlops pins InverseInto's counted flops: 8n³/3 for the
// factorization plus 8n³ for the two substitutions against n right-hand
// sides.
func TestInverseIntoFlops(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, n := range []int{1, 5, 24, 64} {
		a := wellConditioned(rng, n)
		dst := NewDense(n, n)
		Counter.Reset()
		if err := InverseInto(dst, a); err != nil {
			t.Fatal(err)
		}
		if got, want := Counter.Reset(), uint64(8*n*n*n/3+8*n*n*n); got != want {
			t.Fatalf("n=%d: InverseInto flops = %d, want %d", n, got, want)
		}
	}
}

func benchInverseInto(b *testing.B, n int) {
	a := wellConditioned(rand.New(rand.NewSource(3)), n)
	dst := NewDense(n, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := InverseInto(dst, a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInverseInto48(b *testing.B) { benchInverseInto(b, 48) }
func BenchmarkInverseInto64(b *testing.B) { benchInverseInto(b, 64) }

// BenchmarkMulAddNaive8x8 times the naive product at sse_wire's GF block
// size, below the blocked engine's threshold.
func BenchmarkMulAddNaive8x8(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	m, n, out := RandomDense(rng, 8, 8), RandomDense(rng, 8, 8), NewDense(8, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.mulAddNaive(out, n)
	}
}
