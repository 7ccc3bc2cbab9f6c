package cmat

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// refMulAdd is an independent j-i-k oracle (different loop order from both
// kernels under test).
func refMulAdd(out, m, n *Dense) {
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < n.Cols; j++ {
			var s complex128
			for k := 0; k < m.Cols; k++ {
				s += m.Data[i*m.Cols+k] * n.Data[k*n.Cols+j]
			}
			out.Data[i*n.Cols+j] += s
		}
	}
}

// withBothKernels runs fn once per available micro-kernel implementation
// (pure Go always; assembly when the host supports it), restoring the
// package-level selection afterwards.
func withBothKernels(t *testing.T, fn func(t *testing.T)) {
	saved := useAsmKernel
	defer func() { useAsmKernel = saved }()
	useAsmKernel = false
	t.Run("go", fn)
	if saved {
		useAsmKernel = true
		t.Run("asm", fn)
	}
}

// TestBlockedMatchesNaiveQuick property-tests blocked GEMM ≡ naive GEMM over
// random shapes spanning the crossover, on both micro-kernel paths.
func TestBlockedMatchesNaiveQuick(t *testing.T) {
	withBothKernels(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(42))
		f := func(rs, ks, cs uint8) bool {
			r := 1 + int(rs)%96
			k := 1 + int(ks)%96
			c := 1 + int(cs)%96
			m := RandomDense(rng, r, k)
			n := RandomDense(rng, k, c)
			a := RandomDense(rng, r, c)
			blocked := a.Clone()
			naive := a.Clone()
			m.mulBlocked(blocked, n, true, gemmKC, gemmNC, Span{})
			m.mulAddNaive(naive, n)
			return blocked.Equalish(naive, 1e-9*float64(k))
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestBlockedDegenerateShapes pins the edge shapes: 1×1, 1×N, N×1, and sizes
// straddling the block-size crossover and panel boundaries.
func TestBlockedDegenerateShapes(t *testing.T) {
	withBothKernels(t, testBlockedDegenerateShapes)
}

func testBlockedDegenerateShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := [][3]int{
		{1, 1, 1}, {1, 1, 7}, {7, 1, 1}, {1, 9, 1},
		{1, 64, 64}, {64, 64, 1}, {64, 1, 64},
		{2, 2, 2}, {3, 5, 7},
		{31, 31, 31}, {32, 32, 32}, {33, 33, 33}, // blockedMinWork crossover
		{gemmMR, gemmKC, gemmNR}, {gemmMR + 1, gemmKC + 1, gemmNR + 1},
		{5, gemmKC - 1, gemmNC - 1}, {5, gemmKC + 1, gemmNC + 1},
		{7, 2*gemmKC + 3, gemmNC + 5}, {65, 193, 67},
	}
	for _, s := range shapes {
		r, k, c := s[0], s[1], s[2]
		m := RandomDense(rng, r, k)
		n := RandomDense(rng, k, c)
		want := NewDense(r, c)
		refMulAdd(want, m, n)
		got := NewDense(r, c)
		m.MulAddInto(got, n)
		if !got.Equalish(want, 1e-9*float64(k+1)) {
			t.Fatalf("MulAddInto mismatch at %d×%d·%d×%d: max diff %g", r, k, k, c, got.MaxAbsDiff(want))
		}
		// Also force the blocked path directly (sizes below the crossover
		// would otherwise dispatch to naive).
		if c >= 1 {
			got2 := NewDense(r, c)
			m.mulBlocked(got2, n, true, gemmKC, gemmNC, Span{})
			if !got2.Equalish(want, 1e-9*float64(k+1)) {
				t.Fatalf("mulBlocked mismatch at %d×%d·%d×%d: max diff %g", r, k, k, c, got2.MaxAbsDiff(want))
			}
		}
		// Overwrite mode must ignore prior contents of out.
		got3 := RandomDense(rng, r, c)
		m.mulBlocked(got3, n, false, gemmKC, gemmNC, Span{})
		if !got3.Equalish(want, 1e-9*float64(k+1)) {
			t.Fatalf("mulBlocked overwrite mismatch at %d×%d·%d×%d", r, k, k, c)
		}
	}
}

// TestMulIntoOverwritesViaBlocked checks MulInto correctness across the
// dispatch boundary (it must overwrite, not accumulate, on both paths).
func TestMulIntoOverwritesViaBlocked(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{4, 16, 48, 96} {
		a := RandomDense(rng, n, n)
		b := RandomDense(rng, n, n)
		out := RandomDense(rng, n, n) // garbage that must be overwritten
		a.MulInto(out, b)
		want := NewDense(n, n)
		refMulAdd(want, a, b)
		if !out.Equalish(want, 1e-9*float64(n)) {
			t.Fatalf("MulInto at n=%d: max diff %g", n, out.MaxAbsDiff(want))
		}
	}
}

// TestSparseOperandsStayOnNaivePath pins the density dispatch: a ~5%-dense
// left operand (Hamiltonian-like) must keep the zero-skip path, and produce
// the same values either way.
func TestSparseOperandsStayOnNaivePath(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const n = 96
	a := NewDense(n, n)
	for i := range a.Data {
		if rng.Float64() < 0.05 {
			a.Data[i] = complex(rng.Float64(), rng.Float64())
		}
	}
	if denseEnough(a, blockedMinDensity) {
		t.Fatal("sparse operand classified as dense")
	}
	b := RandomDense(rng, n, n)
	got := NewDense(n, n)
	a.MulAddInto(got, b)
	want := NewDense(n, n)
	refMulAdd(want, a, b)
	if !got.Equalish(want, 1e-9*float64(n)) {
		t.Fatal("sparse-path MulAddInto mismatch")
	}
}

func benchGEMM(b *testing.B, size int, blocked bool) {
	rng := rand.New(rand.NewSource(3))
	m := RandomDense(rng, size, size)
	n := RandomDense(rng, size, size)
	out := NewDense(size, size)
	b.SetBytes(int64(3 * size * size * 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if blocked {
			m.mulBlocked(out, n, true, gemmKC, gemmNC, Span{})
		} else {
			m.mulAddNaive(out, n)
		}
	}
}

func BenchmarkGEMM256Naive(b *testing.B)   { benchGEMM(b, 256, false) }
func BenchmarkGEMM256Blocked(b *testing.B) { benchGEMM(b, 256, true) }
func BenchmarkGEMM64Naive(b *testing.B)    { benchGEMM(b, 64, false) }
func BenchmarkGEMM64Blocked(b *testing.B)  { benchGEMM(b, 64, true) }
