package cmat

import (
	"math/rand"
	"testing"
)

// TestNonDefaultBlockingMatchesOracle checks the blocked kernel under panel
// geometries other than (gemmKC, gemmNC) against the naive oracle (within
// float tolerance — other panel sizes reorder the summation). None of them
// divides the 100×100 operands, so every geometry runs ragged K and column
// tails, and (7, 5) a tail on every panel.
func TestNonDefaultBlockingMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const size = 100
	m := RandomDense(rng, size, size)
	n := RandomDense(rng, size, size)
	want := NewDense(size, size)
	m.mulAddNaive(want, n)
	for _, p := range [][2]int{{64, 32}, {128, 48}, {256, 96}, {384, 128}, {7, 5}} {
		kc, nc := p[0], p[1]
		got := NewDense(size, size)
		m.mulBlocked(got, n, false, kc, nc, Span{})
		if !got.Equalish(want, 1e-9*size) {
			t.Fatalf("panels kc=%d nc=%d: max diff %g", kc, nc, got.MaxAbsDiff(want))
		}
	}
}

// checkDispatch asserts that MulInto of m·n equals, bitwise, the product the
// expected kernel writes into a fresh zero matrix.
func checkDispatch(t *testing.T, name string, m, n *Dense, kernel func(m, n, out *Dense)) {
	t.Helper()
	got := NewDense(m.Rows, n.Cols)
	m.MulInto(got, n)
	want := NewDense(m.Rows, n.Cols)
	kernel(m, n, want)
	for i := range got.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s: element %d differs: MulInto %v, expected kernel %v", name, i, got.Data[i], want.Data[i])
		}
	}
}

// TestDefaultConfigMatchesConstantPathBitwise pins dense products above the
// dispatch threshold to exactly mulBlocked under the compile-time panels
// (gemmKC, gemmNC), across shapes spanning panel boundaries. Equality is
// exact: the dispatch must run the same summation order.
func TestDefaultConfigMatchesConstantPathBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	blocked := func(m, n, out *Dense) { m.mulBlocked(out, n, false, gemmKC, gemmNC, Span{}) }
	for _, s := range [][3]int{
		{33, 33, 33}, {64, 64, 64}, {65, gemmKC + 3, gemmNC + 5},
		{128, 2*gemmKC + 1, 96}, {256, 256, 256},
	} {
		r, k, c := s[0], s[1], s[2]
		checkDispatch(t, "dense product above the threshold", RandomDense(rng, r, k), RandomDense(rng, k, c), blocked)
	}
}

// TestInstalledBlockingDrivesDispatch checks that the compile-time thresholds
// route products to the naive kernel, bitwise: a product below
// blockedMinWork, and a left operand below blockedMinDensity.
func TestInstalledBlockingDrivesDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	naive := func(m, n, out *Dense) { m.mulAddNaive(out, n) }

	if 31*32*32 >= blockedMinWork {
		t.Fatal("the small case no longer sits below blockedMinWork")
	}
	checkDispatch(t, "31×32·32×32, below blockedMinWork", RandomDense(rng, 31, 32), RandomDense(rng, 32, 32), naive)

	sparse := RandomDense(rng, 64, 64)
	for i := range sparse.Data {
		if i%8 != 0 {
			sparse.Data[i] = 0 // 12.5 % fill
		}
	}
	if denseEnough(sparse, blockedMinDensity) {
		t.Fatal("the sparse case no longer sits below blockedMinDensity")
	}
	checkDispatch(t, "64³ at 12.5 % fill, below blockedMinDensity", sparse, RandomDense(rng, 64, 64), naive)
}
