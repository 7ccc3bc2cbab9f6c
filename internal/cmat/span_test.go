package cmat

import (
	"fmt"
	"math/rand"
	"testing"
)

// randomRange returns a random range of [0, n) holding about frac of its
// indices: the zero Range (every index) when frac is 1, an empty one when
// frac is 0.
func randomRange(rng *rand.Rand, n int, frac float64) Range {
	switch {
	case frac >= 1:
		return Range{}
	case frac <= 0:
		return Range{n, n}
	}
	w := max(1, int(frac*float64(n)))
	lo := rng.Intn(n - w + 1)
	return Range{lo, lo + w}
}

// onSupport is a random r×c matrix with nonzeros only in rows × cols.
func onSupport(rng *rand.Rand, r, c int, rows, cols Range) *Dense {
	m := NewDense(r, c)
	i0, i1 := rows.bounds(r)
	j0, j1 := cols.bounds(c)
	for i := i0; i < i1; i++ {
		for j := j0; j < j1; j++ {
			m.Set(i, j, complex(2*rng.Float64()-1, 2*rng.Float64()-1))
		}
	}
	return m
}

// intersect is the intersection of two ranges of [0, n).
func intersect(a, b Range, n int) Range {
	a0, a1 := a.bounds(n)
	b0, b1 := b.bounds(n)
	lo, hi := max(a0, b0), min(a1, b1)
	if lo >= hi {
		return Range{n, n}
	}
	return Range{lo, hi}
}

// TestMulSpanMatchesFullProductBitwise pins the span product to the full
// one bit for bit, overwriting and accumulating, on both kernel paths:
// operands with nonzeros only on row and column ranges (random, empty and
// full ones, and fixed ones at odd row offsets, off the column strips and
// across a K-panel boundary), at shapes below the blocked engine's
// threshold (run whole) and above it on the naive and the blocked kernel,
// with odd row counts, a column tail, a second column panel and a second
// K-panel. It also pins the flop count.
func TestMulSpanMatchesFullProductBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	shapes := [][3]int{
		{7, 7, 7}, {12, 12, 12}, {64, 64, 64}, {48, 48, 48}, {64, 32, 48},
		{66, 64, 66}, {33, 64, 64}, {16, gemmKC + 9, 16}, {35, 2*gemmKC + 5, 2*gemmNC + 6},
	}
	// The shares of a's rows and columns and of b's rows and columns that
	// hold nonzeros: a dense a takes the blocked kernel, a sparse one the
	// naive kernel.
	fracs := [][4]float64{
		{1, 1, 1, 1}, {1, 1, 0.5, 0.5}, {0.5, 0.5, 1, 1}, {1, 0.5, 1, 0.5},
		{0.9, 0.9, 0.9, 0.9}, {0, 1, 1, 1}, {1, 1, 0, 1}, {1, 1, 1, 0},
		{0.25, 1, 1, 0.25}, {0.5, 1, 0.5, 1}, {0.6, 1, 0.7, 0.3},
	}
	// fixed are the ranges of a's rows and columns and b's rows and columns
	// at odd row offsets and counts, off the gemmNR strips and across the
	// first K-panel boundary (when K has a second panel).
	fixed := func(R, K, C int) [][4]Range {
		kx := K / 2
		if K > gemmKC {
			kx = gemmKC - 3
		}
		return [][4]Range{
			{{1, R - 2}, {}, {}, {3, C - 1}},
			{{}, {}, {K / 3, K - 1}, {C/2 + 1, C}},
			{{R - 1, R}, {}, {}, {}},
			{{}, {kx, K}, {}, {0, 5}},
			{{3, R}, {1, K}, {0, min(kx+5, K)}, {2, 3}},
		}
	}
	defer func(old bool) { useAsmKernel = old }(useAsmKernel)
	for _, asm := range []bool{false, useAsmKernel} {
		useAsmKernel = asm
		for _, s := range shapes {
			R, K, C := s[0], s[1], s[2]
			cases := fixed(R, K, C)
			for _, f := range fracs {
				cases = append(cases, [4]Range{randomRange(rng, R, f[0]), randomRange(rng, K, f[1]),
					randomRange(rng, K, f[2]), randomRange(rng, C, f[3])})
			}
			for _, c := range cases {
				ra, ka, kb, cb := c[0], c[1], c[2], c[3]
				name := fmt.Sprintf("asm=%v %d×%d·%d×%d ranges=%v", asm, R, K, K, C, c)
				a, b := onSupport(rng, R, K, ra, ka), onSupport(rng, K, C, kb, cb)
				sp := Span{Rows: ra, Inner: intersect(ka, kb, K), Cols: cb}
				init := RandomDense(rng, R, C)
				for _, acc := range []bool{false, true} {
					got, want := init.Clone(), init.Clone()
					Counter.Reset()
					if acc {
						a.MulSpanAddInto(got, b, sp)
						a.MulAddInto(want, b)
					} else {
						a.MulSpanInto(got, b, sp)
						a.MulInto(want, b)
					}
					// Below blockedMinWork the span product runs, and counts,
					// the whole product.
					w := uint64(8 * R * K * C)
					if R*K*C >= blockedMinWork {
						i0, i1 := sp.Rows.bounds(R)
						k0, k1 := sp.Inner.bounds(K)
						j0, j1 := sp.Cols.bounds(C)
						w = uint64(8 * (i1 - i0) * (k1 - k0) * (j1 - j0))
					}
					if flops := Counter.Reset() - uint64(8*R*K*C); flops != w {
						t.Errorf("%s acc=%v: counted %d span flops, want %d", name, acc, flops, w)
					}
					for i := range want.Data {
						if !sameBits(got.Data[i], want.Data[i]) {
							t.Fatalf("%s acc=%v: element %d is %v over the span, %v in full", name, acc, i, got.Data[i], want.Data[i])
						}
					}
				}
				batched := init.Clone()
				BatchMulAddInto([]Triple{{Out: batched, A: a, B: b, Span: sp}})
				want := init.Clone()
				a.MulAddInto(want, b)
				for i := range want.Data {
					if !sameBits(batched.Data[i], want.Data[i]) {
						t.Fatalf("%s batched: element %d is %v, want %v", name, i, batched.Data[i], want.Data[i])
					}
				}
			}
		}
	}
}

// TestSupport pins the support finder: the bounding ranges of the rows and
// columns holding a nonzero, the zero Range for a full dimension, and
// empty ranges, distinct from full ones, for a zero matrix.
func TestSupport(t *testing.T) {
	m := NewDense(4, 5)
	m.Set(1, 3, 1)
	m.Set(3, 0, 2i)
	if s, want := m.Support(), (Support{Rows: Range{1, 4}, Cols: Range{0, 4}}); s != want {
		t.Errorf("support = %v, want %v", s, want)
	}
	corner := NewDense(4, 5)
	corner.Set(0, 4, 1)
	if s, want := corner.Support(), (Support{Rows: Range{0, 1}, Cols: Range{4, 5}}); s != want {
		t.Errorf("corner support = %v, want %v", s, want)
	}
	full := RandomDense(rand.New(rand.NewSource(3)), 4, 5)
	if s := full.Support(); s != (Support{}) {
		t.Errorf("dense support = %v, want the zero Support", s)
	}
	s := NewDense(4, 5).Support()
	if s == (Support{}) || s.Rows.Lo < s.Rows.Hi || s.Cols.Lo < s.Cols.Hi {
		t.Errorf("zero matrix support = %v, want empty ranges", s)
	}
	if r0, r1 := s.Rows.bounds(4); r0 != r1 {
		t.Errorf("zero matrix rows bound [%d, %d), want an empty range", r0, r1)
	}
}
