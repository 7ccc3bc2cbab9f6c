package cmat

import (
	"fmt"
	"math/rand"
	"testing"
)

// randomIndex returns an ascending random subset of [0, n) holding about
// frac of its indices, or nil (every index) when frac is 1.
func randomIndex(rng *rand.Rand, n int, frac float64) []int {
	if frac >= 1 {
		return nil
	}
	ix := []int{}
	for i := 0; i < n; i++ {
		if rng.Float64() < frac {
			ix = append(ix, i)
		}
	}
	return ix
}

// onSupport is a random r×c matrix with nonzeros only in rows × cols.
func onSupport(rng *rand.Rand, r, c int, rows, cols []int) *Dense {
	m := NewDense(r, c)
	for ii := 0; ii < spanLen(rows, r); ii++ {
		for jj := 0; jj < spanLen(cols, c); jj++ {
			m.Set(at(rows, ii), at(cols, jj), complex(2*rng.Float64()-1, 2*rng.Float64()-1))
		}
	}
	return m
}

// intersect is the ascending intersection of two index lists (nil = all).
func intersect(a, b []int) []int {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := []int{}
	for _, x := range a {
		for _, y := range b {
			if x == y {
				out = append(out, x)
			}
		}
	}
	return out
}

// TestMulSpanMatchesFullProductBitwise pins the span product to the full
// one bit for bit, overwriting and accumulating, on both kernel paths:
// operands with nonzeros only on random row and column subsets, at shapes
// below the blocked engine's threshold (run whole) and above it on the
// naive kernel, the compacted blocked kernel and the blocked fallback (a
// second K-panel, a column tail, an odd row count). It also pins the flop
// count.
func TestMulSpanMatchesFullProductBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	shapes := [][3]int{
		{7, 7, 7}, {12, 12, 12}, {64, 64, 64}, {48, 48, 48}, {64, 32, 48},
		{66, 64, 66}, {33, 64, 64}, {16, gemmKC + 9, 16},
	}
	// The shares of a's rows and columns and of b's rows and columns that
	// hold nonzeros: a dense a takes the blocked kernel, a sparse one the
	// naive kernel.
	fracs := [][4]float64{
		{1, 1, 1, 1}, {1, 1, 0.5, 0.5}, {0.5, 0.5, 1, 1}, {1, 0.5, 1, 0.5},
		{0.9, 0.9, 0.9, 0.9}, {0, 1, 1, 1}, {1, 1, 0, 1}, {0.25, 1, 1, 0.25}, {0.5, 1, 0.5, 1},
	}
	defer func(old bool) { useAsmKernel = old }(useAsmKernel)
	for _, asm := range []bool{false, useAsmKernel} {
		useAsmKernel = asm
		for _, s := range shapes {
			R, K, C := s[0], s[1], s[2]
			for _, f := range fracs {
				name := fmt.Sprintf("asm=%v %d×%d·%d×%d fill=%v", asm, R, K, K, C, f)
				ra, ka := randomIndex(rng, R, f[0]), randomIndex(rng, K, f[1])
				kb, cb := randomIndex(rng, K, f[2]), randomIndex(rng, C, f[3])
				a, b := onSupport(rng, R, K, ra, ka), onSupport(rng, K, C, kb, cb)
				sp := Span{Rows: ra, Inner: intersect(ka, kb), Cols: cb}
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
						w = uint64(8 * spanLen(sp.Rows, R) * spanLen(sp.Inner, K) * spanLen(sp.Cols, C))
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

// TestSupportInto pins the support finder: the rows and columns holding a
// nonzero, nil for a full dimension, and empty (non-nil) lists for a zero
// matrix.
func TestSupportInto(t *testing.T) {
	m := NewDense(4, 5)
	m.Set(1, 3, 1)
	m.Set(3, 0, 2i)
	buf := make([]int, 9)
	s := m.SupportInto(buf)
	if fmt.Sprint(s.Rows, s.Cols) != "[1 3] [0 3]" {
		t.Errorf("support = %v %v, want [1 3] [0 3]", s.Rows, s.Cols)
	}
	full := RandomDense(rand.New(rand.NewSource(3)), 4, 5)
	if s := full.SupportInto(buf); s.Rows != nil || s.Cols != nil {
		t.Errorf("dense support = %v %v, want nil nil", s.Rows, s.Cols)
	}
	if s := NewDense(4, 5).SupportInto(buf); s.Rows == nil || s.Cols == nil || len(s.Rows)+len(s.Cols) != 0 {
		t.Errorf("zero matrix support = %#v %#v, want empty lists", s.Rows, s.Cols)
	}
}
