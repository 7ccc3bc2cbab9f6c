//go:build !race

// The AllocsPerRun counters below measure steady-state heap traffic; the race
// runtime adds its own allocations, so these regressions only hold un-raced.

package cmat

import (
	"math/rand"
	"testing"
)

// TestAllocsBlockedGEMM proves the blocked engine's steady state: once the
// arena holds a pack buffer, MulAddInto on dense operands performs no heap
// allocation per call.
func TestAllocsBlockedGEMM(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const n = 96
	a := RandomDense(rng, n, n)
	b := RandomDense(rng, n, n)
	out := NewDense(n, n)
	a.MulAddInto(out, b) // warm the arena
	avg := testing.AllocsPerRun(50, func() {
		a.MulAddInto(out, b)
	})
	if avg > 0.5 {
		t.Fatalf("blocked MulAddInto steady state allocates %.2f/run, want ~0", avg)
	}
}

// TestAllocsInverseInto pins the zero-allocation steady state of the pooled
// LU inversion, up to gf_wire's 64×64 blocks: the LU header lives on the
// stack, the factorization scratch and pivot slice come from the arena.
func TestAllocsInverseInto(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, n := range []int{24, 64} {
		a := wellConditioned(rng, n)
		dst := NewDense(n, n)
		if err := InverseInto(dst, a); err != nil {
			t.Fatal(err)
		}
		avg := testing.AllocsPerRun(50, func() {
			if err := InverseInto(dst, a); err != nil {
				t.Fatal(err)
			}
		})
		if avg > 1 {
			t.Fatalf("InverseInto at n=%d steady state allocates %.2f/run, want ~0", n, avg)
		}
	}
}

// TestAllocsMulAddNaive pins the naive product, and with it the AXPY under
// it, to zero allocations per call.
func TestAllocsMulAddNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m, n, out := RandomDense(rng, 8, 8), RandomDense(rng, 8, 8), NewDense(8, 8)
	if avg := testing.AllocsPerRun(50, func() { m.mulAddNaive(out, n) }); avg != 0 {
		t.Fatalf("mulAddNaive allocates %.2f/run, want 0", avg)
	}
}
