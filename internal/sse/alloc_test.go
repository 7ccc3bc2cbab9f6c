//go:build !race

// The AllocsPerRun counters below measure steady-state heap traffic; the race
// runtime adds its own allocations, so these regressions only hold un-raced.

package sse

import (
	"math/rand"
	"testing"
)

// The SSE steady-state allocation tests pin the arena contract for the hot
// kernels: every per-point matrix transient must come from the workspace
// arena, so the per-call allocation count is a small constant (the output
// tensors plus fixed slice headers), independent of the Nkz·NE·Nqz·Nω inner
// trip count. Before pooling, each variant allocated a fresh Norb×Norb
// matrix per inner-loop iteration — thousands of allocations per call on the
// Mini device. The DaCe bounds are the measured counts plus an arena-refill
// margin: Σ 57 (the output, ToAtomMajor's per-atom matrices and the
// per-tile slices of arena headers), Π 4–6 (the two outputs and the
// tile's four arena slabs).

func TestAllocsSigmaVariantsSteadyState(t *testing.T) {
	k := testKernel(t)
	p := k.Dev.P
	rng := rand.New(rand.NewSource(23))
	g := randomAntiHermG(rng, p)
	d := k.PreprocessD(randomD(rng, p))
	for _, tc := range []struct {
		name  string
		run   func()
		bound float64
	}{
		{"OMEN", func() { k.SigmaOMEN(g, d) }, 60},
		{"DaCe", func() { k.SigmaDaCe(g, d) }, 64},
		{"DaCeTile", func() { k.SigmaDaCeTile(g, d, 0, p.NE, 0, p.NA/2) }, 64},
	} {
		tc.run() // warm the arena
		avg := testing.AllocsPerRun(5, tc.run)
		if avg > tc.bound {
			t.Errorf("Sigma%s steady state allocates %.1f/run, want ≤ %.0f (output + headers only)",
				tc.name, avg, tc.bound)
		}
	}
}

func TestAllocsPiVariantsSteadyState(t *testing.T) {
	k := testKernel(t)
	p := k.Dev.P
	rng := rand.New(rand.NewSource(29))
	gl := randomAntiHermG(rng, p)
	gg := randomAntiHermG(rng, p)
	for _, tc := range []struct {
		name  string
		run   func()
		bound float64
	}{
		{"OMEN", func() { k.PiOMEN(gl, gg) }, 60},
		{"DaCe", func() { k.PiDaCe(gl, gg) }, 8},
		{"DaCeTile", func() { k.PiDaCeTile(gl, gg, 0, p.NE, 0, p.NA/2) }, 8},
	} {
		tc.run()
		avg := testing.AllocsPerRun(5, tc.run)
		if avg > tc.bound {
			t.Errorf("Pi%s steady state allocates %.1f/run, want ≤ %.0f (output + headers only)",
				tc.name, avg, tc.bound)
		}
	}
}
