package sse

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"negfsim/internal/cmat"
)

// sameBits reports whether two complex slices are bitwise identical.
func sameBits(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}

// TestComputePhaseParallelMatchesSerial pins the shared-memory phase to the
// serial one: DaCe atom tiles write disjoint slices in place, so every
// worker count gives bitwise the same four outputs and counts the same
// flops; Reference and OMEN ignore workers and run serially.
func TestComputePhaseParallelMatchesSerial(t *testing.T) {
	k := testKernel(t)
	p := k.Dev.P
	rng := rand.New(rand.NewSource(71))
	in := PhaseInput{
		GLess: randomAntiHermG(rng, p), GGtr: randomAntiHermG(rng, p),
		DLess: randomD(rng, p), DGtr: randomD(rng, p),
	}
	// Counted flops of one DaCe phase on the Mini device: U is formed only
	// at the energies a trace reads, so no worker count forms the unread
	// U(E=0) blocks.
	const daceFlops = 44305920
	want := map[Variant]PhaseOutput{}
	wantFlops := map[Variant]uint64{}
	for _, v := range []Variant{Reference, OMEN, DaCe} {
		cmat.Counter.Reset()
		want[v] = k.ComputePhase(in, v)
		wantFlops[v] = cmat.Counter.Reset()
	}
	if wantFlops[DaCe] != daceFlops {
		t.Errorf("serial DaCe phase counts %d flops, want %d", wantFlops[DaCe], daceFlops)
	}
	for _, tc := range []struct {
		v       Variant
		workers int
	}{
		{DaCe, 1}, {DaCe, 2}, {DaCe, 3}, {DaCe, 4},
		{OMEN, 4}, {Reference, 4},
	} {
		t.Run(fmt.Sprintf("%v/%d", tc.v, tc.workers), func(t *testing.T) {
			cmat.Counter.Reset()
			got := k.ComputePhaseParallel(in, tc.v, tc.workers)
			if n := cmat.Counter.Reset(); n != wantFlops[tc.v] {
				t.Errorf("counted %d flops, serial counts %d", n, wantFlops[tc.v])
			}
			w := want[tc.v]
			for _, c := range []struct {
				name      string
				want, got []complex128
			}{
				{"Σ^<", w.SigmaLess.Data, got.SigmaLess.Data},
				{"Σ^>", w.SigmaGtr.Data, got.SigmaGtr.Data},
				{"Π^<", w.PiLess.Data, got.PiLess.Data},
				{"Π^>", w.PiGtr.Data, got.PiGtr.Data},
			} {
				if !sameBits(c.want, c.got) {
					t.Errorf("%s differs from the serial phase", c.name)
				}
			}
		})
	}
}
