package egrid

import (
	"math"
	"testing"
)

// TestUniformWeightsBitCompatible pins the satellite guarantee the core
// accumulation depends on: on the full fine grid every quadrature weight
// is BITWISE equal to the uniform spacing ΔE, for step sizes that are
// not exactly representable (window 2 over 16 points is; e.g. 0.7/12 is
// not).
func TestUniformWeightsBitCompatible(t *testing.T) {
	cases := []struct {
		ne         int
		emin, emax float64
	}{
		{16, -1, 1},
		{12, -0.3, 0.4},
		{64, -1.1, 0.97},
		{7, 0, 1e-3},
		{1, -1, 1},
	}
	for _, c := range cases {
		g := Uniform(c.ne, c.emin, c.emax)
		step := (c.emax - c.emin) / float64(c.ne)
		for e := 0; e < c.ne; e++ {
			if w := g.Weight(e); w != step {
				t.Errorf("ne=%d window=[%g,%g]: weight(%d)=%v != ΔE=%v (diff %g)",
					c.ne, c.emin, c.emax, e, w, step, w-step)
			}
		}
		if !g.Full() {
			t.Errorf("ne=%d: uniform grid not Full", c.ne)
		}
	}
}

// TestWeightsSumToWindow checks the partition-of-unity property on
// non-uniform grids: the weights of any valid active set sum exactly to
// the energy window (each boundary is an exact half-step integer, so the
// telescoping sum is float-exact up to the final multiply).
func TestWeightsSumToWindow(t *testing.T) {
	g, err := FromActive(32, -1, 1, []int{0, 1, 4, 5, 9, 17, 30, 31})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for e := 0; e < g.NE(); e++ {
		sum += g.Weight(e)
	}
	if math.Abs(sum-2) > 1e-12 {
		t.Errorf("weights sum to %v, want the window width 2", sum)
	}
	// Inactive points carry zero weight.
	if g.Weight(2) != 0 || g.IsActive(2) {
		t.Errorf("inactive point has weight %v", g.Weight(2))
	}
	if !g.IsActive(17) {
		t.Errorf("active point 17 reported inactive")
	}
}

// TestFromActiveValidation rejects active sets that would make
// interpolation extrapolate or the weights ill-defined.
func TestFromActiveValidation(t *testing.T) {
	bad := [][]int{
		{1, 5, 15},    // missing left endpoint
		{0, 5, 14},    // missing right endpoint
		{0, 5, 5, 15}, // duplicate
		{0, 9, 5, 15}, // unsorted
	}
	for _, a := range bad {
		if _, err := FromActive(16, -1, 1, a); err == nil {
			t.Errorf("FromActive(%v) accepted an invalid set", a)
		}
	}
	if _, err := FromActive(16, 1, 1, []int{0, 15}); err == nil {
		t.Errorf("empty energy window accepted")
	}
}

// TestSeedShape checks that seeds are evenly spread, include both
// endpoints, and clamp to the fine grid.
func TestSeedShape(t *testing.T) {
	g, err := Seed(64, -1, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	a := g.Active()
	if len(a) != 9 || a[0] != 0 || a[len(a)-1] != 63 {
		t.Fatalf("Seed(64, 9) = %v", a)
	}
	for i := 1; i < len(a); i++ {
		if d := a[i] - a[i-1]; d < 7 || d > 9 {
			t.Errorf("seed stride %d between %d and %d", d, a[i-1], a[i])
		}
	}
	// Oversized request degrades to the full grid.
	g, err = Seed(8, -1, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Full() {
		t.Errorf("Seed(8, 100) not full: %v", g.Active())
	}
}

// TestChunkBoundsUniformEquivalence pins the distributed-decomposition
// satellite: on the full grid the active-balanced chunk boundaries must
// coincide with the historical count split i·n/parts for every (n,
// parts, i), so uniform distributed runs keep byte-identical ownership.
func TestChunkBoundsUniformEquivalence(t *testing.T) {
	for _, ne := range []int{4, 16, 17, 64, 706} {
		g := Uniform(ne, -1, 1)
		for parts := 1; parts <= 8; parts++ {
			if parts > ne {
				continue
			}
			for i := 0; i < parts; i++ {
				lo, hi := g.ChunkBounds(parts, i)
				wlo, whi := i*ne/parts, (i+1)*ne/parts
				if lo != wlo || hi != whi {
					t.Fatalf("ne=%d parts=%d i=%d: ChunkBounds=[%d,%d) want [%d,%d)",
						ne, parts, i, lo, hi, wlo, whi)
				}
			}
		}
	}
}

// TestChunkBoundsBalanced checks that on a sparse grid the chunks tile
// [0, NE) and split the active points to within one point of evenly.
func TestChunkBoundsBalanced(t *testing.T) {
	g, err := FromActive(64, -1, 1, []int{0, 1, 2, 3, 4, 5, 6, 7, 30, 63})
	if err != nil {
		t.Fatal(err)
	}
	parts := 4
	prev := 0
	for i := 0; i < parts; i++ {
		lo, hi := g.ChunkBounds(parts, i)
		if lo != prev {
			t.Fatalf("chunk %d starts at %d, want %d (chunks must tile)", i, lo, prev)
		}
		prev = hi
		n := 0
		for _, e := range g.Active() {
			if e >= lo && e < hi {
				n++
			}
		}
		want := g.NumActive() / parts
		if n != want && n != want+1 {
			t.Errorf("chunk %d owns %d active points, want %d or %d", i, n, want, want+1)
		}
	}
	if prev != g.NE() {
		t.Fatalf("chunks end at %d, want %d", prev, g.NE())
	}
}

// TestInterpolateValues checks linear fill between active neighbors.
func TestInterpolateValues(t *testing.T) {
	g, err := FromActive(8, 0, 8, []int{0, 4, 7})
	if err != nil {
		t.Fatal(err)
	}
	v := []float64{0, -1, -1, -1, 8, -1, -1, 2}
	g.InterpolateValues(v)
	want := []float64{0, 2, 4, 6, 8, 6, 4, 2}
	for i := range v {
		if math.Abs(v[i]-want[i]) > 1e-12 {
			t.Errorf("v[%d] = %v, want %v", i, v[i], want[i])
		}
	}
}

// TestStateRoundTrip checks Grid ↔ State fidelity and validation.
func TestStateRoundTrip(t *testing.T) {
	g, err := FromActive(32, -0.5, 0.5, []int{0, 3, 9, 31})
	if err != nil {
		t.Fatal(err)
	}
	st := g.State()
	if st.IsFull() {
		t.Errorf("sparse grid state reports full")
	}
	g2, err := st.Grid()
	if err != nil {
		t.Fatal(err)
	}
	a, b := g.Active(), g2.Active()
	if len(a) != len(b) {
		t.Fatalf("round trip changed active count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("round trip changed active set: %v vs %v", a, b)
		}
		if g.Weight(a[i]) != g2.Weight(b[i]) {
			t.Fatalf("round trip changed weights")
		}
	}
	var nilState *State
	if _, err := nilState.Grid(); err == nil {
		t.Errorf("nil state produced a grid")
	}
	if nilState.IsFull() {
		t.Errorf("nil state reports full")
	}
}
