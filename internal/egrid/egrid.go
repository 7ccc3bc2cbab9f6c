// Package egrid owns the adaptive energy grid of the simulator: a
// non-uniform set of energy points with trapezoid quadrature weights,
// plus the error-controlled refine/coarsen controller that grows and
// shrinks it between Born solves.
//
// The scattering self-energy kernels require a commensurate uniform
// grid — phonon energies are integer multiples of ΔE, so the SSE
// convolution is an integer index shift (device.Params.PhononShift) and
// the tile kernels slide contiguous energy windows. A truly non-uniform
// point set would break that structure, so the adaptive grid is instead
// an ACTIVE SUBSET of the fine uniform grid: tensors keep their full
// (Nkz, NE, NA, …) shape, the expensive per-energy RGF solves run only
// at the active points, and the Green's functions at inactive points are
// filled by linear interpolation between the nearest active neighbors
// before each SSE phase. The savings are the solves; the SSE phase,
// checkpoints and the distributed exchanges keep their layouts.
//
// Quadrature weights are exact on half-step integer boundaries (see
// Grid.Weight), so on the full grid every weight is bit-identical to the
// uniform spacing ΔE and the weight-aware observable accumulation in
// core reproduces the historical uniform-grid numbers bitwise.
package egrid

import (
	"fmt"
	"sort"
)

// Grid is a non-uniform energy grid: the active subset of a fine uniform
// grid of NE points over [Emin, Emax], with trapezoid quadrature weights
// supported on the active points. A Grid is immutable after construction
// and safe for concurrent readers; the controller builds a new Grid for
// every refinement round.
type Grid struct {
	ne         int
	emin, emax float64
	active     []int     // sorted fine indices, active[0]=0, last=ne-1
	weights    []float64 // len ne; zero at inactive points
}

// Uniform returns the full fine grid: every point active, every weight
// exactly the uniform spacing ΔE.
func Uniform(ne int, emin, emax float64) *Grid {
	active := make([]int, ne)
	for i := range active {
		active[i] = i
	}
	g, err := FromActive(ne, emin, emax, active)
	if err != nil {
		panic(err) // a full ascending index set always validates
	}
	return g
}

// FromActive builds a grid from an explicit active point set. The indices
// must be strictly ascending fine-grid indices including both endpoints 0
// and ne−1 (so interpolation at inactive points never extrapolates). The
// slice is copied.
func FromActive(ne int, emin, emax float64, active []int) (*Grid, error) {
	if ne < 1 {
		return nil, fmt.Errorf("egrid: need at least 1 fine point, got %d", ne)
	}
	if !(emax > emin) {
		return nil, fmt.Errorf("egrid: energy window [%g, %g] is empty", emin, emax)
	}
	if len(active) < 1 || (ne >= 2 && len(active) < 2) {
		return nil, fmt.Errorf("egrid: need both endpoint points active, got %d points", len(active))
	}
	if active[0] != 0 || active[len(active)-1] != ne-1 {
		return nil, fmt.Errorf("egrid: active set must span [0, %d], got [%d, %d]",
			ne-1, active[0], active[len(active)-1])
	}
	for i := 1; i < len(active); i++ {
		if active[i] <= active[i-1] {
			return nil, fmt.Errorf("egrid: active indices not strictly ascending at position %d", i)
		}
	}
	g := &Grid{ne: ne, emin: emin, emax: emax, active: append([]int(nil), active...)}
	g.computeWeights()
	return g, nil
}

// Seed returns a coarse starting grid of approximately n evenly spaced
// active points (always including both endpoints). n is clamped to
// [2, ne].
func Seed(ne int, emin, emax float64, n int) (*Grid, error) {
	if n < 2 {
		n = 2
	}
	if n > ne {
		n = ne
	}
	active := make([]int, 0, n)
	last := -1
	for i := 0; i < n; i++ {
		idx := (i*(ne-1) + (n-1)/2) / (n - 1) // round(i·(ne−1)/(n−1))
		if idx > last {
			active = append(active, idx)
			last = idx
		}
	}
	return FromActive(ne, emin, emax, active)
}

// DefaultSeedPoints is the default coarse-grid size for a fine grid of ne
// points: an eighth of the fine resolution, floored at 9 points so narrow
// features still land near a seed point, capped at ne.
func DefaultSeedPoints(ne int) int {
	n := ne/8 + 1
	if n < 9 {
		n = 9
	}
	if n > ne {
		n = ne
	}
	return n
}

// computeWeights fills the trapezoid quadrature weights. Each active
// point owns the window between the midpoints to its active neighbors
// (the grid edges for the endpoints). Boundaries live on half-step
// integers — point e sits at 2e+1 in units of ΔE/2 — so the weight is
// float64(span)·(ΔE/2) with span an exact small integer. On the full
// grid span is always 2 and the weight is bitwise ΔE, which is what
// keeps the weight-aware accumulation in core bit-compatible with the
// historical uniform-grid code.
func (g *Grid) computeWeights() {
	g.weights = make([]float64, g.ne)
	half := g.Step() / 2
	for i, e := range g.active {
		lb := 0
		if i > 0 {
			lb = g.active[i-1] + e + 1
		}
		rb := 2 * g.ne
		if i < len(g.active)-1 {
			rb = e + g.active[i+1] + 1
		}
		g.weights[e] = float64(rb-lb) * half
	}
}

// NE returns the fine-grid point count.
func (g *Grid) NE() int { return g.ne }

// Emin returns the lower edge of the energy window.
func (g *Grid) Emin() float64 { return g.emin }

// Emax returns the upper edge of the energy window.
func (g *Grid) Emax() float64 { return g.emax }

// Step returns the fine-grid spacing ΔE = (Emax−Emin)/NE, matching
// device.Params.EStep.
func (g *Grid) Step() float64 { return (g.emax - g.emin) / float64(g.ne) }

// Energy returns the energy of fine-grid point e, matching
// device.Params.Energy.
func (g *Grid) Energy(e int) float64 { return g.emin + (float64(e)+0.5)*g.Step() }

// NumActive returns the number of active points.
func (g *Grid) NumActive() int { return len(g.active) }

// Active returns a copy of the sorted active fine-grid indices.
func (g *Grid) Active() []int { return append([]int(nil), g.active...) }

// Full reports whether every fine-grid point is active.
func (g *Grid) Full() bool { return len(g.active) == g.ne }

// IsActive reports whether fine-grid point e is active.
func (g *Grid) IsActive(e int) bool { return e >= 0 && e < g.ne && g.weights[e] != 0 }

// Equal reports whether two grids have the same fine grid, window and
// active point set.
func (g *Grid) Equal(o *Grid) bool {
	if g.ne != o.ne || g.emin != o.emin || g.emax != o.emax || len(g.active) != len(o.active) {
		return false
	}
	for i, e := range g.active {
		if o.active[i] != e {
			return false
		}
	}
	return true
}

// Weight returns the quadrature weight of fine-grid point e (zero for
// inactive points).
func (g *Grid) Weight(e int) float64 { return g.weights[e] }

// Integrate evaluates the quadrature Σ w_e·v_e over the active points.
// values is indexed by fine-grid point; inactive entries are ignored.
func (g *Grid) Integrate(values []float64) float64 {
	var sum float64
	for _, e := range g.active {
		sum += g.weights[e] * values[e]
	}
	return sum
}

// InterpolateValues fills the inactive entries of a fine-grid-indexed
// slice by linear interpolation between the nearest active neighbors.
// Active entries are left untouched.
func (g *Grid) InterpolateValues(v []float64) {
	for i := 1; i < len(g.active); i++ {
		a, b := g.active[i-1], g.active[i]
		for e := a + 1; e < b; e++ {
			alpha := float64(e-a) / float64(b-a)
			v[e] = (1-alpha)*v[a] + alpha*v[b]
		}
	}
}

// ChunkBounds partitions the fine index range [0, NE) into parts
// contiguous chunks whose boundaries balance the ACTIVE point count —
// the point-list generalization of the count split i·n/parts used by
// the distributed GF decomposition. Chunk i is [lo, hi); the chunks
// tile [0, NE) exactly, and on the full grid the boundaries coincide
// with i·NE/parts, so uniform-grid distributed runs keep their
// historical ownership (and byte accounting) unchanged.
func (g *Grid) ChunkBounds(parts, i int) (lo, hi int) {
	bound := func(k int) int {
		if k <= 0 {
			return 0
		}
		if k >= parts {
			return g.ne
		}
		return g.active[k*len(g.active)/parts]
	}
	return bound(i), bound(i + 1)
}

// State is the serializable form of a Grid, embedded in core checkpoints
// so a converged adaptive grid travels with the Σ≷ it was solved on.
type State struct {
	// NE, Emin, Emax identify the fine grid.
	NE   int
	Emin float64
	Emax float64
	// Active is the sorted active fine-index set.
	Active []int
}

// State captures the grid for serialization.
func (g *Grid) State() *State {
	return &State{NE: g.ne, Emin: g.emin, Emax: g.emax, Active: g.Active()}
}

// IsFull reports whether the state describes the full fine grid.
func (s *State) IsFull() bool { return s != nil && len(s.Active) == s.NE }

// Grid reconstructs the grid a State describes.
func (s *State) Grid() (*Grid, error) {
	if s == nil {
		return nil, fmt.Errorf("egrid: nil grid state")
	}
	if !sort.IntsAreSorted(s.Active) {
		return nil, fmt.Errorf("egrid: grid state active set not sorted")
	}
	return FromActive(s.NE, s.Emin, s.Emax, s.Active)
}
