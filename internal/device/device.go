package device

import (
	"fmt"
	"math"
	"sort"

	"negfsim/internal/cmat"
)

// LatticeConst is the atom spacing of the synthetic 2-D slice in nm,
// chosen near half the Si lattice constant so paper-sized structures have
// paper-sized physical dimensions.
const LatticeConst = 0.2715

// Device is a generated nano-structure: atom positions on a 2-D slice,
// the SSE neighbor map f(a, b), and everything needed to assemble the
// synthetic operators.
type Device struct {
	P Params

	// Kind names the device-zoo spec that built this structure ("" and
	// "nanowire" both mean the original synthetic FinFET family).
	Kind string

	// FP, when nonzero, overrides P.Fingerprint() as the content identity
	// of the structure. Zoo kinds set it so that two kinds sharing a grid
	// never collide in the front tier's content-addressed cache.
	FP uint64

	// Pos[a] is the (x, y) position of atom a in nm. Atoms are ordered
	// column-major along the transport direction x: atom a sits at column
	// a/Rows, row a%Rows.
	Pos [][2]float64

	// Neigh[a][b] is f(a, b), the index of the b-th neighbor of atom a,
	// or -1 if the atom has fewer than NB neighbors (structure edge).
	Neigh [][]int

	// BondDir[a][b] is the unit direction (x, y, z) of bond f(a,b)−a.
	// The z component is nonzero for the synthetic out-of-plane partner
	// bonds so all three vibration directions couple.
	BondDir [][][3]float64

	// onsite0/hop0 are optional electron-model overrides installed by zoo
	// kinds (CNT, chain, GNR). A nil hop0 result drops that bond from H.
	onsite0 func(a int, theta float64) *cmat.Dense
	hop0    func(a, b int) *cmat.Dense
	// orthogonal marks kinds whose basis is orthonormal: Overlap(kz) = I.
	orthogonal bool
}

// Model carries the electron-structure overrides a device-zoo spec installs
// on top of the shared geometry (positions, SSE neighbor map, phonon
// springs). Onsite and Hop replace the synthetic random-matrix entries with
// the kind's tight-binding blocks; Hop may return nil to drop a bond.
type Model struct {
	Kind       string
	FP         uint64
	Onsite     func(a int, theta float64) *cmat.Dense
	Hop        func(a, b int) *cmat.Dense
	Orthogonal bool
}

// New generates the structure for the given parameters.
func New(p Params) (*Device, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	d := &Device{P: p}
	d.Pos = make([][2]float64, p.NA)
	for a := 0; a < p.NA; a++ {
		col, row := a/p.Rows, a%p.Rows
		d.Pos[a] = [2]float64{float64(col) * LatticeConst, float64(row) * LatticeConst}
	}
	d.buildNeighbors()
	if err := d.checkBlockStructure(); err != nil {
		return nil, err
	}
	return d, nil
}

// NewWith generates the structure for p and installs a zoo kind's electron
// model on it. Geometry, neighbor maps and the phonon spring model are the
// shared synthetic ones, so SSE scattering works identically for every kind;
// only H(kz) (and optionally S(kz)) differ.
func NewWith(p Params, m Model) (*Device, error) {
	d, err := New(p)
	if err != nil {
		return nil, err
	}
	d.Kind = m.Kind
	d.FP = m.FP
	d.onsite0 = m.Onsite
	d.hop0 = m.Hop
	d.orthogonal = m.Orthogonal
	return d, nil
}

// Fingerprint returns the content identity of the generated structure: the
// spec-level fingerprint for zoo kinds, P.Fingerprint() otherwise.
func (d *Device) Fingerprint() uint64 {
	if d.FP != 0 {
		return d.FP
	}
	return d.P.Fingerprint()
}

// Col returns the transport-direction column of atom a.
func (d *Device) Col(a int) int { return a / d.P.Rows }

// Row returns the width-direction row of atom a.
func (d *Device) Row(a int) int { return a % d.P.Rows }

// BlockOf returns the RGF block index of atom a.
func (d *Device) BlockOf(a int) int {
	colsPerBlock := d.P.Cols() / d.P.Bnum
	return d.Col(a) / colsPerBlock
}

// buildNeighbors selects, for every atom, its NB nearest atoms (Euclidean
// distance on the slice, ties broken by atom index for determinism). This is
// the neighbor indirection f(a, b) of Eq. (3): atoms with neighboring
// indices are very often neighbors in the coupling matrix — the property
// §4.1 exploits when propagating the SSE memlets.
func (d *Device) buildNeighbors() {
	p := d.P
	d.Neigh = make([][]int, p.NA)
	d.BondDir = make([][][3]float64, p.NA)

	// Candidate window: columns within ±win of the atom are sufficient to
	// contain the NB nearest atoms (each column holds Rows atoms).
	win := p.NB/p.Rows + 2

	type cand struct {
		idx  int
		dist float64
	}
	for a := 0; a < p.NA; a++ {
		ca, ra := d.Col(a), d.Row(a)
		var cands []cand
		for dc := -win; dc <= win; dc++ {
			c := ca + dc
			if c < 0 || c >= p.Cols() {
				continue
			}
			for r := 0; r < p.Rows; r++ {
				b := c*p.Rows + r
				if b == a {
					continue
				}
				dx := float64(dc)
				dy := float64(r - ra)
				cands = append(cands, cand{b, math.Hypot(dx, dy)})
			}
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].dist != cands[j].dist {
				return cands[i].dist < cands[j].dist
			}
			return cands[i].idx < cands[j].idx
		})
		d.Neigh[a] = make([]int, p.NB)
		d.BondDir[a] = make([][3]float64, p.NB)
		for b := 0; b < p.NB; b++ {
			if b >= len(cands) {
				d.Neigh[a][b] = -1
				continue
			}
			f := cands[b].idx
			d.Neigh[a][b] = f
			dx := d.Pos[f][0] - d.Pos[a][0]
			dy := d.Pos[f][1] - d.Pos[a][1]
			// Give every bond a small synthetic out-of-plane tilt so the
			// z vibration direction participates (the slice represents a
			// periodic 3-D fin).
			dz := 0.35 * LatticeConst * symFloat(mix(d.P.Seed, tagGradH, uint64(min(a, f)), uint64(max(a, f))))
			n := math.Sqrt(dx*dx + dy*dy + dz*dz)
			d.BondDir[a][b] = [3]float64{dx / n, dy / n, dz / n}
		}
	}
}

// NeighborSlot returns the slot index b with Neigh[a][b] == f, or -1.
func (d *Device) NeighborSlot(a, f int) int {
	for b, g := range d.Neigh[a] {
		if g == f {
			return b
		}
	}
	return -1
}

// checkBlockStructure verifies that nearest-neighbor Hamiltonian hopping
// (±1 column) never couples non-adjacent RGF blocks, the prerequisite for
// the block-tridiagonal form RGF relies on.
func (d *Device) checkBlockStructure() error {
	colsPerBlock := d.P.Cols() / d.P.Bnum
	if colsPerBlock < 1 {
		return fmt.Errorf("device: %d columns cannot form %d blocks", d.P.Cols(), d.P.Bnum)
	}
	return nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
