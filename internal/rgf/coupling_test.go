package rgf

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"negfsim/internal/cmat"
	"negfsim/internal/comm"
)

// boundaryOpenSystem is randomOpenSystem with couplings between r boundary
// orbitals only, as a device couples its slabs: A[i,i+1] has nonzeros in the
// last r rows and the first r columns, A[i+1,i] is its adjoint. r = 0 is a
// chain of uncoupled blocks (gf_wire's Φ), r = bs a dense coupling.
func boundaryOpenSystem(rng *rand.Rand, n, bs, r int) (h, s *cmat.BlockTri) {
	h = cmat.NewBlockTri(n, bs)
	s = cmat.NewBlockTri(n, bs)
	for i := 0; i < n; i++ {
		h.Diag[i] = cmat.RandomHermitian(rng, bs, 0)
		s.Diag[i] = cmat.Identity(bs)
	}
	for i := 0; i < n-1; i++ {
		u := cmat.RandomDense(rng, r, r).Scale(0.3)
		h.Upper[i].SetSubmatrix(bs-r, 0, u)
		h.Lower[i] = h.Upper[i].ConjTranspose()
	}
	return h, s
}

// withFullSupports runs f with every coupling support forced full, so each
// product runs whole.
func withFullSupports(f func()) {
	forceFullSupports = true
	defer func() { forceFullSupports = false }()
	f()
}

// TestCouplingSupportBitwise pins the support path to the plain products
// bit for bit: electron and phonon point solves (Sancho–Rubio boundaries
// included), SurfaceGF and the spatial retarded solves give the same
// Float64bits with the couplings' supports worked out as with them forced
// full, for couplings on r ∈ {0, bs/4, bs/2, bs} boundary orbitals, with
// nil and with non-nil Σ, at a block size below the blocked engine's
// threshold (12, whose products run whole), one whose coupling products
// run on the naive kernel and the rest compacted blocked (40) and gf_wire's
// (64). The spatial solves run PartitionedRetarded over two segments of
// n = 5 and three of n = 9, whose interior segment has two blocks and
// builds both strip sides, and DistributedRetarded on 2 and 3 in-process
// ranks, every rank's diagonal checked.
func TestCouplingSupportBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	const n, energy, eta, hw = 5, 0.3, 0.05, 0.4
	c := Contacts{MuL: 0.2, MuR: -0.1, KT: 0.025}
	pc := PhononContacts{KTL: 0.026, KTR: 0.024}
	for _, bs := range []int{12, 40, 64} {
		for _, r := range []int{0, bs / 4, bs / 2, bs} {
			h, s := boundaryOpenSystem(rng, n, bs, r)
			for _, sigma := range []bool{false, true} {
				name := fmt.Sprintf("bs=%d r=%d Σ=%v", bs, r, sigma)
				var scat Scattering
				if sigma {
					scat = Scattering{R: sparseScattering(rng, n, bs), Less: sparseScattering(rng, n, bs), Gtr: sparseScattering(rng, n, bs)}
				}
				electron := func() *ElectronResult {
					res, err := SolveElectron(h, s, energy, scat, c, eta)
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				phonon := func() *ElectronResult {
					res, err := SolvePhonon(h, hw, scat, pc, eta)
					if err != nil {
						t.Fatal(err)
					}
					return &ElectronResult{GR: res.DR, GLess: res.DLess, GGtr: res.DGtr, CurrentL: res.HeatL, CurrentR: res.HeatR}
				}
				gotE, gotP := electron(), phonon()
				var wantE, wantP *ElectronResult
				withFullSupports(func() { wantE, wantP = electron(), phonon() })
				sameResult(t, name+" electron", gotE, wantE)
				sameResult(t, name+" phonon", gotP, wantP)
			}

			name := fmt.Sprintf("bs=%d r=%d", bs, r)
			a, err := electronOperator(h, s, energy, eta)
			if err != nil {
				t.Fatal(err)
			}
			surface := func() []*cmat.Dense {
				g, err := SurfaceGF(a.Diag[0], a.Lower[0], a.Upper[0], 1e-10)
				if err != nil {
					t.Fatal(err)
				}
				return []*cmat.Dense{g}
			}
			h9, s9 := boundaryOpenSystem(rng, 9, bs, r)
			a9, err := electronOperator(h9, s9, energy, eta)
			if err != nil {
				t.Fatal(err)
			}
			partitioned := func(a *cmat.BlockTri, segments int) []*cmat.Dense {
				diag, err := PartitionedRetarded(a, segments, segments)
				if err != nil {
					t.Fatal(err)
				}
				return diag
			}
			// distributed concatenates every rank's replicated diagonal.
			distributed := func(p int) []*cmat.Dense {
				cl := comm.NewCluster(p)
				defer cl.Unregister()
				diags := make([][]*cmat.Dense, p)
				if err := cl.Run(func(rk *comm.Rank) error {
					var err error
					diags[rk.ID], err = DistributedRetarded(rk, a9)
					return err
				}); err != nil {
					t.Fatal(err)
				}
				return slices.Concat(diags...)
			}
			spatial := func() [][]*cmat.Dense {
				return [][]*cmat.Dense{surface(), partitioned(a, 2), partitioned(a9, 3), distributed(2), distributed(3)}
			}
			got := spatial()
			var want [][]*cmat.Dense
			withFullSupports(func() { want = spatial() })
			for i, what := range []string{"SurfaceGF", "partitioned G^R n=5 P=2", "partitioned G^R n=9 P=3",
				"distributed G^R n=9 P=2", "distributed G^R n=9 P=3"} {
				sameBits(t, name+" "+what, got[i], want[i])
			}
		}
	}
}
