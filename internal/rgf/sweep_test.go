package rgf

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"negfsim/internal/cmat"
	"negfsim/internal/comm"
)

// randomOpenSystem is a random device for the point solves: Hermitian H
// with random couplings and an identity overlap, so each lead repeats one
// of H's end blocks.
func randomOpenSystem(rng *rand.Rand, n, bs int) (h, s *cmat.BlockTri) {
	h = cmat.NewBlockTri(n, bs)
	s = cmat.NewBlockTri(n, bs)
	for i := 0; i < n; i++ {
		h.Diag[i] = cmat.RandomHermitian(rng, bs, 0)
		s.Diag[i] = cmat.Identity(bs)
	}
	for i := 0; i < n-1; i++ {
		h.Upper[i] = cmat.RandomDense(rng, bs, bs).Scale(0.3)
		h.Lower[i] = h.Upper[i].ConjTranspose()
	}
	return h, s
}

// sparseScattering is randomScattering scaled by 0.1 with about a third of
// its blocks nil, as a point solve sees them.
func sparseScattering(rng *rand.Rand, n, bs int) []*cmat.Dense {
	out := randomScattering(rng, n, bs)
	for i := range out {
		if rng.Intn(3) == 0 {
			out[i] = nil
		} else {
			out[i] = out[i].Scale(0.1)
		}
	}
	return out
}

// twoPassPoint is solveOpen written as separate calls: the boundary
// self-energies of the pristine operator a, the fold into a (mutated), G^R
// from SolveRetarded (or from diag(a), with gL rebuilt, on the spatial
// path), then SolveKeldysh once for Σ^< and once for Σ^>.
func twoPassPoint(t *testing.T, a *cmat.BlockTri, scat Scattering, occL, occR float64, diag func(*cmat.BlockTri) []*cmat.Dense) *ElectronResult {
	t.Helper()
	n, bs := a.N, a.Bs
	sigL, sigR, err := BoundarySelfEnergies(a, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	gamL, gamR := Broadening(sigL), Broadening(sigR)
	a.Diag[0].SubInPlace(sigL)
	a.Diag[n-1].SubInPlace(sigR)
	for i, r := range scat.R {
		if r != nil {
			a.Diag[i].SubInPlace(r)
		}
	}
	var ret *Retarded
	if diag == nil {
		ret, err = SolveRetarded(a)
	} else {
		var r Retarded
		r, err = newRetarded(a, diag(a), nil)
		ret = &r
	}
	if err != nil {
		t.Fatal(err)
	}
	less, gtr := make([]*cmat.Dense, n), make([]*cmat.Dense, n)
	for i := range less {
		less[i], gtr[i] = cmat.NewDense(bs, bs), cmat.NewDense(bs, bs)
		if scat.Less[i] != nil {
			less[i].AddInPlace(scat.Less[i])
		}
		if scat.Gtr[i] != nil {
			gtr[i].AddInPlace(scat.Gtr[i])
		}
	}
	less[0].AddScaledInPlace(complex(0, occL), gamL)
	gtr[0].AddScaledInPlace(complex(0, occL-1), gamL)
	less[n-1].AddScaledInPlace(complex(0, occR), gamR)
	gtr[n-1].AddScaledInPlace(complex(0, occR-1), gamR)
	res := &ElectronResult{GR: ret.Diag, GLess: ret.SolveKeldysh(less), GGtr: ret.SolveKeldysh(gtr)}
	res.CurrentL = real(complex(0, occL)*gamL.TraceMul(res.GGtr[0]) - complex(0, occL-1)*gamL.TraceMul(res.GLess[0]))
	res.CurrentR = real(complex(0, occR)*gamR.TraceMul(res.GGtr[n-1]) - complex(0, occR-1)*gamR.TraceMul(res.GLess[n-1]))
	return res
}

// sameBits fails unless got and want hold bitwise-identical blocks.
func sameBits(t *testing.T, what string, got, want []*cmat.Dense) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d blocks, want %d", what, len(got), len(want))
	}
	for i := range want {
		for j, w := range want[i].Data {
			g := got[i].Data[j]
			if math.Float64bits(real(g)) != math.Float64bits(real(w)) || math.Float64bits(imag(g)) != math.Float64bits(imag(w)) {
				t.Fatalf("%s: block %d element %d = %v, want %v bit for bit", what, i, j, g, w)
			}
		}
	}
}

// sameResult fails unless two point results agree bit for bit in every
// diagonal block and both contact currents.
func sameResult(t *testing.T, what string, got, want *ElectronResult) {
	t.Helper()
	sameBits(t, what+" G^R", got.GR, want.GR)
	sameBits(t, what+" G^<", got.GLess, want.GLess)
	sameBits(t, what+" G^>", got.GGtr, want.GGtr)
	if math.Float64bits(got.CurrentL) != math.Float64bits(want.CurrentL) || math.Float64bits(got.CurrentR) != math.Float64bits(want.CurrentR) {
		t.Fatalf("%s: currents (%v, %v), want (%v, %v) bit for bit", what, got.CurrentL, got.CurrentR, want.CurrentL, want.CurrentR)
	}
}

// TestOneSweepBitwise pins the one sweep to separate solves bit for bit:
// G^R, G^< and G^> from one sweep equal SolveRetarded followed by
// SolveKeldysh(Σ^<) and SolveKeldysh(Σ^>), on bare random systems, on
// electron and phonon points with random Σ^R/Σ^≷ (some blocks nil), and on
// the spatial closure path of a 2-rank in-process cluster.
func TestOneSweepBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const energy, eta = 0.3, 0.05
	c := Contacts{MuL: 0.2, MuR: -0.1, KT: 0.025}
	for _, n := range []int{2, 3, 12} {
		for _, bs := range []int{1, 7, 64} {
			name := fmt.Sprintf("n=%d bs=%d", n, bs)
			a := randomSystem(rng, n, bs, 2.5, 0.6)
			less, gtr := randomScattering(rng, n, bs), randomScattering(rng, n, bs)
			sep, err := SolveRetarded(a)
			if err != nil {
				t.Fatal(err)
			}
			one, err := newRetarded(a, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			g := one.sweep(less, gtr)
			sameBits(t, name+" G^R", one.Diag, sep.Diag)
			sameBits(t, name+" G^<", g[:n], sep.SolveKeldysh(less))
			sameBits(t, name+" G^>", g[n:], sep.SolveKeldysh(gtr))

			h, s := randomOpenSystem(rng, n, bs)
			scat := Scattering{R: sparseScattering(rng, n, bs), Less: sparseScattering(rng, n, bs), Gtr: sparseScattering(rng, n, bs)}
			got, err := SolveElectron(h, s, energy, scat, c, eta)
			if err != nil {
				t.Fatal(err)
			}
			op, err := electronOperator(h, s, energy, eta)
			if err != nil {
				t.Fatal(err)
			}
			want := twoPassPoint(t, op, scat, FermiDirac(energy, c.MuL, c.KT), FermiDirac(energy, c.MuR, c.KT), nil)
			sameResult(t, name+" electron", got, want)

			hw := 0.4 // a variable: a constant hw*hw would be exact, not rounded
			pc := PhononContacts{KTL: 0.026, KTR: 0.024}
			ph, err := SolvePhonon(h, hw, scat, pc, eta)
			if err != nil {
				t.Fatal(err)
			}
			op = cmat.NewBlockTri(n, bs)
			h.ShiftIdentityInto(op, complex(hw*hw, eta))
			want = twoPassPoint(t, op, scat, -BoseEinstein(hw, pc.KTL), -BoseEinstein(hw, pc.KTR), nil)
			sameResult(t, name+" phonon", &ElectronResult{GR: ph.DR, GLess: ph.DLess, GGtr: ph.DGtr, CurrentL: ph.HeatL, CurrentR: ph.HeatR}, want)

			if n < 3 { // two ranks need three blocks
				continue
			}
			bound := &Boundary{}
			if err := bound.FillElectron(h, s, energy, eta); err != nil {
				t.Fatal(err)
			}
			scat.Bound = bound
			var closure *ElectronResult
			if err := comm.NewCluster(2).Run(func(r *comm.Rank) error {
				res, err := SolveElectronSpatial(r, h, s, energy, scat, c, eta)
				if r.ID == 0 {
					closure = res
				}
				return err
			}); err != nil {
				t.Fatal(err)
			}
			op, err = electronOperator(h, s, energy, eta)
			if err != nil {
				t.Fatal(err)
			}
			want = twoPassPoint(t, op, scat, FermiDirac(energy, c.MuL, c.KT), FermiDirac(energy, c.MuR, c.KT), func(a *cmat.BlockTri) []*cmat.Dense {
				diags := make([][]*cmat.Dense, 2)
				if err := comm.NewCluster(2).Run(func(r *comm.Rank) error {
					var err error
					diags[r.ID], err = DistributedRetarded(r, a)
					return err
				}); err != nil {
					t.Fatal(err)
				}
				return diags[0]
			})
			sameResult(t, name+" spatial closure", closure, want)
		}
	}
}

// pointFlops is the closed-form counted flops F(n, bs, r) of one point
// solve whose Boundary is filled and whose couplings are supported on r of
// a block's rows and r of its columns (DESIGN.md, "Counted flops of one RGF
// point"): n block inversions at 8bs³/3 + 8bs³ each; 4 GEMMs of 8bs³ at
// block 0 (2 per Keldysh set) and, per block after the first,
// 8·(4bs³ + 10bs²r + 7bs·r² + 3r³) — the 4 products per set with no
// coupling operand run whole, every other product over the supports —
// which is 24 GEMMs at r = bs; and traces trace products of 8bs² (4
// contact terms, plus 2 dissipation terms per electron block whose Σ^< and
// Σ^> are both set).
func pointFlops(n, bs, r, traces int) uint64 {
	gemm := uint64(8 * bs * bs * bs)
	inv := uint64(8*bs*bs*bs/3) + gemm
	block := uint64(8 * (4*bs*bs*bs + 10*bs*bs*r + 7*bs*r*r + 3*r*r*r))
	return 4*gemm + uint64(n-1)*block + uint64(n)*inv + uint64(traces*8*bs*bs)
}

// TestPointSolveFlops pins the counted flops of one electron and one phonon
// point solve with a filled Boundary to pointFlops exactly, with dense
// couplings and with couplings on bs/2 and on no boundary orbitals. Blocks
// below the blocked engine's threshold (bs = 1, 7) run and count every
// product whole, as r = bs.
func TestPointSolveFlops(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	c := Contacts{MuL: 0.2, MuR: -0.1, KT: 0.025}
	pc := PhononContacts{KTL: 0.026, KTR: 0.024}
	for _, n := range []int{2, 3, 12} {
		for _, bs := range []int{1, 7, 64} {
			for _, r := range []int{bs, bs / 2, 0} {
				h, s := boundaryOpenSystem(rng, n, bs, r)
				scat := Scattering{Less: sparseScattering(rng, n, bs), Gtr: sparseScattering(rng, n, bs), Bound: &Boundary{}}
				dissipation := 0
				for i := range scat.Less {
					if scat.Less[i] != nil && scat.Gtr[i] != nil {
						dissipation++
					}
				}
				pscat := scat
				pscat.Bound = &Boundary{}
				for _, p := range []struct {
					name   string
					solve  func() error
					traces int
				}{
					{"electron", func() error { _, err := SolveElectron(h, s, 0.3, scat, c, 0.05); return err }, 4 + 2*dissipation},
					{"phonon", func() error { _, err := SolvePhonon(h, 0.4, pscat, pc, 0.05); return err }, 4},
				} {
					if err := p.solve(); err != nil { // fills the boundary slot
						t.Fatal(err)
					}
					cmat.Counter.Reset()
					if err := p.solve(); err != nil {
						t.Fatal(err)
					}
					counted := r
					if bs < 32 {
						counted = bs
					}
					if got, want := cmat.Counter.Reset(), pointFlops(n, bs, counted, p.traces); got != want {
						t.Errorf("n=%d bs=%d r=%d: a %s point solve counted %d flops, want %d", n, bs, r, p.name, got, want)
					}
				}
			}
		}
	}
}

// BenchmarkPointSweep times one electron point at gf_wire's shape (12
// blocks of 64) with a filled Boundary, as every Born iteration after the
// first solves it, and reports the counted flops per solve: with dense
// couplings, and with couplings on 32 boundary orbitals as gf_wire's.
func BenchmarkPointSweep(b *testing.B) {
	const n, bs, energy, eta = 12, 64, 0.3, 0.05
	for _, r := range []int{bs, bs / 2} {
		b.Run(fmt.Sprintf("coupling=%d", r), func(b *testing.B) {
			rng := rand.New(rand.NewSource(53))
			h, s := boundaryOpenSystem(rng, n, bs, r)
			scat := Scattering{R: randomScattering(rng, n, bs), Less: randomScattering(rng, n, bs), Gtr: randomScattering(rng, n, bs), Bound: &Boundary{}}
			c := Contacts{MuL: 0.2, MuR: -0.1, KT: 0.025}
			if err := scat.Bound.FillElectron(h, s, energy, eta); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			cmat.Counter.Reset()
			for i := 0; i < b.N; i++ {
				res, err := SolveElectron(h, s, energy, scat, c, eta)
				if err != nil {
					b.Fatal(err)
				}
				res.Release()
			}
			b.ReportMetric(float64(cmat.Counter.Reset())/float64(b.N), "flops/op")
		})
	}
}
