package rgf

import (
	"math"
	"math/rand"
	"testing"

	"negfsim/internal/cmat"
	"negfsim/internal/device"
)

func miniDevice(t *testing.T) *device.Device {
	t.Helper()
	d, err := device.New(device.Mini())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSolveElectronBallisticCurrentConservation(t *testing.T) {
	d := miniDevice(t)
	h := d.Hamiltonian(0)
	s := d.Overlap(0)
	c := Contacts{MuL: 0.2, MuR: -0.2, KT: 0.025}
	var total float64
	for _, e := range []float64{-0.15, -0.05, 0.0, 0.05, 0.15} {
		res, err := SolveElectron(h, s, e, Scattering{}, c, 1e-6)
		if err != nil {
			t.Fatalf("E=%g: %v", e, err)
		}
		// Without scattering, what flows in left must flow out right.
		// The iη broadening absorbs O(η/Γ) of the current, hence the
		// relative tolerance.
		if math.Abs(res.CurrentL+res.CurrentR) > 1e-3*(1+math.Abs(res.CurrentL)) {
			t.Fatalf("E=%g: current not conserved: I_L=%g I_R=%g", e, res.CurrentL, res.CurrentR)
		}
		total += res.CurrentL
	}
	if total == 0 {
		t.Fatal("bias should drive a nonzero net current")
	}
}

func TestSolveElectronKeldyshIdentity(t *testing.T) {
	// G^> − G^< = G^R − G^A must hold when Σ^> − Σ^< = Σ^R − Σ^A, which the
	// contact self-energies satisfy by construction.
	d := miniDevice(t)
	h := d.Hamiltonian(1)
	s := d.Overlap(1)
	res, err := SolveElectron(h, s, 0.05, Scattering{}, Contacts{MuL: 0.1, MuR: -0.1, KT: 0.025}, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.GR {
		lhs := res.GGtr[i].Sub(res.GLess[i])
		rhs := res.GR[i].Sub(res.GR[i].ConjTranspose())
		// The iη broadening breaks the identity at O(η·‖G‖²), so compare
		// relative to the magnitude of the spectral function.
		if d := lhs.MaxAbsDiff(rhs); d > 1e-2*(1+rhs.MaxAbs()) {
			t.Fatalf("block %d: G^>−G^< vs G^R−G^A diff %g (scale %g)", i, d, rhs.MaxAbs())
		}
	}
}

func TestSolveElectronEquilibriumNoCurrent(t *testing.T) {
	d := miniDevice(t)
	h := d.Hamiltonian(0)
	s := d.Overlap(0)
	res, err := SolveElectron(h, s, 0.02, Scattering{}, Contacts{MuL: 0.1, MuR: 0.1, KT: 0.025}, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.CurrentL) > 1e-8 || math.Abs(res.CurrentR) > 1e-8 {
		t.Fatalf("equal potentials must carry no current, got I_L=%g I_R=%g", res.CurrentL, res.CurrentR)
	}
}

func TestSolveElectronLesserAntiHermitian(t *testing.T) {
	d := miniDevice(t)
	res, err := SolveElectron(d.Hamiltonian(0), d.Overlap(0), 0.0, Scattering{},
		Contacts{MuL: 0.2, MuR: -0.2, KT: 0.025}, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range res.GLess {
		anti := g.Add(g.ConjTranspose())
		if anti.MaxAbs() > 1e-9 {
			t.Fatalf("block %d: G^< not anti-Hermitian (defect %g)", i, anti.MaxAbs())
		}
	}
}

func TestSolveElectronWithScattering(t *testing.T) {
	// A small anti-Hermitian scattering self-energy must broaden the states
	// and keep the solver stable; dissipation becomes nonzero.
	d := miniDevice(t)
	h := d.Hamiltonian(0)
	s := d.Overlap(0)
	n, bs := h.N, h.Bs
	scat := Scattering{R: make([]*cmat.Dense, n), Less: make([]*cmat.Dense, n), Gtr: make([]*cmat.Dense, n)}
	for i := 0; i < n; i++ {
		g := cmat.Identity(bs).Scale(complex(0, 0.01)) // Γ_S = 0.02·I
		scat.Less[i] = g                               // Σ^< = i·0.01·I
		scat.Gtr[i] = g.Scale(-1)                      // Σ^> = −i·0.01·I
		scat.R[i] = scat.Gtr[i].Sub(scat.Less[i]).Scale(0.5)
	}
	res, err := SolveElectron(h, s, 0.05, scat, Contacts{MuL: 0.2, MuR: -0.2, KT: 0.025}, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	var dissip float64
	for _, p := range res.DissipationPerBlock {
		dissip += math.Abs(p)
	}
	if dissip == 0 {
		t.Fatal("scattering should exchange energy with the bath")
	}
	// Contact currents no longer balance exactly; the mismatch is absorbed
	// by the bath: I_L + I_R + Σ dissipation = 0.
	var sum float64
	for _, p := range res.DissipationPerBlock {
		sum += p
	}
	if math.Abs(res.CurrentL+res.CurrentR+sum) > 1e-4*(1+math.Abs(res.CurrentL)) {
		t.Fatalf("current + bath exchange must balance: %g", res.CurrentL+res.CurrentR+sum)
	}
}

// TestSpectralPerAtomPositive checks that the local density of states
// −Im G^R_ii/π is non-negative on every orbital, hence on every atom.
func TestSpectralPerAtomPositive(t *testing.T) {
	d := miniDevice(t)
	res, err := SolveElectron(d.Hamiltonian(0), d.Overlap(0), 0.0, Scattering{},
		Contacts{MuL: 0, MuR: 0, KT: 0.025}, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	for b, g := range res.GR {
		for i := 0; i < g.Rows; i++ {
			if v := -imag(g.At(i, i)) / math.Pi; v < -1e-9 {
				t.Fatalf("block %d orbital %d: negative LDOS %g", b, i, v)
			}
		}
	}
}

func TestSolveElectronShapeMismatch(t *testing.T) {
	d := miniDevice(t)
	h := d.Hamiltonian(0)
	bad := cmat.NewBlockTri(h.N+1, h.Bs)
	if _, err := SolveElectron(h, bad, 0, Scattering{}, Contacts{}, 1e-6); err == nil {
		t.Fatal("expected shape-mismatch error")
	}
}

func TestSolvePhononStability(t *testing.T) {
	d := miniDevice(t)
	phi := d.Dynamical(1)
	c := PhononContacts{KTL: 0.026, KTR: 0.024}
	for _, hw := range []float64{0.01, 0.05, 0.12} {
		res, err := SolvePhonon(phi, hw, PhononScattering{}, c, 1e-6)
		if err != nil {
			t.Fatalf("ω=%g: %v", hw, err)
		}
		for i, g := range res.DLess {
			anti := g.Add(g.ConjTranspose())
			if anti.MaxAbs() > 1e-8 {
				t.Fatalf("ω=%g block %d: D^< not anti-Hermitian (%g)", hw, i, anti.MaxAbs())
			}
		}
		// Ballistic phonons: heat in = heat out.
		if math.Abs(res.HeatL+res.HeatR) > 1e-6*(1+math.Abs(res.HeatL)) {
			t.Fatalf("ω=%g: heat current not conserved: %g vs %g", hw, res.HeatL, res.HeatR)
		}
	}
}

func TestSolvePhononHotterLeadHeatsColder(t *testing.T) {
	d := miniDevice(t)
	phi := d.Dynamical(0)
	var net float64
	for _, hw := range []float64{0.02, 0.04, 0.06, 0.08} {
		res, err := SolvePhonon(phi, hw, PhononScattering{}, PhononContacts{KTL: 0.04, KTR: 0.02}, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		net += res.HeatL
	}
	if net == 0 {
		t.Fatal("temperature difference should drive heat flow")
	}
}

// The phonon point solve against the independent dense oracle: on the
// boundary-folded operator (ω² + iη)·I − Φ − Π_L − Π_R − Π^R_S, with contact
// blocks Π^< = −i·N·Γ and Π^> = −i·(N+1)·Γ plus random scattering Π^≷_S,
// DenseReference's D^R, D^< and D^> must match SolvePhonon's to 1e-9 relative.
func TestSolvePhononKeldyshMatchesDense(t *testing.T) {
	d := miniDevice(t)
	phi := d.Dynamical(1)
	n, bs := phi.N, phi.Bs
	const hw, eta = 0.05, 1e-6
	c := PhononContacts{KTL: 0.03, KTR: 0.02}
	rng := rand.New(rand.NewSource(17))
	scat := PhononScattering{R: make([]*cmat.Dense, n), Less: make([]*cmat.Dense, n), Gtr: make([]*cmat.Dense, n)}
	for i := 0; i < n; i++ {
		scat.Less[i] = cmat.RandomHermitian(rng, bs, 0).Scale(complex(0, -1e-5))
		scat.Gtr[i] = cmat.RandomHermitian(rng, bs, 0).Scale(complex(0, -1e-5))
		scat.R[i] = scat.Gtr[i].Sub(scat.Less[i]).Scale(0.5)
	}
	res, err := SolvePhonon(phi, hw, scat, c, eta)
	if err != nil {
		t.Fatal(err)
	}

	a := cmat.NewBlockTri(n, bs)
	phi.ShiftIdentityInto(a, complex(hw*hw, eta))
	sigL, sigR, err := BoundarySelfEnergies(a, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	gamL, gamR := Broadening(sigL), Broadening(sigR)
	a.Diag[0].SubInPlace(sigL)
	a.Diag[n-1].SubInPlace(sigR)
	less := make([]*cmat.Dense, n)
	gtr := make([]*cmat.Dense, n)
	for i := 0; i < n; i++ {
		a.Diag[i].SubInPlace(scat.R[i])
		less[i] = scat.Less[i].Clone()
		gtr[i] = scat.Gtr[i].Clone()
	}
	nL, nR := BoseEinstein(hw, c.KTL), BoseEinstein(hw, c.KTR)
	less[0].AddScaledInPlace(complex(0, -nL), gamL)
	gtr[0].AddScaledInPlace(complex(0, -(nL+1)), gamL)
	less[n-1].AddScaledInPlace(complex(0, -nR), gamR)
	gtr[n-1].AddScaledInPlace(complex(0, -(nR+1)), gamR)
	wantR, wantLess, err := DenseReference(a, less)
	if err != nil {
		t.Fatal(err)
	}
	_, wantGtr, err := DenseReference(a, gtr)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []struct {
		name      string
		got, want []*cmat.Dense
	}{{"D^R", res.DR, wantR}, {"D^<", res.DLess, wantLess}, {"D^>", res.DGtr, wantGtr}} {
		for i := range q.want {
			if diff := q.got[i].MaxAbsDiff(q.want[i]); diff > 1e-9*q.want[i].MaxAbs() {
				t.Errorf("%s block %d: RGF vs dense diff %g (scale %g)", q.name, i, diff, q.want[i].MaxAbs())
			}
		}
	}
}

func TestSolvePhononRejectsNonPositiveFrequency(t *testing.T) {
	d := miniDevice(t)
	if _, err := SolvePhonon(d.Dynamical(0), 0, PhononScattering{}, PhononContacts{}, 1e-6); err == nil {
		t.Fatal("expected error for ω ≤ 0")
	}
}
