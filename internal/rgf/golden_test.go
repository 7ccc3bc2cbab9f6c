package rgf

import (
	"math"
	"testing"

	"negfsim/internal/cmat"
)

// Golden-value regression tests: small systems with closed-form answers.

// uniformChain builds the block-tridiagonal operator of a perfect 1-D
// tight-binding chain: onsite 0, hopping −t, block size 1.
func uniformChain(blocks int, t float64) (*cmat.BlockTri, *cmat.BlockTri) {
	h := cmat.NewBlockTri(blocks, 1)
	s := cmat.NewBlockTri(blocks, 1)
	for i := 0; i < blocks; i++ {
		s.Diag[i].Set(0, 0, 1)
	}
	for i := 0; i < blocks-1; i++ {
		h.Upper[i].Set(0, 0, complex(-t, 0))
		h.Lower[i].Set(0, 0, complex(-t, 0))
		s.Upper[i] = cmat.NewDense(1, 1)
		s.Lower[i] = cmat.NewDense(1, 1)
	}
	return h, s
}

// biasedContacts drives a current through the chains below, so the Landauer
// cross-check has something to compare.
var biasedContacts = Contacts{MuL: 0.1, MuR: -0.1, KT: 0.025}

// checkLandauer asserts the Landauer picture of a ballistic solve: the
// Meir-Wingreen contact current equals T(E)·(f_L − f_R), and what flows in on
// the left flows out on the right, both to 1e-9 relative.
func checkLandauer(t *testing.T, e float64, res *ElectronResult, trans float64, c Contacts) {
	t.Helper()
	want := trans * (FermiDirac(e, c.MuL, c.KT) - FermiDirac(e, c.MuR, c.KT))
	if math.Abs(res.CurrentL-want) > 1e-9*math.Abs(want) {
		t.Errorf("E=%g: Meir-Wingreen I_L = %g, Landauer T·(f_L−f_R) = %g", e, res.CurrentL, want)
	}
	if math.Abs(res.CurrentR+res.CurrentL) > 1e-9*math.Abs(res.CurrentL) {
		t.Errorf("E=%g: I_R = %g, want −I_L = %g", e, res.CurrentR, -res.CurrentL)
	}
}

func TestPerfectChainUnitTransmission(t *testing.T) {
	// A homogeneous chain between matched leads is reflectionless: T(E) = 1
	// for every energy inside the band (−2t, 2t), and T = 0 outside.
	h, s := uniformChain(6, 0.5)
	for _, e := range []float64{-0.8, -0.3, 0.0, 0.4, 0.9} {
		res, trans, err := SolveElectronBallistic(h, s, e, biasedContacts, 1e-6)
		if err != nil {
			t.Fatalf("E=%g: %v", e, err)
		}
		checkLandauer(t, e, res, trans, biasedContacts)
		if math.Abs(e) < 1.0 { // inside the band (half-width 2t = 1)
			if math.Abs(trans-1) > 1e-3 {
				t.Fatalf("E=%g: perfect chain should transmit T=1, got %g", e, trans)
			}
		} else {
			if trans > 1e-3 {
				t.Fatalf("E=%g: outside the band T should vanish, got %g", e, trans)
			}
		}
	}
}

func TestChainWithBarrierAnalytic(t *testing.T) {
	// A single on-site barrier ε on one site of an otherwise perfect chain:
	// the textbook scattering result at energy E = −2t·cos(ka) is
	//
	//	T(E) = 1 / (1 + (ε / (2t·sin(ka)))²).
	const hop = 0.5
	const eps = 0.35
	h, s := uniformChain(6, hop)
	h.Diag[2].Set(0, 0, complex(eps, 0)) // barrier in the middle
	for _, e := range []float64{-0.6, -0.2, 0.0, 0.3, 0.7} {
		res, trans, err := SolveElectronBallistic(h, s, e, biasedContacts, 1e-6)
		if err != nil {
			t.Fatalf("E=%g: %v", e, err)
		}
		checkLandauer(t, e, res, trans, biasedContacts)
		ka := math.Acos(-e / (2 * hop))
		v := 2 * hop * math.Sin(ka) // group velocity factor
		want := 1 / (1 + (eps/v)*(eps/v))
		if math.Abs(trans-want) > 1e-3*(1+want) {
			t.Fatalf("E=%g: T = %g, analytic %g", e, trans, want)
		}
	}
}

func TestSurfaceGFBandEdgeSquareRoot(t *testing.T) {
	// The chain's surface LDOS −Im g/π follows the semicircle-edge law:
	// it vanishes like sqrt(band edge − E) at the band edge. Check the
	// analytic surface GF magnitude at the band center: g(0) = −i/t.
	const hop = 0.5
	z := complex(0, 1e-5) // larger η: the decimation loses ~ε_mach/η² at the band center
	a00 := cmat.DenseFromSlice(1, 1, []complex128{z})
	tt := cmat.DenseFromSlice(1, 1, []complex128{complex(-hop, 0)})
	g, err := SurfaceGF(a00, tt, tt, 1e-14)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(imag(g.At(0, 0))+1/hop) > 1e-3 {
		t.Fatalf("surface GF at band center = %v, want −i/t = %vi", g.At(0, 0), -1/hop)
	}
}
