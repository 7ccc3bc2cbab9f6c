package sse

import (
	"math"
	"math/rand"
	"testing"

	"negfsim/internal/cmat"
	"negfsim/internal/device"
	"negfsim/internal/tensor"
)

func cmplxAbs(v complex128) float64 {
	return math.Hypot(real(v), imag(v))
}

// gScale returns the largest element magnitude of a tensor, the reference
// scale for relative comparisons between kernel variants (their summation
// orders differ, so agreement is to rounding, not bit-exact).
func gScale(g *tensor.GTensor) float64 {
	var m float64
	for _, v := range g.Data {
		if a := cmplxAbs(v); a > m {
			m = a
		}
	}
	return m
}

func testKernel(t *testing.T) *Kernel {
	t.Helper()
	d, err := device.New(device.Mini())
	if err != nil {
		t.Fatal(err)
	}
	return NewKernel(d)
}

// randomAntiHermG fills an electron tensor with anti-Hermitian blocks, the
// structure physical G^≷ have.
func randomAntiHermG(rng *rand.Rand, p device.Params) *tensor.GTensor {
	g := tensor.NewGTensor(p.Nkz, p.NE, p.NA, p.Norb)
	for kz := 0; kz < p.Nkz; kz++ {
		for e := 0; e < p.NE; e++ {
			for a := 0; a < p.NA; a++ {
				h := cmat.RandomHermitian(rng, p.Norb, 0)
				g.Block(kz, e, a).CopyFrom(h.Scale(1i))
			}
		}
	}
	return g
}

func randomD(rng *rand.Rand, p device.Params) *tensor.DTensor {
	d := tensor.NewDTensor(p.Nqz, p.Nw, p.NA, p.NB, p.N3D)
	for i := range d.Data {
		d.Data[i] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
	}
	return d
}

func TestPreprocessDCombination(t *testing.T) {
	k := testKernel(t)
	p := k.Dev.P
	rng := rand.New(rand.NewSource(1))
	d := randomD(rng, p)
	pre := k.PreprocessD(d)
	// Check one interior bond explicitly against the Eq. (3) combination.
	a := p.NA / 2
	b := 0
	f := k.Dev.Neigh[a][b]
	r := k.Dev.NeighborSlot(f, a)
	if f < 0 || r < 0 {
		t.Fatal("expected interior bond with reverse slot")
	}
	for i := 0; i < p.N3D; i++ {
		for j := 0; j < p.N3D; j++ {
			want := d.Block(1, 2, f, r).At(i, j) - d.Block(1, 2, f, p.NB).At(i, j) -
				d.Block(1, 2, a, p.NB).At(i, j) + d.Block(1, 2, a, b).At(i, j)
			if got := pre.At(1, 2, a, b, i, j); cmplxAbs(got-want) > 1e-14 {
				t.Fatalf("PreD(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
}

// The heart of the paper: the transformed kernels must compute exactly what
// the naive dataflow computes. The next two tests pin OMEN and DaCe to the
// Fig. 8 reference.
func TestSigmaOMENMatchesReference(t *testing.T) {
	k := testKernel(t)
	p := k.Dev.P
	rng := rand.New(rand.NewSource(2))
	g := randomAntiHermG(rng, p)
	pre := k.PreprocessD(randomD(rng, p))
	ref := k.SigmaReference(g, pre)
	omen := k.SigmaOMEN(g, pre)
	if d := ref.MaxAbsDiff(omen); d > 1e-9*(1+gScale(ref)) {
		t.Fatalf("OMEN Σ differs from reference by %g (scale %g)", d, gScale(ref))
	}
}

func TestSigmaDaCeMatchesReference(t *testing.T) {
	k := testKernel(t)
	p := k.Dev.P
	rng := rand.New(rand.NewSource(3))
	g := randomAntiHermG(rng, p)
	pre := k.PreprocessD(randomD(rng, p))
	ref := k.SigmaReference(g, pre)
	dace := k.SigmaDaCe(g, pre)
	if d := ref.MaxAbsDiff(dace); d > 1e-9*(1+gScale(ref)) {
		t.Fatalf("DaCe Σ differs from reference by %g (scale %g)", d, gScale(ref))
	}
}

func TestSigmaNonzeroAndLocalized(t *testing.T) {
	k := testKernel(t)
	p := k.Dev.P
	rng := rand.New(rand.NewSource(4))
	g := randomAntiHermG(rng, p)
	pre := k.PreprocessD(randomD(rng, p))
	sig := k.SigmaDaCe(g, pre)
	var norm float64
	for _, v := range sig.Data {
		norm += real(v)*real(v) + imag(v)*imag(v)
	}
	if norm == 0 {
		t.Fatal("Σ must be nonzero for nonzero inputs")
	}
	// Energy causality of the kernel: E=0 receives no contribution because
	// every phonon shift moves at least one grid step down.
	for kz := 0; kz < p.Nkz; kz++ {
		for a := 0; a < p.NA; a++ {
			if k.SigmaDaCe(g, pre).Block(kz, 0, a).MaxAbs() != 0 {
				t.Fatal("Σ at the lowest energy must vanish (no E−ω point on the grid)")
			}
		}
	}
}

func TestPiVariantsAgree(t *testing.T) {
	k := testKernel(t)
	p := k.Dev.P
	rng := rand.New(rand.NewSource(5))
	gl := randomAntiHermG(rng, p)
	gg := randomAntiHermG(rng, p)
	refL, refG := k.PiReference(gl, gg)
	omenL, omenG := k.PiOMEN(gl, gg)
	daceL, daceG := k.PiDaCe(gl, gg)
	if d := refL.MaxAbsDiff(omenL); d > 1e-12 {
		t.Fatalf("OMEN Π^< differs from reference by %g", d)
	}
	if d := refG.MaxAbsDiff(omenG); d > 1e-12 {
		t.Fatalf("OMEN Π^> differs from reference by %g", d)
	}
	if d := refL.MaxAbsDiff(daceL); d > 1e-12 {
		t.Fatalf("DaCe Π^< differs from reference by %g", d)
	}
	if d := refG.MaxAbsDiff(daceG); d > 1e-12 {
		t.Fatalf("DaCe Π^> differs from reference by %g", d)
	}
}

func TestPiDiagonalIsMinusSumOfTraceContributions(t *testing.T) {
	// Eq. (4) vs Eq. (5): the diagonal slot must equal minus the sum of the
	// off-diagonal slots for atoms whose every bond has a reverse slot.
	k := testKernel(t)
	p := k.Dev.P
	rng := rand.New(rand.NewSource(6))
	gl := randomAntiHermG(rng, p)
	gg := randomAntiHermG(rng, p)
	piL, _ := k.PiDaCe(gl, gg)
	a := p.NA / 2 // interior atom: full neighbor list with reverse slots
	for b := 0; b < p.NB; b++ {
		f := k.Dev.Neigh[a][b]
		if f < 0 || k.Dev.NeighborSlot(f, a) < 0 {
			t.Skip("interior atom unexpectedly missing reverse bonds")
		}
	}
	for qz := 0; qz < p.Nqz; qz++ {
		for w := 0; w < p.Nw; w++ {
			sum := cmat.NewDense(p.N3D, p.N3D)
			for b := 0; b < p.NB; b++ {
				sum.AddInPlace(piL.Block(qz, w, a, b))
			}
			diag := piL.Block(qz, w, a, p.NB)
			if d := sum.Scale(-1).MaxAbsDiff(diag); d > 1e-12 {
				t.Fatalf("(qz=%d, ω=%d): Π diag != −Σ_b Π offdiag, diff %g", qz, w, d)
			}
		}
	}
}

func TestComputePhaseVariantsAgree(t *testing.T) {
	k := testKernel(t)
	p := k.Dev.P
	rng := rand.New(rand.NewSource(7))
	in := PhaseInput{
		GLess: randomAntiHermG(rng, p), GGtr: randomAntiHermG(rng, p),
		DLess: randomD(rng, p), DGtr: randomD(rng, p),
	}
	ref := k.ComputePhase(in, Reference)
	for _, v := range []Variant{OMEN, DaCe} {
		got := k.ComputePhase(in, v)
		tol := 1e-9 * (1 + gScale(ref.SigmaLess))
		if d := ref.SigmaLess.MaxAbsDiff(got.SigmaLess); d > tol {
			t.Fatalf("%v Σ^< diff %g", v, d)
		}
		if d := ref.SigmaGtr.MaxAbsDiff(got.SigmaGtr); d > tol {
			t.Fatalf("%v Σ^> diff %g", v, d)
		}
		if d := ref.PiLess.MaxAbsDiff(got.PiLess); d > 1e-12 {
			t.Fatalf("%v Π^< diff %g", v, d)
		}
		if d := ref.PiGtr.MaxAbsDiff(got.PiGtr); d > 1e-12 {
			t.Fatalf("%v Π^> diff %g", v, d)
		}
	}
	// The Into form, on storage and scratch reused across variants and
	// filled with NaN beforehand, is bitwise the fresh phase.
	dst := PhaseOutput{k.newSigma(), k.newSigma(), k.newPi(), k.newPi()}
	var sc PhaseScratch
	for _, v := range []Variant{Reference, OMEN, DaCe} {
		for _, d := range [][]complex128{dst.SigmaLess.Data, dst.SigmaGtr.Data, dst.PiLess.Data, dst.PiGtr.Data} {
			for i := range d {
				d[i] = complex(math.NaN(), math.NaN())
			}
		}
		k.ComputePhaseParallelInto(dst, &sc, in, v, 2)
		want := k.ComputePhase(in, v)
		if !sameBits(want.SigmaLess.Data, dst.SigmaLess.Data) || !sameBits(want.SigmaGtr.Data, dst.SigmaGtr.Data) ||
			!sameBits(want.PiLess.Data, dst.PiLess.Data) || !sameBits(want.PiGtr.Data, dst.PiGtr.Data) {
			t.Errorf("%v: ComputePhaseParallelInto on reused storage differs from ComputePhase", v)
		}
	}
}

func TestRetardedRelation(t *testing.T) {
	k := testKernel(t)
	p := k.Dev.P
	rng := rand.New(rand.NewSource(8))
	less := randomAntiHermG(rng, p)
	gtr := randomAntiHermG(rng, p)
	r := Retarded(nil, less, gtr)
	for i := range r.Data {
		want := 0.5 * (gtr.Data[i] - less.Data[i])
		if r.Data[i] != want {
			t.Fatal("Σ^R != (Σ^> − Σ^<)/2")
		}
	}
	dl := randomD(rng, p)
	dg := randomD(rng, p)
	rd := RetardedD(nil, dl, dg)
	for i := range rd.Data {
		if rd.Data[i] != 0.5*(dg.Data[i]-dl.Data[i]) {
			t.Fatal("Π^R != (Π^> − Π^<)/2")
		}
	}
}

func TestAntiHermitize(t *testing.T) {
	k := testKernel(t)
	p := k.Dev.P
	rng := rand.New(rand.NewSource(9))
	g := tensor.NewGTensor(p.Nkz, p.NE, p.NA, p.Norb)
	for i := range g.Data {
		g.Data[i] = complex(rng.Float64(), rng.Float64())
	}
	AntiHermitize(g)
	for kz := 0; kz < p.Nkz; kz++ {
		for e := 0; e < p.NE; e++ {
			for a := 0; a < p.NA; a++ {
				blk := g.Block(kz, e, a)
				if blk.Add(blk.ConjTranspose()).MaxAbs() > 1e-14 {
					t.Fatal("block not anti-Hermitian after projection")
				}
			}
		}
	}
}

// antiHermitizeByBlock is the block-header form AntiHermitize replaced:
// t ← (t + (−1)·t^H)·½ through a ConjTranspose copy of every block.
func antiHermitizeByBlock(t *tensor.GTensor) {
	for kz := 0; kz < t.Nkz; kz++ {
		for e := 0; e < t.NE; e++ {
			for a := 0; a < t.NA; a++ {
				blk := t.Block(kz, e, a)
				h := blk.ConjTranspose()
				blk.AddScaledInPlace(-1, h)
				blk.ScaleInPlace(0.5)
			}
		}
	}
}

// TestAntiHermitizeInPlaceBitwise pins the in-place pair update to the
// block-header routine bit for bit, on random tensors that also carry
// signed zeros, and checks it allocates nothing.
func TestAntiHermitizeInPlaceBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	zeros := []float64{0, math.Copysign(0, -1)}
	for trial := 0; trial < 4; trial++ {
		norb := 1 + trial*2
		g := tensor.NewGTensor(2, 3, 5, norb)
		for i := range g.Data {
			re, im := rng.NormFloat64(), rng.NormFloat64()
			if rng.Intn(8) == 0 {
				re = zeros[rng.Intn(2)]
			}
			if rng.Intn(8) == 0 {
				im = zeros[rng.Intn(2)]
			}
			g.Data[i] = complex(re, im)
		}
		want := g.Clone()
		antiHermitizeByBlock(want)
		AntiHermitize(g)
		for i, v := range g.Data {
			w := want.Data[i]
			if math.Float64bits(real(v)) != math.Float64bits(real(w)) || math.Float64bits(imag(v)) != math.Float64bits(imag(w)) {
				t.Fatalf("norb %d, element %d: in place %v, by block %v", norb, i, v, w)
			}
		}
		if n := testing.AllocsPerRun(3, func() { AntiHermitize(g) }); n != 0 {
			t.Fatalf("AntiHermitize allocates %v times per call, want 0", n)
		}
	}
}

func TestFlopFormulasMatchTable3(t *testing.T) {
	// Table 3, Nkz ∈ {3,...,11}: the paper prints OMEN 24.41/67.80/132.89/
	// 219.67/328.15 Pflop and DaCe 12.38/34.19/66.85/110.36/164.71 Pflop.
	p := device.Paper4864(3)
	omen := SigmaFlopsOMEN(p) / 1e15
	dace := SigmaFlopsDaCe(p) / 1e15
	if math.Abs(omen-24.41) > 0.25 {
		t.Fatalf("OMEN Pflop at Nkz=3: got %.2f, Table 3 says 24.41", omen)
	}
	if math.Abs(dace-12.38) > 0.35 {
		t.Fatalf("DaCe Pflop at Nkz=3: got %.2f, Table 3 says 12.38", dace)
	}
	// Scaling shape across the Table 3 sweep: quadratic in Nkz, DaCe ≈ ½ OMEN.
	for _, nkz := range []int{5, 7, 9, 11} {
		pp := device.Paper4864(nkz)
		ratio := SigmaFlopsDaCe(pp) / SigmaFlopsOMEN(pp)
		if ratio < 0.49 || ratio > 0.52 {
			t.Fatalf("Nkz=%d: DaCe/OMEN flop ratio %.3f, want ≈ 0.5", nkz, ratio)
		}
	}
}

func TestMeasuredFlopsMatchModel(t *testing.T) {
	// cmat.Counter measurements of our kernels must track the analytic model
	// to within the edge-atom correction.
	k := testKernel(t)
	p := k.Dev.P
	rng := rand.New(rand.NewSource(10))
	g := randomAntiHermG(rng, p)
	pre := k.PreprocessD(randomD(rng, p))
	for _, v := range []Variant{Reference, OMEN, DaCe} {
		cmat.Counter.Reset()
		switch v {
		case Reference:
			k.SigmaReference(g, pre)
		case OMEN:
			k.SigmaOMEN(g, pre)
		case DaCe:
			k.SigmaDaCe(g, pre)
		}
		got := float64(cmat.Counter.Reset())
		model := SigmaFlopsMeasuredModel(p, v)
		// Mini has edge atoms with missing neighbors, so measured ≤ model,
		// but within a factor reflecting the boundary fraction.
		if got > model*1.001 || got < model*0.5 {
			t.Fatalf("%v: measured %g flops vs model %g", v, got, model)
		}
	}
}

func TestVariantString(t *testing.T) {
	if Reference.String() != "Reference" || OMEN.String() != "OMEN" || DaCe.String() != "DaCe" {
		t.Fatal("variant names")
	}
	if Variant(99).String() == "" {
		t.Fatal("unknown variant should still print")
	}
}
