package sdfg

import (
	"math/cmplx"
	"math/rand"
	"testing"
)

// --- semantics-preservation helpers -----------------------------------------

func complexSliceEqual(t *testing.T, got, want []complex128, tol float64, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", what, len(got), len(want))
	}
	for i := range got {
		if cmplx.Abs(got[i]-want[i]) > tol {
			t.Fatalf("%s: element %d differs: %v vs %v", what, i, got[i], want[i])
		}
	}
}

func randomComplex(rng *rand.Rand, n int) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
	}
	return out
}

// --- map tiling --------------------------------------------------------------

func TestTileMapPreservesMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const m, n, k = 7, 5, 6 // deliberately not divisible by the tile size
	a := randomComplex(rng, m*k)
	b := randomComplex(rng, k*n)
	want := runMatMul(t, BuildMatMul(), m, n, k, a, b)

	p := BuildMatMul()
	gemm := p.FindMap("gemm")
	outer, err := TileMap(&p.States[0].Ops, gemm, "i", 3)
	if err != nil {
		t.Fatal(err)
	}
	if outer.Params[0] != "ti" {
		t.Fatalf("tile parameter %q, want ti", outer.Params[0])
	}
	got := runMatMul(t, p, m, n, k, a, b)
	complexSliceEqual(t, got, want, 1e-12, "tiled matmul")

	// Tiling twice (i and j) still preserves the result.
	p2 := BuildMatMul()
	g2 := p2.FindMap("gemm")
	o2, err := TileMap(&p2.States[0].Ops, g2, "i", 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TileMap(&o2.Body, g2, "j", 4); err != nil {
		t.Fatal(err)
	}
	got2 := runMatMul(t, p2, m, n, k, a, b)
	complexSliceEqual(t, got2, want, 1e-12, "doubly tiled matmul")
}

func TestTileMapErrors(t *testing.T) {
	p := BuildMatMul()
	gemm := p.FindMap("gemm")
	if _, err := TileMap(&p.States[0].Ops, gemm, "zz", 3); err == nil {
		t.Fatal("unknown parameter must fail")
	}
	other := &MapOp{Name: "other"}
	if _, err := TileMap(&p.States[0].Ops, other, "i", 3); err == nil {
		t.Fatal("map not in parent must fail")
	}
}

// --- map expansion -----------------------------------------------------------

func TestExpandMapPreservesMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const m, n, k = 4, 4, 4
	a := randomComplex(rng, m*k)
	b := randomComplex(rng, k*n)
	want := runMatMul(t, BuildMatMul(), m, n, k, a, b)

	p := BuildMatMul()
	gemm := p.FindMap("gemm")
	inner, err := ExpandMap(gemm, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(gemm.Params) != 2 || len(inner.Params) != 1 || inner.Params[0] != "k" {
		t.Fatalf("expansion shape wrong: outer %v inner %v", gemm.Params, inner.Params)
	}
	got := runMatMul(t, p, m, n, k, a, b)
	complexSliceEqual(t, got, want, 1e-12, "expanded matmul")

	if _, err := ExpandMap(gemm, 5); err == nil {
		t.Fatal("out-of-range expansion point must fail")
	}
}

// --- map fission / fusion ----------------------------------------------------

// buildTwoStage returns a single map with two tasklets communicating through
// a transient: T[i,j] = A[i,j]², then Out[i] += T[i,j]·B[j] (WCR over j).
func buildTwoStage() *Program {
	p := NewProgram("twostage")
	p.AddArray("A", Complex, false, Sym("N"), Sym("M"))
	p.AddArray("B", Complex, false, Sym("M"))
	p.AddArray("T", Complex, true, Sym("N"), Sym("M"))
	p.AddArray("Out", Complex, false, Sym("N"))
	s := p.AddState("s")
	s.Ops = []Op{&MapOp{
		Name:   "stage",
		Params: []string{"i", "j"},
		Ranges: []Range{Span(Sym("N")), Span(Sym("M"))},
		Body: []Op{
			&Tasklet{Name: "square",
				Inputs: []Access{At("A", Sym("i"), Sym("j"))},
				Output: At("T", Sym("i"), Sym("j")),
				Fn:     func(in []complex128) complex128 { return in[0] * in[0] }},
			&Tasklet{Name: "reduce",
				Inputs: []Access{At("T", Sym("i"), Sym("j")), At("B", Sym("j"))},
				Output: At("Out", Sym("i")),
				WCR:    true,
				Fn:     func(in []complex128) complex128 { return in[0] * in[1] }},
		},
	}}
	return p
}

func runTwoStage(t *testing.T, p *Program, n, m int64, a, b []complex128) []complex128 {
	t.Helper()
	rt, err := p.Bind(Env{"N": n, "M": m})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.SetComplex("A", a); err != nil {
		t.Fatal(err)
	}
	if err := rt.SetComplex("B", b); err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	return rt.Complex("Out")
}

func TestFissionThenFusionPreserves(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n, m = 5, 7
	a := randomComplex(rng, n*m)
	b := randomComplex(rng, m)
	want := runTwoStage(t, buildTwoStage(), n, m, a, b)

	p := buildTwoStage()
	stage := p.FindMap("stage")
	maps, err := FissionMap(&p.States[0].Ops, stage)
	if err != nil {
		t.Fatal(err)
	}
	if len(maps) != 2 {
		t.Fatalf("fission produced %d maps, want 2", len(maps))
	}
	got := runTwoStage(t, p, n, m, a, b)
	complexSliceEqual(t, got, want, 1e-12, "fissioned")

	// Both tasklets here use both params, so fusing back is legal.
	fused, err := FuseMaps(&p.States[0].Ops, maps[0], maps[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(fused.Body) != 2 {
		t.Fatalf("fused body has %d ops", len(fused.Body))
	}
	got2 := runTwoStage(t, p, n, m, a, b)
	complexSliceEqual(t, got2, want, 1e-12, "re-fused")
}

func TestFissionDropsUnusedParams(t *testing.T) {
	// Like Fig. 9: after fission, each map keeps only the parameters its
	// tasklet references. The "square" tasklet in a 3-param map ignores k.
	p := NewProgram("drop")
	p.AddArray("A", Complex, false, Sym("N"))
	p.AddArray("T", Complex, true, Sym("N"))
	p.AddArray("Out", Complex, false, Sym("N"), Sym("K"))
	s := p.AddState("s")
	s.Ops = []Op{&MapOp{
		Name:   "m",
		Params: []string{"i", "k"},
		Ranges: []Range{Span(Sym("N")), Span(Sym("K"))},
		Body: []Op{
			&Tasklet{Name: "square", Inputs: []Access{At("A", Sym("i"))}, Output: At("T", Sym("i")),
				Fn: func(in []complex128) complex128 { return in[0] * in[0] }},
			&Tasklet{Name: "emit", Inputs: []Access{At("T", Sym("i"))}, Output: At("Out", Sym("i"), Sym("k")),
				Fn: func(in []complex128) complex128 { return in[0] }},
		},
	}}
	maps, err := FissionMap(&p.States[0].Ops, p.FindMap("m"))
	if err != nil {
		t.Fatal(err)
	}
	if len(maps[0].Params) != 1 || maps[0].Params[0] != "i" {
		t.Fatalf("first fissioned map params %v, want [i]", maps[0].Params)
	}
	if len(maps[1].Params) != 2 {
		t.Fatalf("second fissioned map params %v, want [i k]", maps[1].Params)
	}
	rt, err := p.Bind(Env{"N": 3, "K": 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.SetComplex("A", []complex128{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	out := rt.Complex("Out")
	wantOut := []complex128{1, 1, 4, 4, 9, 9}
	complexSliceEqual(t, out, wantOut, 0, "dropped-param program")
}

func TestFuseMapsRejectsMismatch(t *testing.T) {
	p := buildTwoStage()
	stage := p.FindMap("stage")
	maps, err := FissionMap(&p.States[0].Ops, stage)
	if err != nil {
		t.Fatal(err)
	}
	maps[1].Ranges[1] = Span(Lit(3))
	if _, err := FuseMaps(&p.States[0].Ops, maps[0], maps[1]); err == nil {
		t.Fatal("range mismatch must fail fusion")
	}
}

// --- data layout -------------------------------------------------------------

func TestPermuteArrayPreserves(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const m, n, k = 4, 3, 5
	a := randomComplex(rng, m*k)
	b := randomComplex(rng, k*n)
	want := runMatMul(t, BuildMatMul(), m, n, k, a, b)

	p := BuildMatMul()
	// Store A transposed; accesses are rewritten, so the caller must supply
	// the data in the new layout.
	if err := PermuteArray(p, "A", []int{1, 0}); err != nil {
		t.Fatal(err)
	}
	at := make([]complex128, len(a)) // a in K×M order
	for i := 0; i < m; i++ {
		for j := 0; j < k; j++ {
			at[j*m+i] = a[i*k+j]
		}
	}
	got := runMatMul(t, p, m, n, k, at, b)
	complexSliceEqual(t, got, want, 1e-12, "permuted-layout matmul")

	if err := PermuteArray(p, "A", []int{0, 0}); err == nil {
		t.Fatal("invalid permutation must fail")
	}
	if err := PermuteArray(p, "zz", []int{0}); err == nil {
		t.Fatal("unknown array must fail")
	}
}
