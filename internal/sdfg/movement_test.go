package sdfg

import (
	"testing"
)

func TestMovementSummaryMatMul(t *testing.T) {
	// Fig. 4's memlet annotations: A, B read M·N·K times, C written M·N·K
	// times.
	p := BuildMatMul()
	env := Env{"M": 5, "N": 7, "K": 3}
	m, err := p.MovementSummary(env)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(5 * 7 * 3)
	if m.Reads["A"] != want || m.Reads["B"] != want || m.Writes["C"] != want {
		t.Fatalf("prediction %v / %v, want all %d", m.Reads, m.Writes, want)
	}
	// Prediction equals measurement.
	rt, err := p.Bind(env)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	for _, arr := range []string{"A", "B"} {
		if rt.Reads[arr] != m.Reads[arr] {
			t.Fatalf("%s: measured %d, predicted %d", arr, rt.Reads[arr], m.Reads[arr])
		}
	}
	if rt.Writes["C"] != m.Writes["C"] {
		t.Fatalf("C: measured %d, predicted %d", rt.Writes["C"], m.Writes["C"])
	}
}

func TestMovementSummarySSE(t *testing.T) {
	// Prediction equals measurement on the real SSE program, including the
	// neighbor-table indirection reads.
	d := tinySSE()
	p := BuildSSESigma()
	m, err := p.MovementSummary(d.env())
	if err != nil {
		t.Fatal(err)
	}
	rt, err := p.Bind(d.env())
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.SetInt("neigh", d.neighTable()); err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	for arr, got := range rt.Reads {
		if m.Reads[arr] != got {
			t.Fatalf("%s reads: measured %d, predicted %d", arr, got, m.Reads[arr])
		}
	}
	for arr, got := range rt.Writes {
		if m.Writes[arr] != got {
			t.Fatalf("%s writes: measured %d, predicted %d", arr, got, m.Writes[arr])
		}
	}
}

func TestMovementSummaryAfterTransformationDrops(t *testing.T) {
	// The Fig. 10 transformations must reduce predicted G traffic — the
	// quantitative statement behind "redundancy removal".
	d := tinySSE()
	base := BuildSSESigma()
	mBase, err := base.MovementSummary(d.env())
	if err != nil {
		t.Fatal(err)
	}
	p := BuildSSESigma()
	dhg := p.FindMap("dHG")
	if err := AbsorbOffset(p, dhg, "k", "q", "dHG"); err != nil {
		t.Fatal(err)
	}
	if err := AbsorbOffset(p, dhg, "E", "w", "dHG"); err != nil {
		t.Fatal(err)
	}
	mOpt, err := p.MovementSummary(d.env())
	if err != nil {
		t.Fatal(err)
	}
	if mOpt.Reads["G"] >= mBase.Reads["G"] {
		t.Fatalf("transformation should cut G reads: %d vs %d", mOpt.Reads["G"], mBase.Reads["G"])
	}
	if mOpt.Writes["dHG"] >= mBase.Writes["dHG"] {
		t.Fatalf("transformation should cut dHG writes: %d vs %d", mOpt.Writes["dHG"], mBase.Writes["dHG"])
	}
}

func TestMovementSummaryTiledFallback(t *testing.T) {
	// Tiled maps have parameter-dependent inner ranges; the iterative
	// fallback must still predict exactly (including non-divisible tiles).
	env := Env{"M": 7, "N": 5, "K": 6}
	p := BuildMatMul()
	gemm := p.FindMap("gemm")
	if _, err := TileMap(&p.States[0].Ops, gemm, "i", 3); err != nil {
		t.Fatal(err)
	}
	m, err := p.MovementSummary(env)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := p.Bind(env)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Reads["A"] != rt.Reads["A"] || m.Writes["C"] != rt.Writes["C"] {
		t.Fatalf("tiled prediction A=%d C=%d, measured A=%d C=%d",
			m.Reads["A"], m.Writes["C"], rt.Reads["A"], rt.Writes["C"])
	}
}
