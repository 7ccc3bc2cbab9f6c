package cmat

import (
	"math/rand"
	"testing"
)

// randomBlockTri builds a Hermitian block-tridiagonal matrix for testing.
func randomBlockTri(rng *rand.Rand, n, bs int, shift float64) *BlockTri {
	bt := NewBlockTri(n, bs)
	for i := 0; i < n; i++ {
		bt.Diag[i] = RandomHermitian(rng, bs, shift)
	}
	for i := 0; i < n-1; i++ {
		bt.Upper[i] = RandomDense(rng, bs, bs)
		bt.Lower[i] = bt.Upper[i].ConjTranspose()
	}
	return bt
}

func TestBlockTriToDenseLayout(t *testing.T) {
	bt := NewBlockTri(3, 2)
	bt.Diag[1].Set(0, 0, 5)
	bt.Upper[0].Set(1, 1, 7)
	bt.Lower[1].Set(0, 1, 9)
	d := bt.ToDense()
	if d.At(2, 2) != 5 {
		t.Fatalf("diag block misplaced: got %v", d.At(2, 2))
	}
	if d.At(1, 3) != 7 {
		t.Fatalf("upper block misplaced: got %v", d.At(1, 3))
	}
	if d.At(4, 3) != 9 {
		t.Fatalf("lower block misplaced: got %v", d.At(4, 3))
	}
	if d.Rows != 6 || d.Cols != 6 {
		t.Fatalf("dense shape %d×%d, want 6×6", d.Rows, d.Cols)
	}
}

func TestBlockTriHermitian(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	bt := randomBlockTri(r, 4, 3, 1)
	if !bt.IsHermitian(1e-14) {
		t.Fatal("randomBlockTri should be Hermitian")
	}
	if !bt.ToDense().IsHermitian(1e-14) {
		t.Fatal("dense expansion should be Hermitian")
	}
	bt.Lower[0].Set(0, 0, bt.Lower[0].At(0, 0)+1)
	if bt.IsHermitian(1e-14) {
		t.Fatal("perturbed matrix should not be Hermitian")
	}
}

func TestBlockTriCloneIndependence(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	bt := randomBlockTri(r, 3, 2, 1)
	cl := bt.Clone()
	cl.Diag[0].Set(0, 0, 99)
	if bt.Diag[0].At(0, 0) == 99 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestBlockTriScale(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	a := randomBlockTri(r, 3, 2, 1)
	b := a.Clone()
	b.Scale(2)
	if !b.ToDense().Equalish(a.ToDense().Scale(2), 0) {
		t.Fatal("Scale(2) != 2a")
	}
}

func TestShiftDiagFormsESminusH(t *testing.T) {
	// ShiftDiag computes E·S − H, the left-hand operator of Eq. (1).
	r := rand.New(rand.NewSource(10))
	h := randomBlockTri(r, 3, 2, 1)
	s := randomBlockTri(r, 3, 2, 4)
	e := complex(1.7, 0)
	got := h.ShiftDiag(e, s).ToDense()
	want := s.ToDense().Scale(e).Sub(h.ToDense())
	if !got.Equalish(want, 1e-13) {
		t.Fatal("ShiftDiag != E·S − H")
	}
}

func TestBlockTriDim(t *testing.T) {
	if got := NewBlockTri(5, 7).Dim(); got != 35 {
		t.Fatalf("Dim = %d, want 35", got)
	}
}
