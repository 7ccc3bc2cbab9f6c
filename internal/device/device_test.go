package device

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestValidate(t *testing.T) {
	good := Mini()
	if err := good.Validate(); err != nil {
		t.Fatalf("Mini should validate: %v", err)
	}
	cases := []func(*Params){
		func(p *Params) { p.NA = 0 },
		func(p *Params) { p.Norb = 0 },
		func(p *Params) { p.Rows = 5 },      // NA not divisible
		func(p *Params) { p.Bnum = 4 },      // cols not divisible
		func(p *Params) { p.NB = p.NA },     // too many neighbors
		func(p *Params) { p.Emax = p.Emin }, // empty window
		func(p *Params) { p.Nw = p.NE },     // phonon grid too large
	}
	for i, mutate := range cases {
		p := Mini()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
}

func TestPaperPresetsValidate(t *testing.T) {
	for _, p := range []Params{Paper4864(7), Paper10240(21), PaperValidation2112()} {
		if err := p.Validate(); err != nil {
			t.Fatalf("paper preset invalid: %v", err)
		}
	}
	if got := Paper4864(7).NA; got != 4864 {
		t.Fatalf("NA = %d", got)
	}
	if got := Paper10240(21).NE; got != 1000 {
		t.Fatalf("NE = %d", got)
	}
}

func TestGeometryOrdering(t *testing.T) {
	d, err := New(Mini())
	if err != nil {
		t.Fatal(err)
	}
	p := d.P
	for a := 0; a < p.NA; a++ {
		if d.Col(a) != a/p.Rows || d.Row(a) != a%p.Rows {
			t.Fatalf("atom %d has col/row (%d,%d)", a, d.Col(a), d.Row(a))
		}
		if x := d.Pos[a][0]; x != float64(d.Col(a))*LatticeConst {
			t.Fatalf("atom %d x = %g", a, x)
		}
	}
	// Block assignment: contiguous column ranges.
	if d.BlockOf(0) != 0 || d.BlockOf(p.NA-1) != p.Bnum-1 {
		t.Fatal("block assignment endpoints wrong")
	}
}

func TestNeighborsAreNearestAndSymmetricish(t *testing.T) {
	d, err := New(Mini())
	if err != nil {
		t.Fatal(err)
	}
	for a := range d.Neigh {
		seen := map[int]bool{a: true}
		for slot, f := range d.Neigh[a] {
			if f < 0 {
				continue
			}
			if seen[f] {
				t.Fatalf("atom %d lists neighbor %d twice (slot %d)", a, f, slot)
			}
			seen[f] = true
			if f >= d.P.NA {
				t.Fatalf("neighbor index %d out of range", f)
			}
		}
	}
	// Interior atoms must have a full neighbor list.
	interior := (d.P.Cols()/2)*d.P.Rows + d.P.Rows/2
	for slot, f := range d.Neigh[interior] {
		if f < 0 {
			t.Fatalf("interior atom %d has missing neighbor at slot %d", interior, slot)
		}
	}
}

func TestNeighborSlotInverse(t *testing.T) {
	d, _ := New(Mini())
	for a := range d.Neigh {
		for slot, f := range d.Neigh[a] {
			if f < 0 {
				continue
			}
			if got := d.NeighborSlot(a, f); got != slot {
				t.Fatalf("NeighborSlot(%d,%d) = %d, want %d", a, f, got, slot)
			}
		}
	}
	if d.NeighborSlot(0, d.P.NA-1) != -1 {
		t.Fatal("distant atom should not be a neighbor")
	}
}

func TestBondDirUnitNorm(t *testing.T) {
	d, _ := New(Mini())
	for a := range d.BondDir {
		for slot, e := range d.BondDir[a] {
			if d.Neigh[a][slot] < 0 {
				continue
			}
			n := e[0]*e[0] + e[1]*e[1] + e[2]*e[2]
			if n < 0.999 || n > 1.001 {
				t.Fatalf("bond (%d,%d) direction norm² = %g", a, slot, n)
			}
		}
	}
}

func TestHamiltonianHermitianProperty(t *testing.T) {
	d, _ := New(Mini())
	f := func(k uint8) bool {
		kz := int(k) % d.P.Nkz
		return d.Hamiltonian(kz).IsHermitian(1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatal(err)
	}
}

func TestOverlapHermitianNearIdentity(t *testing.T) {
	d, _ := New(Mini())
	s := d.Overlap(1)
	if !s.IsHermitian(1e-12) {
		t.Fatal("S(kz) must be Hermitian")
	}
	dense := s.ToDense()
	for i := 0; i < dense.Rows; i++ {
		if got := dense.At(i, i); real(got) != 1 || imag(got) != 0 {
			t.Fatalf("S diagonal element %d = %v, want 1", i, got)
		}
	}
}

func TestDynamicalHermitianAndStable(t *testing.T) {
	d, _ := New(Mini())
	for qz := 0; qz < d.P.Nqz; qz++ {
		phi := d.Dynamical(qz)
		if !phi.IsHermitian(1e-12) {
			t.Fatalf("Φ(qz=%d) must be Hermitian", qz)
		}
		// Positive semidefinite ⇒ real diagonal entries ≥ 0.
		dd := phi.ToDense()
		for i := 0; i < dd.Rows; i++ {
			if real(dd.At(i, i)) < -1e-12 {
				t.Fatalf("Φ diagonal %d = %g < 0", i, real(dd.At(i, i)))
			}
		}
	}
}

func TestDynamicalAcousticSumRule(t *testing.T) {
	// At qz = 0 a rigid translation costs no energy: Φ(0)·u = 0 for u the
	// constant displacement field, up to the small periodic-z term which
	// vanishes at θ = 0.
	d, _ := New(Mini())
	phi := d.Dynamical(0).ToDense()
	n := phi.Rows
	for i := 0; i < n; i++ {
		var row complex128
		for j := i % 3; j < n; j += 3 {
			row += phi.At(i, j)
		}
		if r := real(row); r > 1e-10 || r < -1e-10 {
			t.Fatalf("acoustic sum rule violated at row %d: %g", i, r)
		}
	}
}

func TestHamiltonianDeterminism(t *testing.T) {
	p := Mini()
	d1, _ := New(p)
	d2, _ := New(p)
	h1 := d1.Hamiltonian(2).ToDense()
	h2 := d2.Hamiltonian(2).ToDense()
	if !h1.Equalish(h2, 0) {
		t.Fatal("identical params must generate identical Hamiltonians")
	}
	p.Seed++
	d3, _ := New(p)
	if d3.Hamiltonian(2).ToDense().Equalish(h1, 1e-9) {
		t.Fatal("different seeds must generate different Hamiltonians")
	}
}

func TestKzDependence(t *testing.T) {
	d, _ := New(Mini())
	if d.Hamiltonian(0).ToDense().Equalish(d.Hamiltonian(1).ToDense(), 1e-9) {
		t.Fatal("H must depend on kz")
	}
	if d.Dynamical(0).ToDense().Equalish(d.Dynamical(1).ToDense(), 1e-9) {
		t.Fatal("Φ must depend on qz")
	}
}

func TestGradHShapeAndDirectionScaling(t *testing.T) {
	d, _ := New(Mini())
	g := d.GradH(0, 0, 0)
	if g == nil || g.Rows != d.P.Norb || g.Cols != d.P.Norb {
		t.Fatal("GradH shape wrong")
	}
	all := d.GradHAll()
	if len(all) != d.P.NA || len(all[0]) != d.P.NB || len(all[0][0]) != d.P.N3D {
		t.Fatal("GradHAll shape wrong")
	}
	// Missing neighbors yield nil.
	corner := 0
	missing := false
	for b := 0; b < d.P.NB; b++ {
		if d.Neigh[corner][b] < 0 {
			missing = true
			if all[corner][b][0] != nil {
				t.Fatal("GradH of missing neighbor should be nil")
			}
		}
	}
	_ = missing
	// Deterministic.
	g2 := d.GradH(0, 0, 0)
	if !g.Equalish(g2, 0) {
		t.Fatal("GradH must be deterministic")
	}
}

func TestEnergyGrid(t *testing.T) {
	p := Mini()
	if p.EStep() <= 0 {
		t.Fatal("EStep must be positive")
	}
	if p.Energy(0) <= p.Emin || p.Energy(p.NE-1) >= p.Emax {
		t.Fatal("energies must lie strictly inside the window")
	}
	if p.PhononShift(0) != 1 || p.PhononShift(3) != 4 {
		t.Fatal("phonon shifts must be 1-based grid displacements")
	}
}

func TestBlockSizes(t *testing.T) {
	p := Mini()
	if p.ElectronBlockSize() != p.AtomsPerBlock()*p.Norb {
		t.Fatal("electron block size")
	}
	if p.PhononBlockSize() != p.AtomsPerBlock()*p.N3D {
		t.Fatal("phonon block size")
	}
	h, _ := New(p)
	bt := h.Hamiltonian(0)
	if bt.N != p.Bnum || bt.Bs != p.ElectronBlockSize() {
		t.Fatalf("Hamiltonian blocks %d×(%d) want %d×(%d)", bt.N, bt.Bs, p.Bnum, p.ElectronBlockSize())
	}
}

// TestValidateSizeBounds pins the run-size bounds at their caps: a block of
// exactly MaxBlockDim rows passes and one more atom per block fails, the
// paper presets are valid but not runnable, and Mini is both.
func TestValidateSizeBounds(t *testing.T) {
	atCap := Mini()
	atCap.Norb, atCap.NA, atCap.Rows, atCap.Bnum = 4, 256, 256, 1 // 256 atoms × 4 orbitals
	if err := atCap.ValidateSize(); err != nil {
		t.Fatalf("block of %d rows rejected: %v", MaxBlockDim, err)
	}
	over := atCap
	over.NA, over.Rows = 257, 257
	if err := over.ValidateSize(); err == nil || !strings.Contains(err.Error(), "device.bnum") {
		t.Fatalf("block of %d rows: err = %v, want one naming device.bnum", 257*4, err)
	}
	if err := Mini().ValidateSize(); err != nil {
		t.Fatalf("Mini not runnable: %v", err)
	}
	for _, p := range []Params{Paper4864(7), Paper10240(21), PaperValidation2112()} {
		if err := p.ValidateSize(); err == nil {
			t.Fatalf("paper preset NA=%d passes the run-size bounds", p.NA)
		}
	}
}
