package device_test

import (
	"fmt"
	"testing"

	"negfsim/internal/cmat"
	"negfsim/internal/device"
)

// contiguous reports whether the rows and the columns that hold a nonzero
// of any of ms form one index range each.
func contiguous(ms ...*cmat.Dense) error {
	R, C := ms[0].Rows, ms[0].Cols
	rows, cols := make([]bool, R), make([]bool, C)
	for _, m := range ms {
		for i := 0; i < R; i++ {
			for j := 0; j < C; j++ {
				if m.At(i, j) != 0 {
					rows[i], cols[j] = true, true
				}
			}
		}
	}
	for _, d := range []struct {
		name string
		hit  []bool
	}{{"rows", rows}, {"columns", cols}} {
		runs := 0
		for i, h := range d.hit {
			if h && (i == 0 || !d.hit[i-1]) {
				runs++
			}
		}
		if runs > 1 {
			return fmt.Errorf("nonzero %s form %d ranges", d.name, runs)
		}
	}
	return nil
}

// TestCouplingSupportsAreRanges pins the property the RGF recursions'
// coupling products save their work on (cmat.Span): in every zoo kind, at
// block sizes of 64 and more, every coupling block A[i,i±1] of H(kz), of
// the operator E·S(kz) − H(kz) and of Φ(qz), at every kz and qz, holds its
// nonzeros in one range of rows and one range of columns. Atoms are
// numbered column by column, and a coupling joins the trailing columns of
// one block to the leading columns of the next.
func TestCouplingSupportsAreRanges(t *testing.T) {
	wire := func(na, rows, norb, bnum int) device.Spec {
		p := device.Mini()
		p.NA, p.Rows, p.Norb, p.Bnum = na, rows, norb, bnum
		return device.Nanowire{Params: p}
	}
	specs := []device.Spec{
		wire(192, 8, 4, 12), // gf_wire's blocks: 64 orbitals, 48 phonon modes
		wire(216, 6, 6, 6),
		device.CNT{N: 7, M: 0, Subbands: 4, Cols: 64, Bnum: 4, NE: 8, Nw: 4, Nkz: 2},
		device.Chain{Cols: 32, Rows: 8, Step: 0.2, Bnum: 4, NE: 8, Nw: 4, Nkz: 2},
		device.Chain{Cols: 36, Rows: 12, Bnum: 2, NE: 8, Nw: 4, Nkz: 2},
		device.GNR{Width: 4, Layers: 2, Cols: 48, Bnum: 4, NE: 8, Nw: 4, Nkz: 2},
	}
	for _, s := range specs {
		s = s.Canonical()
		d, err := s.Build()
		if err != nil {
			t.Fatalf("%s: build: %v", s.Kind(), err)
		}
		if bs := d.P.ElectronBlockSize(); bs < 64 {
			t.Fatalf("%s: block size %d, want ≥ 64", s.Kind(), bs)
		}
		check := func(what string, i int, ms ...*cmat.Dense) {
			if err := contiguous(ms...); err != nil {
				t.Errorf("%s bs=%d %s coupling %d: %v", s.Kind(), ms[0].Rows, what, i, err)
			}
		}
		for kz := 0; kz < d.P.Nkz; kz++ {
			h, ov := d.Hamiltonian(kz), d.Overlap(kz)
			for i := range h.Upper {
				check(fmt.Sprintf("H(kz=%d) upper", kz), i, h.Upper[i])
				check(fmt.Sprintf("H(kz=%d) lower", kz), i, h.Lower[i])
				check(fmt.Sprintf("E·S−H(kz=%d) upper", kz), i, h.Upper[i], ov.Upper[i])
				check(fmt.Sprintf("E·S−H(kz=%d) lower", kz), i, h.Lower[i], ov.Lower[i])
			}
		}
		for qz := 0; qz < d.P.Nqz; qz++ {
			phi := d.Dynamical(qz)
			for i := range phi.Upper {
				check(fmt.Sprintf("Φ(qz=%d) upper", qz), i, phi.Upper[i])
				check(fmt.Sprintf("Φ(qz=%d) lower", qz), i, phi.Lower[i])
			}
		}
	}
}
