// Package device generates the nano-structures that the simulator studies:
// a 2-D slice (x–y plane) of a Silicon FinFET, the neighbor coupling map
// f(a, b), and synthetic DFT-like operators — Hamiltonian H(kz), overlap
// S(kz), dynamical matrix Φ(qz) and Hamiltonian derivatives ∇H — with
// exactly the shapes, Hermiticity and block-tridiagonal sparsity that the
// paper's CP2K-produced inputs have (§2, Table 1).
//
// Substitution note (see DESIGN.md): the numerical entries are deterministic
// synthetic values, not ab initio ones. Every consumer in this repository
// (RGF, SSE, communication schemes) depends only on the operator shapes and
// structure, which are reproduced faithfully.
package device

import (
	"fmt"
)

// Params collects the simulation parameters of Table 1 of the paper. The
// JSON tags are the schema of the "device" section of core.RunConfig, so
// renaming one is a config-format change (bump core.RunConfigVersion).
type Params struct {
	Nkz  int `json:"nkz"`  // electron momentum points            [1, 21]
	Nqz  int `json:"nqz"`  // phonon momentum points               [1, 21]
	NE   int `json:"ne"`   // energy points                        [700, 1500]
	Nw   int `json:"nw"`   // phonon frequencies                   [10, 100]
	NA   int `json:"na"`   // total atoms in the structure
	NB   int `json:"nb"`   // neighbors considered per atom        [4, 50]
	Norb int `json:"norb"` // orbitals per atom                    [1, 30]
	N3D  int `json:"n3d"`  // crystal vibration directions (always 3)
	Bnum int `json:"bnum"` // RGF blocks (block tri-diagonal split)

	Rows int `json:"rows"` // atoms per column in the 2-D slice (fin height direction)

	// Emin, Emax bound the electron energy window [eV].
	Emin float64 `json:"emin"`
	Emax float64 `json:"emax"`
	// Seed is the deterministic structure seed.
	Seed uint64 `json:"seed"`
}

// Validate checks internal consistency of the parameters. Error messages
// name the offending JSON field path (device.<field>) so the 400 bodies the
// qtsimd worker and front roles return point a client at the exact key to fix
// instead of dumping the whole struct.
func (p Params) Validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"device.nkz", p.Nkz}, {"device.nqz", p.Nqz}, {"device.ne", p.NE},
		{"device.nw", p.Nw}, {"device.na", p.NA}, {"device.nb", p.NB},
		{"device.norb", p.Norb}, {"device.n3d", p.N3D},
		{"device.rows", p.Rows}, {"device.bnum", p.Bnum},
	} {
		if f.v <= 0 {
			return fmt.Errorf("device: %s: must be positive, got %d", f.name, f.v)
		}
	}
	switch {
	case p.NE < 2:
		return fmt.Errorf("device: device.ne: need at least 2 energy points to span [emin, emax], got %d", p.NE)
	case p.NA%p.Rows != 0:
		return fmt.Errorf("device: device.na: %d atoms not divisible into device.rows=%d columns", p.NA, p.Rows)
	case (p.NA/p.Rows)%p.Bnum != 0:
		return fmt.Errorf("device: device.bnum: %d columns not divisible into %d blocks", p.NA/p.Rows, p.Bnum)
	case p.NB >= p.NA:
		return fmt.Errorf("device: device.nb: %d must be smaller than device.na=%d", p.NB, p.NA)
	case p.Emax <= p.Emin:
		return fmt.Errorf("device: device.emax: energy window [%g, %g] is empty", p.Emin, p.Emax)
	case p.Nw >= p.NE:
		return fmt.Errorf("device: device.nw: %d must be below device.ne=%d (phonon energies live on the electron grid)", p.Nw, p.NE)
	}
	return nil
}

// Run-size bounds. Validate accepts the paper's full-scale presets, which the
// performance model reads but no run could hold; a document that is to be
// run passes ValidateSize too, so a small request cannot ask for arrays
// that grow with an unbounded field.
const (
	// MaxBlockDim caps the RGF block dimensions NA/Bnum·Norb and
	// NA/Bnum·N3D: one block is then at most 16 MiB and its inverse
	// ≈ 11 GFlop.
	MaxBlockDim = 1024
	// MaxTensorBytes caps one G≷ tensor, Nkz·NE·NA·Norb²·16 B, and one D≷
	// tensor, Nqz·Nω·NA·(NB+1)·N3D²·16 B. A run holds a small multiple of
	// each (G≷, Σ≷, D≷, Π≷ and the mixer's history).
	MaxTensorBytes = 128 << 20
)

// sizeFactor is one field's factor in a tensor footprint.
type sizeFactor struct {
	name string
	v    float64
}

// product returns ∏ factors (in float64, so no field value can overflow it)
// and the field with the largest factor, which a bound's error names.
func product(fs ...sizeFactor) (float64, string) {
	prod, big := 1.0, fs[0]
	for _, f := range fs {
		prod *= f.v
		if f.v > big.v {
			big = f
		}
	}
	return prod, big.name
}

// ValidateSize checks Validate's rules and the run-size bounds MaxBlockDim
// and MaxTensorBytes. Errors name the offending field like Validate's do;
// a footprint error names the field with the largest factor.
func (p Params) ValidateSize() error {
	if err := p.Validate(); err != nil {
		return err
	}
	apb := p.AtomsPerBlock()
	for _, per := range []sizeFactor{{"device.norb", float64(p.Norb)}, {"device.n3d", float64(p.N3D)}} {
		if dim, field := product(sizeFactor{"device.bnum", float64(apb)}, per); dim > MaxBlockDim {
			return fmt.Errorf("device: %s: RGF blocks of %d atoms × %s=%g are %g rows, above the %d-row cap",
				field, apb, per.name, per.v, dim, MaxBlockDim)
		}
	}
	f := func(name string, v int) sizeFactor { return sizeFactor{name, float64(v)} }
	for _, t := range []struct {
		tensor  string
		factors []sizeFactor
	}{
		{"G≷", []sizeFactor{f("device.nkz", p.Nkz), f("device.ne", p.NE), f("device.na", p.NA), f("device.norb", p.Norb*p.Norb)}},
		{"D≷", []sizeFactor{f("device.nqz", p.Nqz), f("device.nw", p.Nw), f("device.na", p.NA), f("device.nb", p.NB+1), f("device.n3d", p.N3D*p.N3D)}},
	} {
		if elems, field := product(t.factors...); 16*elems > MaxTensorBytes {
			return fmt.Errorf("device: %s: one %s tensor would take %.3g B, above the %d B cap",
				field, t.tensor, 16*elems, MaxTensorBytes)
		}
	}
	return nil
}

// Cols returns the number of atom columns along the transport direction.
func (p Params) Cols() int { return p.NA / p.Rows }

// AtomsPerBlock returns NA/Bnum, the atoms per RGF block.
func (p Params) AtomsPerBlock() int { return p.NA / p.Bnum }

// EStep returns the electron energy grid spacing.
func (p Params) EStep() float64 { return (p.Emax - p.Emin) / float64(p.NE) }

// Energy returns the energy of grid point e.
func (p Params) Energy(e int) float64 { return p.Emin + (float64(e)+0.5)*p.EStep() }

// PhononShift returns the electron-grid index shift of phonon frequency w.
// Phonon energies are commensurate with the electron grid: ℏω_w = (w+1)·ΔE,
// so the SSE shift E−ℏω is an integer grid displacement (OMEN uses the same
// commensurate-grid convention for the scattering integrals).
func (p Params) PhononShift(w int) int { return w + 1 }

// ElectronBlockSize returns the RGF block dimension NA/Bnum · Norb.
func (p Params) ElectronBlockSize() int { return p.AtomsPerBlock() * p.Norb }

// PhononBlockSize returns the phonon RGF block dimension NA/Bnum · N3D.
func (p Params) PhononBlockSize() int { return p.AtomsPerBlock() * p.N3D }

// Paper4864 returns the 4,864-atom Silicon structure used throughout §5 of
// the paper (W = 2.1 nm, L = 35 nm): NB = 34, Norb = 12, NE = 706, Nω = 70.
// Nkz is a free parameter in the paper's sweeps, so it is an argument.
func Paper4864(nkz int) Params {
	return Params{
		Nkz: nkz, Nqz: nkz, NE: 706, Nw: 70,
		NA: 4864, NB: 34, Norb: 12, N3D: 3,
		Rows: 8, Bnum: 19, // 608 columns → 19 blocks of 32 columns
		Emin: -1.0, Emax: 1.0, Seed: 4864,
	}
}

// Paper10240 returns the 10,240-atom extreme-scale structure of Table 8
// (W = 4.8 nm, L = 35 nm): NE = 1,000, Nω = 70.
func Paper10240(nkz int) Params {
	return Params{
		Nkz: nkz, Nqz: nkz, NE: 1000, Nw: 70,
		NA: 10240, NB: 34, Norb: 12, N3D: 3,
		Rows: 16, Bnum: 20, // 640 columns → 20 blocks of 32 columns
		Emin: -1.0, Emax: 1.0, Seed: 10240,
	}
}

// PaperValidation2112 returns the small validation structure mentioned in
// §2.1 (NA=2,112, Norb=4, Nkz=Nqz=11, NE=650, Nω=30, NB=13).
func PaperValidation2112() Params {
	return Params{
		Nkz: 11, Nqz: 11, NE: 650, Nw: 30,
		NA: 2112, NB: 13, Norb: 4, N3D: 3,
		Rows: 8, Bnum: 12, // 264 columns → 12 blocks of 22 columns
		Emin: -1.0, Emax: 1.0, Seed: 2112,
	}
}

// Mini returns a laptop-scale structure that exercises every code path
// (used by tests, examples and measured benchmarks).
func Mini() Params {
	return Params{
		Nkz: 3, Nqz: 3, NE: 16, Nw: 4,
		NA: 24, NB: 4, Norb: 2, N3D: 3,
		Rows: 4, Bnum: 3, // 6 columns → 3 blocks of 2 columns
		Emin: -1.0, Emax: 1.0, Seed: 7,
	}
}
