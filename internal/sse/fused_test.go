package sse

import (
	"fmt"
	"math/rand"
	"testing"

	"negfsim/internal/cmat"
	"negfsim/internal/device"
	"negfsim/internal/tensor"
)

// The tile kernels contract each output element in registers instead of
// one Norb×Norb block call at a time, but every element must still receive
// its floating-point additions in the order of the unfused loop nests. The
// two functions below are those loop nests, kept verbatim as the reference
// order (block products through cmat's counted kernels); the tests pin the
// tile kernels to them bit for bit.

func (k *Kernel) sigmaTileReferenceOrder(dst *tensor.GTensor, am *tensor.AtomMajor, d *PreD, eLo, eHi, aLo, aHi int) {
	p := k.Dev.P
	pref := k.sigmaPref()
	no := p.Norb
	var flops cmat.Tally
	defer flops.Publish()

	dHG := make([]*cmat.Dense, p.N3D)
	for i := range dHG {
		dHG[i] = cmat.GetDense(p.Nkz*p.NE*no, no)
	}
	dHD := make([][]*cmat.Dense, p.N3D) // [i][qz]: (Nω·Norb) × Norb stacks
	for i := range dHD {
		dHD[i] = make([]*cmat.Dense, p.Nqz)
		for qz := range dHD[i] {
			dHD[i][qz] = cmat.GetDense(p.Nw*no, no)
		}
	}

	var rowBlock, out, vb, cb cmat.Dense // reusable view headers
	for a := aLo; a < aHi; a++ {
		for b := 0; b < p.NB; b++ {
			f := k.Dev.Neigh[a][b]
			if f < 0 {
				continue
			}
			for i := 0; i < p.N3D; i++ {
				am.Atom[f].MulIntoTally(dHG[i], k.dH[a][b][i], &flops)
			}
			for i := 0; i < p.N3D; i++ {
				for qz := 0; qz < p.Nqz; qz++ {
					stack := dHD[i][qz]
					stack.Zero()
					for w := 0; w < p.Nw; w++ {
						cmat.ViewInto(&rowBlock, no, no,
							stack.Data[(p.Nw-1-w)*no*no:(p.Nw-w)*no*no])
						for j := 0; j < p.N3D; j++ {
							rowBlock.AddScaledInPlace(pref*d.At(qz, w, a, b, i, j), k.dH[a][b][j])
						}
					}
				}
			}
			for i := 0; i < p.N3D; i++ {
				for qz := 0; qz < p.Nqz; qz++ {
					stack := dHD[i][qz]
					for kz := 0; kz < p.Nkz; kz++ {
						k2 := wrapK(kz, qz, p.Nkz)
						base := k2 * p.NE
						for e := max(eLo, 1); e < eHi; e++ {
							smax := min(p.Nw, e)
							dst.BlockInto(&out, kz, e, a)
							vlo := (base + e - smax) * no
							for t := 0; t < smax; t++ {
								cmat.ViewInto(&vb, no, no, dHG[i].Data[(vlo+t*no)*no:(vlo+(t+1)*no)*no])
								cmat.ViewInto(&cb, no, no, stack.Data[((p.Nw-smax)+t)*no*no:((p.Nw-smax)+t+1)*no*no])
								vb.MulAddInto(&out, &cb)
							}
						}
					}
				}
			}
		}
	}
	cmat.PutAll(dHG...)
	for i := range dHD {
		cmat.PutAll(dHD[i]...)
	}
}

func (k *Kernel) piTileReferenceOrder(dstL, dstG *tensor.DTensor, gLess, gGtr *tensor.GTensor, eLo, eHi, aLo, aHi int) {
	if eLo >= eHi {
		return
	}
	var flops cmat.Tally
	defer flops.Publish()
	p := k.Dev.P
	pref := complex(0, k.piPref())
	uLo, uHi := eLo+p.PhononShift(0), min(p.NE, eHi+p.PhononShift(p.Nw-1))
	nu, nw := max(0, uHi-uLo), eHi-eLo
	no, n2 := p.Norb, p.Norb*p.Norb
	uLess, uGtr := cmat.GetDense(p.N3D*p.Nkz*nu*no, no), cmat.GetDense(p.N3D*p.Nkz*nu*no, no)
	wLess, wGtr := cmat.GetDense(p.N3D*p.Nkz*nw*no, no), cmat.GetDense(p.N3D*p.Nkz*nw*no, no)
	defer cmat.PutAll(uLess, uGtr, wLess, wGtr)
	vl, vg := cmat.Dense{Rows: no, Cols: no}, cmat.Dense{Rows: no, Cols: no}
	ul, ug := cmat.Dense{Rows: no, Cols: no}, cmat.Dense{Rows: no, Cols: no}
	var gvL, gvG cmat.Dense // reusable block-view headers
	for a := aLo; a < aHi; a++ {
		for b := 0; b < p.NB; b++ {
			f := k.Dev.Neigh[a][b]
			if f < 0 {
				continue
			}
			r := k.Dev.NeighborSlot(f, a)
			if r < 0 {
				continue
			}
			for kz := 0; kz < p.Nkz; kz++ {
				for e := uLo; e < uHi; e++ {
					idx := kz*nu + e - uLo
					gLess.BlockInto(&gvL, kz, e, a)
					gGtr.BlockInto(&gvG, kz, e, a)
					for i := 0; i < p.N3D; i++ {
						o := (i*p.Nkz*nu + idx) * n2
						vl.Data = uLess.Data[o : o+n2]
						vg.Data = uGtr.Data[o : o+n2]
						k.dH[f][r][i].MulIntoTally(&vl, &gvL, &flops)
						k.dH[f][r][i].MulIntoTally(&vg, &gvG, &flops)
					}
				}
				for e := eLo; e < eHi; e++ {
					idx := kz*nw + e - eLo
					gLess.BlockInto(&gvL, kz, e, f)
					gGtr.BlockInto(&gvG, kz, e, f)
					for i := 0; i < p.N3D; i++ {
						o := (i*p.Nkz*nw + idx) * n2
						vl.Data = wLess.Data[o : o+n2]
						vg.Data = wGtr.Data[o : o+n2]
						k.dH[a][b][i].MulIntoTally(&vl, &gvL, &flops)
						k.dH[a][b][i].MulIntoTally(&vg, &gvG, &flops)
					}
				}
			}
			for qz := 0; qz < p.Nqz; qz++ {
				for w := 0; w < p.Nw; w++ {
					shift := p.PhononShift(w)
					for kz := 0; kz < p.Nkz; kz++ {
						k2 := wrapK(kz, -qz, p.Nkz)
						for e := eLo; e < eHi && e+shift < p.NE; e++ {
							su := k2*nu + e + shift - uLo
							sw := kz*nw + e - eLo
							for i := 0; i < p.N3D; i++ {
								o := (i*p.Nkz*nu + su) * n2
								ul.Data = uLess.Data[o : o+n2]
								ug.Data = uGtr.Data[o : o+n2]
								for j := 0; j < p.N3D; j++ {
									o := (j*p.Nkz*nw + sw) * n2
									vl.Data = wLess.Data[o : o+n2]
									vg.Data = wGtr.Data[o : o+n2]
									piAccumulate(dstL, qz, w, a, b, i, j, p.NB, pref*ul.TraceMul(&vg))
									piAccumulate(dstG, qz, w, a, b, i, j, p.NB, pref*ug.TraceMul(&vl))
								}
							}
						}
					}
				}
			}
		}
	}
}

// referenceOrderPhase is the serial DaCe phase run on the reference-order
// loop nests: the bitwise expectation of every DaCe execution path.
func (k *Kernel) referenceOrderPhase(in PhaseInput) PhaseOutput {
	p := k.Dev.P
	out := PhaseOutput{k.newSigma(), k.newSigma(), k.newPi(), k.newPi()}
	k.sigmaTileReferenceOrder(out.SigmaLess, in.GLess.ToAtomMajor(), k.PreprocessD(in.DLess), 0, p.NE, 0, p.NA)
	k.sigmaTileReferenceOrder(out.SigmaGtr, in.GGtr.ToAtomMajor(), k.PreprocessD(in.DGtr), 0, p.NE, 0, p.NA)
	k.piTileReferenceOrder(out.PiLess, out.PiGtr, in.GLess, in.GGtr, 0, p.NE, 0, p.NA)
	return out
}

// randomPhaseInput draws anti-Hermitian G^≷ and random D^≷ for the grid p.
func randomPhaseInput(rng *rand.Rand, p device.Params) PhaseInput {
	return PhaseInput{
		GLess: randomAntiHermG(rng, p), GGtr: randomAntiHermG(rng, p),
		DLess: randomD(rng, p), DGtr: randomD(rng, p),
	}
}

// referenceOrderDevices are the structures of the bit-identity pins:
// Norb = 1 (the cnt and chain kinds), 2 (Mini, and the nanowire shape of
// the sse_wire benchmark document) and 4.
func referenceOrderDevices(t *testing.T) map[string]*device.Device {
	t.Helper()
	wire := device.Mini()
	wire.Nw, wire.NA, wire.Bnum = 6, 36, 9
	norb4 := device.Mini()
	norb4.Norb = 4
	devs := map[string]*device.Device{}
	for name, spec := range map[string]device.Spec{
		"cnt":      device.CNT{N: 6, Cols: 8, Subbands: 2, Bnum: 4, NE: 24, Nw: 4, Nkz: 2, NB: 3},
		"chain":    device.Chain{Cols: 8, Rows: 2, Bnum: 4, NE: 12, Nw: 3, Nkz: 2, NB: 3},
		"mini":     device.Nanowire{Params: device.Mini()},
		"sse_wire": device.Nanowire{Params: wire},
		"norb4":    device.Nanowire{Params: norb4},
	} {
		if err := spec.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		dev, err := spec.Build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		devs[name] = dev
	}
	return devs
}

// TestTileKernelsMatchReferenceOrderBitwise pins sigmaTile and piTile to
// the reference-order loop nests: every Σ^≷ and Π^≷ element bitwise equal
// (math.Float64bits on both parts) and the same flop count, on tiles that
// cover the full grid, start at E = 0 and above it, truncate every ω > 0
// window at the top of the grid, and touch both device edges. The
// destinations start from random values, because tiles accumulate.
func TestTileKernelsMatchReferenceOrderBitwise(t *testing.T) {
	for name, dev := range referenceOrderDevices(t) {
		k := NewKernel(dev)
		p := dev.P
		rng := rand.New(rand.NewSource(31))
		in := randomPhaseInput(rng, p)
		am, pre := in.GLess.ToAtomMajor(), k.PreprocessD(in.DLess)
		for _, tile := range [][4]int{
			{0, p.NE, 0, p.NA},         // full grid
			{0, p.NE / 2, 0, p.NA / 4}, // E = 0, left device edge
			{p.NE / 3, p.NE, p.NA / 4, 3 * p.NA / 4},
			{p.NE - 2, p.NE, 3 * p.NA / 4, p.NA}, // truncated windows, right edge
			{p.NE - 1, p.NE, 0, p.NA},
			{1, 2, p.NA - 1, p.NA},
		} {
			eLo, eHi, aLo, aHi := tile[0], tile[1], tile[2], tile[3]
			t.Run(fmt.Sprintf("%s/E[%d,%d)/a[%d,%d)", name, eLo, eHi, aLo, aHi), func(t *testing.T) {
				seed := rng.Int63()
				want, got := k.newSigma(), k.newSigma()
				fillRandom(rand.New(rand.NewSource(seed)), want.Data)
				fillRandom(rand.New(rand.NewSource(seed)), got.Data)
				cmat.Counter.Reset()
				k.sigmaTileReferenceOrder(want, am, pre, eLo, eHi, aLo, aHi)
				wantFlops := cmat.Counter.Reset()
				k.sigmaTile(got, am, pre, eLo, eHi, aLo, aHi)
				if n := cmat.Counter.Reset(); n != wantFlops {
					t.Errorf("sigmaTile counted %d flops, reference order %d", n, wantFlops)
				}
				if !sameBits(want.Data, got.Data) {
					t.Errorf("Σ tile differs from the reference order")
				}

				wantL, wantG, gotL, gotG := k.newPi(), k.newPi(), k.newPi(), k.newPi()
				for _, d := range [][]complex128{wantL.Data, gotL.Data, wantG.Data, gotG.Data} {
					fillRandom(rand.New(rand.NewSource(seed)), d)
				}
				k.piTileReferenceOrder(wantL, wantG, in.GLess, in.GGtr, eLo, eHi, aLo, aHi)
				wantFlops = cmat.Counter.Reset()
				k.piTile(gotL, gotG, in.GLess, in.GGtr, eLo, eHi, aLo, aHi)
				if n := cmat.Counter.Reset(); n != wantFlops {
					t.Errorf("piTile counted %d flops, reference order %d", n, wantFlops)
				}
				if !sameBits(wantL.Data, gotL.Data) || !sameBits(wantG.Data, gotG.Data) {
					t.Errorf("Π tile differs from the reference order")
				}
			})
		}
	}
}

// TestComputePhaseParallelMatchesReferenceOrder pins the shared-memory
// phase, with one worker and with two racing atom tiles, to the serial
// reference-order phase bit for bit.
func TestComputePhaseParallelMatchesReferenceOrder(t *testing.T) {
	devs := referenceOrderDevices(t)
	for _, name := range []string{"cnt", "mini"} {
		k := NewKernel(devs[name])
		in := randomPhaseInput(rand.New(rand.NewSource(37)), k.Dev.P)
		want := k.referenceOrderPhase(in)
		for _, workers := range []int{1, 2} {
			got := k.ComputePhaseParallel(in, DaCe, workers)
			for _, c := range []struct {
				name      string
				want, got []complex128
			}{
				{"Σ^<", want.SigmaLess.Data, got.SigmaLess.Data},
				{"Σ^>", want.SigmaGtr.Data, got.SigmaGtr.Data},
				{"Π^<", want.PiLess.Data, got.PiLess.Data},
				{"Π^>", want.PiGtr.Data, got.PiGtr.Data},
			} {
				if !sameBits(c.want, c.got) {
					t.Errorf("%s, %d workers: %s differs from the reference order", name, workers, c.name)
				}
			}
		}
	}
}

func fillRandom(rng *rand.Rand, d []complex128) {
	for i := range d {
		d[i] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
	}
}
