//go:build !race

// The AllocsPerRun counters below measure steady-state heap traffic; the race
// runtime adds its own allocations, so these regressions only hold un-raced.

package core

import (
	"runtime"
	"runtime/debug"
	"testing"

	"negfsim/internal/comm"
	"negfsim/internal/device"
	"negfsim/internal/rgf"
	"negfsim/internal/tensor"
)

// TestExtractAllocatesNothing: copying a solved point's atom blocks into the
// Green's-function tensors goes straight from the RGF blocks into tensor
// storage, with no Submatrix copy or Block header per atom.
func TestExtractAllocatesNothing(t *testing.T) {
	s := miniSim(t, DefaultOptions())
	p := s.Dev.P
	gl := tensor.NewGTensor(p.Nkz, p.NE, p.NA, p.Norb)
	gg := tensor.NewGTensor(p.Nkz, p.NE, p.NA, p.Norb)
	dl := tensor.NewDTensor(p.Nqz, p.Nw, p.NA, p.NB, p.N3D)
	dg := tensor.NewDTensor(p.Nqz, p.Nw, p.NA, p.NB, p.N3D)

	er, err := rgf.SolveElectron(s.h[1], s.s[1], p.Energy(5), rgf.Scattering{}, s.Opts.Contacts, s.Opts.Eta)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(10, func() { s.extractElectron(1, 5, er, gl, gg) }); n != 0 {
		t.Fatalf("extractElectron allocates %v times per point, want 0", n)
	}
	if got, want := gl.Block(1, 5, p.NA-1).At(1, 0), er.GLess[p.Bnum-1].At(er.GLess[p.Bnum-1].Rows-1, er.GLess[p.Bnum-1].Rows-2); got != want {
		t.Fatalf("last atom's G< block not copied: %v, want %v", got, want)
	}

	pr, err := rgf.SolvePhonon(s.phi[2], float64(p.PhononShift(1))*p.EStep(), rgf.PhononScattering{},
		rgf.PhononContacts{KTL: s.Opts.PhononKTL, KTR: s.Opts.PhononKTR}, s.Opts.Eta)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(10, func() { s.extractPhonon(2, 1, pr, dl, dg) }); n != 0 {
		t.Fatalf("extractPhonon allocates %v times per point, want 0", n)
	}
	if got, want := dg.Block(2, 1, 0, p.NB).At(2, 1), pr.DGtr[0].At(2, 1); got != want {
		t.Fatalf("first atom's D> self block not copied: %v, want %v", got, want)
	}
}

// TestWarmDistributedPhaseAllocs: once its workspace is warm, a distributed
// SSE phase on the 1×2 grid allocates the same number of times at two
// energy-grid sizes and two atom counts — no per-block, per-energy or
// per-atom allocation is left — and its bytes are the exchanges' Send
// copies (the measured traffic: self messages travel empty, and each
// off-rank copy may round up by up to a page to its allocation size class)
// plus a small constant. The collector is off while it counts, so an arena
// refill after a collection does not show as a phase's allocation.
func TestWarmDistributedPhaseAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const te, ta, slack, pageRound = 1, 2, 16 << 10, 8 << 10
	want := -1.0
	for _, sh := range []struct{ ne, na, bnum int }{{16, 24, 3}, {24, 24, 3}, {16, 32, 4}} {
		p := device.Mini()
		p.NE, p.NA, p.Bnum = sh.ne, sh.na, sh.bnum
		dev, err := device.New(p)
		if err != nil {
			t.Fatal(err)
		}
		s := New(dev, DefaultOptions())
		in := randomPhaseInput(s, 1)
		ws, cl := s.newSSEWorkspace(te, ta), comm.NewCluster(te*ta)
		phase := func() {
			if _, err := s.distributedSSEOn(cl, ws, in); err != nil {
				t.Fatal(err)
			}
		}
		phase()
		// Enough runs that one-off events (a rank's first deadline timer, a
		// goroutine or arena refill) do not move the integer average.
		n := testing.AllocsPerRun(25, phase)
		if want < 0 {
			want = n
		} else if n != want {
			t.Errorf("NE=%d NA=%d: a warm phase allocates %v times, %v at NE=16 NA=24", sh.ne, sh.na, n, want)
		}
		const runs = 3
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			phase()
		}
		runtime.ReadMemStats(&m1)
		perPhase := int64(m1.TotalAlloc-m0.TotalAlloc) / runs
		const procs = te * ta
		if bound := ws.out.MeasuredBytes + 2*procs*(procs-1)*pageRound + slack; perPhase > bound {
			t.Errorf("NE=%d NA=%d: a warm phase allocates %d B, want ≤ %d B (%d B sent)",
				sh.ne, sh.na, perPhase, bound, ws.out.MeasuredBytes)
		}
	}
}
