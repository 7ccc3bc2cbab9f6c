//go:build !race

// The AllocsPerRun counters below measure steady-state heap traffic; the race
// runtime adds its own allocations, so these regressions only hold un-raced.

package rgf

import (
	"runtime"
	"runtime/debug"
	"testing"

	"negfsim/internal/comm"
)

// TestAllocsSolveElectronSteadyState proves the arena pays off at the solver
// level: once the workspace arena is warm, one full per-energy RGF chain
// (operator assembly, boundary self-energies, one RGF sweep for G^R/G^≷,
// observables) performs only a small constant number of heap allocations —
// the result headers and block-pointer slices — independent of the matrix
// work, provided the caller releases the result back to the arena.
//
// Before pooling, a single SolveElectron call allocated hundreds of dense
// matrices; the bound here would be in the thousands of allocations.
func TestAllocsSolveElectronSteadyState(t *testing.T) {
	d := miniDevice(t)
	h := d.Hamiltonian(0)
	s := d.Overlap(0)
	c := Contacts{MuL: 0.2, MuR: -0.2, KT: 0.025}
	run := func() {
		res, err := SolveElectron(h, s, 0.05, Scattering{}, c, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
	}
	run() // warm the arena
	avg := testing.AllocsPerRun(20, run)
	// Small slice headers (result blocks, pivot boxing) remain; the dense
	// matrix traffic must be gone. The device has N blocks of Bs² complex
	// entries — ~60 matrix temporaries per solve before pooling.
	if avg > 40 {
		t.Fatalf("SolveElectron steady state allocates %.1f/run, want bounded small constant", avg)
	}
}

// TestAllocsSolvePhononSteadyState is the phonon-side twin.
func TestAllocsSolvePhononSteadyState(t *testing.T) {
	d := miniDevice(t)
	phi := d.Dynamical(0)
	c := PhononContacts{KTL: 0.026, KTR: 0.024}
	run := func() {
		res, err := SolvePhonon(phi, 0.05, PhononScattering{}, c, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
	}
	run()
	avg := testing.AllocsPerRun(20, run)
	if avg > 40 {
		t.Fatalf("SolvePhonon steady state allocates %.1f/run, want bounded small constant", avg)
	}
}

// filledBoundaryAllocs is the steady-state allocation count of one Mini
// point solve with a filled Boundary, as every Born iteration after the first
// runs it: the result and block-pointer slices of one RGF sweep. Separate
// retarded and Keldysh sweeps took 17 for both the electron and the phonon
// point.
const filledBoundaryAllocs = 12

// TestAllocsSolveElectronFilledBoundary pins filledBoundaryAllocs for the
// electron point.
func TestAllocsSolveElectronFilledBoundary(t *testing.T) {
	d := miniDevice(t)
	h, s := d.Hamiltonian(0), d.Overlap(0)
	scat := Scattering{Bound: &Boundary{}}
	c := Contacts{MuL: 0.2, MuR: -0.2, KT: 0.025}
	run := func() {
		res, err := SolveElectron(h, s, 0.05, scat, c, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
	}
	run() // fills the boundary slot and warms the arena
	if avg := testing.AllocsPerRun(20, run); avg > filledBoundaryAllocs {
		t.Fatalf("SolveElectron with a filled Boundary allocates %.1f/run, want ≤ %d", avg, filledBoundaryAllocs)
	}
}

// TestAllocsSolvePhononFilledBoundary is the phonon-side twin.
func TestAllocsSolvePhononFilledBoundary(t *testing.T) {
	d := miniDevice(t)
	phi := d.Dynamical(0)
	scat := PhononScattering{Bound: &Boundary{}}
	c := PhononContacts{KTL: 0.026, KTR: 0.024}
	run := func() {
		res, err := SolvePhonon(phi, 0.05, scat, c, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
	}
	run()
	if avg := testing.AllocsPerRun(20, run); avg > filledBoundaryAllocs {
		t.Fatalf("SolvePhonon with a filled Boundary allocates %.1f/run, want ≤ %d", avg, filledBoundaryAllocs)
	}
}

// spatialSlackBytes is what one warm spatial point may allocate beyond the
// copies Send makes of its messages: the cluster's rank goroutines, the
// segment layout, the result and the block-pointer slices. The Mini device's
// blocks are 16×16, so one dense block is 4 KiB; the spatial solve used to
// allocate its strips, Schur terms and received blocks on the heap.
const spatialSlackBytes = 6 << 10

// TestAllocsSolveElectronSpatial pins the spatial point solve to the arena:
// once warm, one SolveElectronSpatial point on a 2-rank in-process cluster
// allocates no more than the cluster's counted wire bytes, which Send copies,
// plus spatialSlackBytes. Like AllocsPerRun it runs on one P, so every rank
// draws from the same arena shard, and with the collector off, so that an
// arena refill after a collection does not count.
func TestAllocsSolveElectronSpatial(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	d := miniDevice(t)
	h, s := d.Hamiltonian(0), d.Overlap(0)
	c := Contacts{MuL: 0.2, MuR: -0.2, KT: 0.025}
	const energy, eta = 0.05, 1e-6
	scat := Scattering{Bound: &Boundary{}}
	if err := scat.Bound.FillElectron(h, s, energy, eta); err != nil {
		t.Fatal(err)
	}
	cluster := comm.NewCluster(2)
	defer cluster.Unregister()
	run := func() {
		if err := cluster.Run(func(r *comm.Rank) error {
			res, err := SolveElectronSpatial(r, h, s, energy, scat, c, eta)
			if res != nil {
				res.Release()
			}
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	run() // warms the arena and the ranks' timers
	wire0 := cluster.TotalBytes()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	run()
	runtime.ReadMemStats(&m1)
	wire := uint64(cluster.TotalBytes() - wire0)
	got := m1.TotalAlloc - m0.TotalAlloc
	t.Logf("a warm spatial point allocates %d B, %d B of it on the wire", got, wire)
	if got > wire+spatialSlackBytes {
		t.Fatalf("a warm spatial point allocates %d B, want ≤ %d B wire + %d B", got, wire, spatialSlackBytes)
	}
}
