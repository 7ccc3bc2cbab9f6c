// Package negfsim's root benchmark harness times the paper's measured
// kernel experiments (§5: Table 6's triple products, Table 7's GF and SSE
// phases per variant), one end-to-end Born iteration, the distributed SSE
// phase and the ablations DESIGN.md calls out. The modeled tables (3, 4, 5
// and 8) and Fig. 13 are closed-form evaluations, printed and checked
// against the paper by cmd/qtpaper rather than timed here (see
// EXPERIMENTS.md for the paper-vs-measured record).
//
// Run everything with:
//
//	go test -bench=. -benchmem
package negfsim

import (
	"context"
	"math/rand"
	"testing"

	"negfsim/internal/cmat"
	"negfsim/internal/comm"
	"negfsim/internal/core"
	"negfsim/internal/device"
	"negfsim/internal/rgf"
	"negfsim/internal/sse"
	"negfsim/internal/tensor"
)

// -----------------------------------------------------------------------------
// Table 6 — sparse vs dense 3-matrix multiplication in RGF
// -----------------------------------------------------------------------------

// table6Setup builds the representative RGF triple product F·g·E: two
// sparse Hamiltonian blocks around a dense Green's function block. The
// paper's GPU measurement used cuSPARSE at DFT block sizes; here the block
// is scaled to CPU (n = 256) with Hamiltonian-like ~5% block sparsity.
func table6Setup() (*cmat.CSR, *cmat.Dense, *cmat.CSR) {
	rng := rand.New(rand.NewSource(6))
	const n = 256
	const density = 0.05
	mk := func() *cmat.CSR {
		d := cmat.NewDense(n, n)
		for i := range d.Data {
			if rng.Float64() < density {
				d.Data[i] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
			}
		}
		return cmat.CSRFromDense(d, 0)
	}
	return mk(), cmat.RandomDense(rng, n, n), mk()
}

func BenchmarkTable6DenseMM(b *testing.B) {
	f, g, e := table6Setup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cmat.TripleProduct(cmat.DenseMM, f, g, e)
	}
}

func BenchmarkTable6CSRMM(b *testing.B) {
	f, g, e := table6Setup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cmat.TripleProduct(cmat.CSRMM, f, g, e)
	}
}

func BenchmarkTable6CSRGEMM(b *testing.B) {
	f, g, e := table6Setup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cmat.TripleProduct(cmat.CSRGEMM, f, g, e)
	}
}

// -----------------------------------------------------------------------------
// Table 7 — single-node runtime of the GF and SSE phases per variant
// -----------------------------------------------------------------------------

func table7Device(b *testing.B) *device.Device {
	b.Helper()
	dev, err := device.New(device.Mini())
	if err != nil {
		b.Fatal(err)
	}
	return dev
}

func randomG(rng *rand.Rand, p device.Params) *tensor.GTensor {
	g := tensor.NewGTensor(p.Nkz, p.NE, p.NA, p.Norb)
	for i := range g.Data {
		g.Data[i] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
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

// The GF phase two ways on an elongated 96-atom, 12-block fin (the regime
// where RGF's O(bnum·bs³) beats dense O((bnum·bs)³)): the naive variant
// inverts the full open-system operator densely (the algorithmic content of
// Table 7's interpreted "Python" row), the optimized variant runs the
// forward/backward RGF recursion. Both produce the same diagonal G^R and
// G^< blocks from the same boundary self-energies (precomputed outside the
// timed region, as OMEN amortizes them across the energy grid).
func table7GFSetup(b *testing.B) (*cmat.BlockTri, []*cmat.Dense) {
	b.Helper()
	p := device.Params{
		Nkz: 3, Nqz: 3, NE: 16, Nw: 4,
		NA: 96, NB: 4, Norb: 2, N3D: 3,
		Rows: 4, Bnum: 12,
		Emin: -1, Emax: 1, Seed: 7,
	}
	dev, err := device.New(p)
	if err != nil {
		b.Fatal(err)
	}
	a := dev.Hamiltonian(0).ShiftDiag(complex(0.05, 1e-6), dev.Overlap(0))
	sigL, sigR, err := rgf.BoundarySelfEnergies(a, 1e-10)
	if err != nil {
		b.Fatal(err)
	}
	a.Diag[0] = a.Diag[0].Sub(sigL)
	a.Diag[a.N-1] = a.Diag[a.N-1].Sub(sigR)
	sigma := make([]*cmat.Dense, a.N)
	for i := range sigma {
		sigma[i] = cmat.NewDense(a.Bs, a.Bs)
	}
	sigma[0].AddScaledInPlace(1i, rgf.Broadening(sigL))
	sigma[a.N-1].AddScaledInPlace(complex(0, 0.2), rgf.Broadening(sigR))
	return a, sigma
}

func BenchmarkTable7GFNaive(b *testing.B) {
	a, sigma := table7GFSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := rgf.DenseReference(a, sigma); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable7GFRGF(b *testing.B) {
	a, sigma := table7GFSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ret, err := rgf.SolveRetarded(a)
		if err != nil {
			b.Fatal(err)
		}
		ret.SolveKeldysh(sigma)
	}
}

func benchSSEVariant(b *testing.B, v sse.Variant) {
	dev := table7Device(b)
	k := sse.NewKernel(dev)
	rng := rand.New(rand.NewSource(7))
	in := sse.PhaseInput{
		GLess: randomG(rng, dev.P), GGtr: randomG(rng, dev.P),
		DLess: randomD(rng, dev.P), DGtr: randomD(rng, dev.P),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.ComputePhase(in, v)
	}
}

func BenchmarkTable7SSENaive(b *testing.B) { benchSSEVariant(b, sse.Reference) }
func BenchmarkTable7SSEOMEN(b *testing.B)  { benchSSEVariant(b, sse.OMEN) }
func BenchmarkTable7SSEDaCe(b *testing.B)  { benchSSEVariant(b, sse.DaCe) }

// -----------------------------------------------------------------------------
// End-to-end: one full self-consistent iteration (the §5 headline workload
// at mini scale) and the distributed communication-avoiding SSE phase
// -----------------------------------------------------------------------------

func BenchmarkEndToEndIteration(b *testing.B) {
	dev := table7Device(b)
	opts := core.DefaultOptions()
	opts.MaxIter = 1
	sim := core.New(dev, opts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunCtx(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDistributedSSE(b *testing.B) {
	dev := table7Device(b)
	sim := core.New(dev, core.DefaultOptions())
	rng := rand.New(rand.NewSource(11))
	in := sse.PhaseInput{
		GLess: randomG(rng, dev.P), GGtr: randomG(rng, dev.P),
		DLess: randomD(rng, dev.P), DGtr: randomD(rng, dev.P),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.DistributedSSE(in, 2, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// -----------------------------------------------------------------------------
// Ablation benches — the design choices DESIGN.md calls out
// -----------------------------------------------------------------------------

// BenchmarkAblationSSELayout isolates the Fig. 10(c) data-layout
// transformation: the DaCe kernel with and without atom-major G storage
// (same algorithm, same flops, different locality and GEMM granularity).
func ablationDevice(b *testing.B) *device.Device {
	b.Helper()
	// Larger (kz, E) grid and more orbitals than Mini so the fused GEMM has
	// real rows to chew on (Nkz·NE·Norb = 768).
	p := device.Params{
		Nkz: 3, Nqz: 3, NE: 64, Nw: 8,
		NA: 24, NB: 4, Norb: 4, N3D: 3,
		Rows: 4, Bnum: 3,
		Emin: -1, Emax: 1, Seed: 7,
	}
	dev, err := device.New(p)
	if err != nil {
		b.Fatal(err)
	}
	return dev
}

func BenchmarkAblationSSELayoutAtomMajor(b *testing.B) {
	dev := ablationDevice(b)
	k := sse.NewKernel(dev)
	rng := rand.New(rand.NewSource(21))
	g := randomG(rng, dev.P)
	pre := k.PreprocessD(randomD(rng, dev.P))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.SigmaDaCe(g, pre)
	}
}

func BenchmarkAblationSSELayoutOriginal(b *testing.B) {
	dev := ablationDevice(b)
	k := sse.NewKernel(dev)
	rng := rand.New(rand.NewSource(21))
	g := randomG(rng, dev.P)
	pre := k.PreprocessD(randomD(rng, dev.P))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.SigmaDaCeNoLayout(g, pre)
	}
}

// BenchmarkAblationGEMM compares the serial and row-banded parallel GEMM on
// the fused (Nkz·NE·Norb) × Norb × Norb product shape of the DaCe SSE stage.
func BenchmarkAblationGEMMSerial(b *testing.B) {
	rng := rand.New(rand.NewSource(22))
	m := cmat.RandomDense(rng, 4096, 12)
	n := cmat.RandomDense(rng, 12, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Mul(n)
	}
}

func BenchmarkAblationGEMMParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(22))
	m := cmat.RandomDense(rng, 4096, 12)
	n := cmat.RandomDense(rng, 12, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulPar(n, 4)
	}
}

// BenchmarkAblationTileChoice shows what the §4.1 exhaustive search buys:
// communication volume of the best, worst and energy-only decompositions
// for the Table 5 configuration.
func BenchmarkAblationTileChoice(b *testing.B) {
	p := device.Paper4864(7)
	var best comm.Decomposition
	var feasible []comm.Decomposition
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		best, feasible = comm.SearchTiles(p, 1792, 0)
	}
	b.StopTimer()
	worst := best
	for _, d := range feasible {
		if d.Bytes > worst.Bytes {
			worst = d
		}
	}
	b.Logf("tile search over %d candidates: best TE=%d×TA=%d %.2f TiB | worst TE=%d×TA=%d %.2f TiB (%.1f×)",
		len(feasible), best.TE, best.TA, comm.TiB(best.Bytes),
		worst.TE, worst.TA, comm.TiB(worst.Bytes), worst.Bytes/best.Bytes)
}

// BenchmarkAblationMixing compares Born-loop convergence cost: damped
// linear mixing versus Anderson acceleration (GF phases are the expensive
// unit; fewer iterations = faster time-to-solution).
func BenchmarkAblationMixingLinear(b *testing.B)   { benchMixer(b, core.Linear) }
func BenchmarkAblationMixingAnderson(b *testing.B) { benchMixer(b, core.Anderson) }

func benchMixer(b *testing.B, kind core.MixerKind) {
	dev := table7Device(b)
	opts := core.DefaultOptions()
	opts.MaxIter = 20
	opts.Tol = 1e-6
	opts.Mixing = 0.5
	opts.Mixer = kind
	b.ResetTimer()
	var iters int
	var conv bool
	for i := 0; i < b.N; i++ {
		res, err := core.New(dev, opts).RunCtx(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		iters, conv = res.Iterations, res.Converged
	}
	b.StopTimer()
	b.Logf("Born iterations: %d (converged %v)", iters, conv)
}

// BenchmarkAblationSpatialRGF compares the sequential recursion against the
// Schur-complement spatial decomposition (OMEN's third MPI level) on a long
// chain. The decomposition performs ~3–4× the flops of the sequential pass
// (two-sided local recursions + border strips + recovery) in exchange for
// segment parallelism; on a multicore host the 8-way version amortizes
// that, while on a single-core host (like this repo's CI box — see
// EXPERIMENTS.md) the benchmark measures exactly the redundancy overhead.
func BenchmarkAblationSpatialRGFSequential(b *testing.B) {
	a := spatialChain(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rgf.SolveRetarded(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSpatialRGFPartitioned(b *testing.B) {
	a := spatialChain(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rgf.PartitionedRetarded(a, 8, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func spatialChain(b *testing.B) *cmat.BlockTri {
	b.Helper()
	rng := rand.New(rand.NewSource(31))
	const n, bs = 64, 32
	a := cmat.NewBlockTri(n, bs)
	for i := 0; i < n; i++ {
		a.Diag[i] = cmat.RandomHermitian(rng, bs, 0).Scale(-1)
		for j := 0; j < bs; j++ {
			a.Diag[i].Set(j, j, a.Diag[i].At(j, j)+complex(3, 0.5))
		}
	}
	for i := 0; i < n-1; i++ {
		a.Upper[i] = cmat.RandomDense(rng, bs, bs).Scale(0.3)
		a.Lower[i] = a.Upper[i].ConjTranspose()
	}
	return a
}
