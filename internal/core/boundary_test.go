package core

import (
	"context"
	"math"
	"testing"

	"negfsim/internal/device"
	"negfsim/internal/obs"
	"negfsim/internal/sse"
)

// boundarySpans returns a function reporting how many boundary
// self-energy pairs rgf has computed since it was called: one rgf.boundary
// span per computed pair.
func boundarySpans(t *testing.T) func() int64 {
	t.Helper()
	if !obs.Enabled() {
		obs.Enable()
		t.Cleanup(obs.Disable)
	}
	timer := obs.GetTimer("rgf.boundary")
	base := timer.Count()
	return func() int64 { return timer.Count() - base }
}

// forgetBoundaries makes a simulator drop its boundary slots after every
// Born iteration, so each GF phase recomputes every boundary: the
// uncached oracle the cached runs must match bit for bit.
func forgetBoundaries(s *Simulator) {
	s.Opts.OnIteration = func(IterStats) { s.bounds = nil }
}

// gridPoints is the number of distinct (kz, E) and (qz, ω) points of a
// simulator's fine grid.
func gridPoints(s *Simulator) int64 {
	p := s.Dev.P
	return int64(p.Nkz*p.NE + p.Nqz*p.Nw)
}

func sameBits(t *testing.T, what string, a, b []complex128) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d elements", what, len(a), len(b))
	}
	for i := range a {
		if !sameFloat(real(a[i]), real(b[i])) || !sameFloat(imag(a[i]), imag(b[i])) {
			t.Fatalf("%s: element %d differs: %v vs %v", what, i, a[i], b[i])
		}
	}
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sameObservables compares every contact observable of two results bitwise.
func sameObservables(t *testing.T, a, b Observables) {
	t.Helper()
	pairs := [][2]float64{
		{a.CurrentL, b.CurrentL}, {a.CurrentR, b.CurrentR},
		{a.EnergyCurrentL, b.EnergyCurrentL}, {a.EnergyCurrentR, b.EnergyCurrentR},
		{a.HeatL, b.HeatL}, {a.HeatR, b.HeatR},
	}
	for i, p := range pairs {
		if !sameFloat(p[0], p[1]) {
			t.Fatalf("observable %d differs: %v vs %v", i, p[0], p[1])
		}
	}
	for e := range a.CurrentPerEnergy {
		if !sameFloat(a.CurrentPerEnergy[e], b.CurrentPerEnergy[e]) {
			t.Fatalf("spectral current at E=%d differs: %v vs %v", e, a.CurrentPerEnergy[e], b.CurrentPerEnergy[e])
		}
	}
}

// sameRun compares two self-consistent results bitwise.
func sameRun(t *testing.T, a, b *Result) {
	t.Helper()
	if a.Iterations != b.Iterations {
		t.Fatalf("iterations differ: %d vs %d", a.Iterations, b.Iterations)
	}
	sameBits(t, "G<", a.GLess.Data, b.GLess.Data)
	sameBits(t, "G>", a.GGtr.Data, b.GGtr.Data)
	sameBits(t, "D<", a.DLess.Data, b.DLess.Data)
	sameObservables(t, a.Obs, b.Obs)
}

// TestBoundaryCacheHitsMatchMisses: a GF phase that reuses every cached
// boundary (all hits) is bitwise the phase of a fresh simulator that
// computes every boundary (all misses), under the same self-energies. A
// change of η empties the slots.
func TestBoundaryCacheHitsMatchMisses(t *testing.T) {
	ctx := context.Background()
	opts := DefaultOptions()
	warm := miniSim(t, opts)
	spans := boundarySpans(t)
	gl, gg, dl, dg, _, err := warm.gfPhaseFresh(ctx, nil, selfEnergy{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := spans(), gridPoints(warm); got != want {
		t.Fatalf("first phase computed %d boundaries, want one per point (%d)", got, want)
	}
	out := warm.Kernel.ComputePhaseParallel(sse.PhaseInput{GLess: gl, GGtr: gg, DLess: dl, DGtr: dg}, sse.DaCe, 1)
	sse.AntiHermitize(out.SigmaLess)
	sse.AntiHermitize(out.SigmaGtr)
	se := selfEnergy{
		sigL: out.SigmaLess, sigG: out.SigmaGtr, sigR: sse.Retarded(nil, out.SigmaLess, out.SigmaGtr),
		piL: out.PiLess, piG: out.PiGtr, piR: sse.RetardedD(nil, out.PiLess, out.PiGtr),
	}

	spans = boundarySpans(t)
	hl, hg, hdl, hdg, ho, err := warm.gfPhaseFresh(ctx, nil, se)
	if err != nil {
		t.Fatal(err)
	}
	if n := spans(); n != 0 {
		t.Fatalf("second phase recomputed %d boundaries, want 0", n)
	}
	fresh := miniSim(t, opts)
	ml, mg, mdl, mdg, mo, err := fresh.gfPhaseFresh(ctx, nil, se)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "G<", hl.Data, ml.Data)
	sameBits(t, "G>", hg.Data, mg.Data)
	sameBits(t, "D<", hdl.Data, mdl.Data)
	sameBits(t, "D>", hdg.Data, mdg.Data)
	sameObservables(t, ho, mo)

	warm.Opts.Eta *= 2
	spans = boundarySpans(t)
	if _, _, _, _, _, err := warm.gfPhaseFresh(ctx, nil, se); err != nil {
		t.Fatal(err)
	}
	if got, want := spans(), gridPoints(warm); got != want {
		t.Fatalf("after an η change the phase computed %d boundaries, want %d", got, want)
	}
}

// TestBoundaryComputedOncePerPoint: a multi-iteration serial run computes
// each point's boundary self-energies once, and matches the run that
// recomputes them every iteration bit for bit.
func TestBoundaryComputedOncePerPoint(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxIter = 3
	opts.Tol = 1e-300
	sim := miniSim(t, opts)
	spans := boundarySpans(t)
	res, err := sim.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 3 {
		t.Fatalf("ran %d iterations, want 3", res.Iterations)
	}
	if got, want := spans(), gridPoints(sim); got != want {
		t.Fatalf("computed %d boundaries over %d iterations, want one per point (%d)", got, res.Iterations, want)
	}

	uncached := miniSim(t, opts)
	forgetBoundaries(uncached)
	spans = boundarySpans(t)
	ref, err := uncached.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := spans(), 3*gridPoints(uncached); got != want {
		t.Fatalf("uncached oracle computed %d boundaries, want %d", got, want)
	}
	sameRun(t, res, ref)
}

// TestSpatialBoundaryComputedOncePerPoint: on a spatial split the calling
// goroutine fills each electron point's slot once, before the ranks start,
// and every rank of every later iteration only reads it — under -race
// (make race-ft, make partition-test) that is the check that the shared
// Σ_B is never written while the ranks run. The run matches the one that
// recomputes every boundary each iteration bit for bit.
func TestSpatialBoundaryComputedOncePerPoint(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxIter = 3
	opts.Tol = 1e-300
	sim := spatialSim(t, opts)
	spans := boundarySpans(t)
	res, _, err := sim.RunDistributedFTCtx(context.Background(), spatialConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 3 {
		t.Fatalf("ran %d iterations, want 3", res.Iterations)
	}
	if got, want := spans(), gridPoints(sim); got != want {
		t.Fatalf("computed %d boundaries over %d iterations on 3 ranks, want one per point (%d)", got, res.Iterations, want)
	}

	uncached := spatialSim(t, opts)
	forgetBoundaries(uncached)
	ref, _, err := uncached.RunDistributedFTCtx(context.Background(), spatialConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	sameRun(t, res, ref)
}

// TestAdaptiveBoundaryComputedOncePerPoint: refinement rounds keep the
// slots, since fine-grid indices are stable, so an adaptive run computes
// one boundary pair per point that any round activated.
func TestAdaptiveBoundaryComputedOncePerPoint(t *testing.T) {
	cfg := adaptZooConfig(device.Chain{Cols: 8, Rows: 1, Junction: 4,
		NE: 48, Nw: 3, NB: 3, Bnum: 4, Nkz: 1, Emin: -2.5, Emax: 2.5}, 48)
	cfg.MaxIter = 4
	cfg.Adapt = &AdaptSpec{Mode: "grid", TolCurrent: 1e-6}
	sim, err := cfg.NewSimulator()
	if err != nil {
		t.Fatal(err)
	}
	ac, _ := cfg.AdaptConfig()
	p := sim.Dev.P
	seen := map[int]bool{}
	solves := 0
	sim.Opts.OnIteration = func(IterStats) {
		for _, e := range sim.EnergyGrid().Active() {
			seen[e] = true
		}
		solves += sim.EnergyGrid().NumActive()
	}
	spans := boundarySpans(t)
	res, _, err := sim.RunAdaptiveCtx(context.Background(), ac)
	if err != nil {
		t.Fatal(err)
	}
	if res.Adapt.Rounds < 2 {
		t.Fatalf("adaptive run took %d round(s); the test needs the slots to outlive a round", res.Adapt.Rounds)
	}
	want := int64(len(seen)*p.Nkz + p.Nqz*p.Nw)
	if got := spans(); got != want {
		t.Fatalf("computed %d boundaries over %d rounds, want one per point ever active (%d)", got, res.Adapt.Rounds, want)
	}
	if solves <= len(seen) {
		t.Fatalf("%d electron-energy solves over %d distinct energies: nothing was reused", solves, len(seen))
	}
}

// TestGummelRecomputesBoundaries: every potential update rebuilds H(kz), so
// each outer iteration computes the electron boundaries afresh, while the
// phonon boundaries (Φ is untouched) are computed once. The observables
// are bitwise those of the run that recomputes every boundary each Born
// iteration, and the pristine-H restore at the end empties the electron
// slots again.
func TestGummelRecomputesBoundaries(t *testing.T) {
	g := DefaultGate(0.3, 0)
	g.MaxOuter = 2
	g.Tol = 1e-300
	sim := miniSim(t, gummelOpts())
	spans := boundarySpans(t)
	res, err := sim.RunWithPoissonCtx(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if res.OuterIterations != 2 {
		t.Fatalf("ran %d outer iterations, want 2", res.OuterIterations)
	}
	p := sim.Dev.P
	if got, want := spans(), int64(2*p.Nkz*p.NE+p.Nqz*p.Nw); got != want {
		t.Fatalf("computed %d boundaries over 2 potential updates, want %d", got, want)
	}
	for i := range sim.bounds[:p.Nkz*p.NE] {
		if sim.bounds[i].SigL != nil {
			t.Fatalf("electron slot %d still filled after the pristine-H restore", i)
		}
	}

	uncached := miniSim(t, gummelOpts())
	forgetBoundaries(uncached)
	ref, err := uncached.RunWithPoissonCtx(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	sameRun(t, res.Result, ref.Result)
	for a := range res.Potential {
		if !sameFloat(res.Potential[a], ref.Potential[a]) {
			t.Fatalf("potential at atom %d differs: %v vs %v", a, res.Potential[a], ref.Potential[a])
		}
	}
}
