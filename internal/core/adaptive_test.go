package core

import (
	"context"
	"math"
	"testing"

	"negfsim/internal/device"
	"negfsim/internal/egrid"
)

// adaptZooConfig is the adaptive-vs-uniform test workload: a small zoo
// device with a fine energy grid whose window is wide relative to the
// bias, so the spectral current concentrates in a narrow band — the
// regime adaptation is built for (the far field decays exponentially
// through the Fermi factors).
func adaptZooConfig(spec device.Spec, ne int) RunConfig {
	cfg := DefaultRunConfig()
	cfg.Device = device.WrapSpec(spec)
	cfg.MaxIter = 40
	cfg.Mixer = "anderson"
	cfg.Mixing = 0.8
	cfg.Tol = 1e-9
	cfg.Bias = 0.3
	_ = ne // the spec carries NE; kept for call-site readability
	return cfg
}

// runUniform converges the config on the full grid.
func runUniform(t *testing.T, cfg RunConfig) *Result {
	t.Helper()
	sim, err := cfg.NewSimulator()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runAdaptive converges the config under the adaptive loop.
func runAdaptive(t *testing.T, cfg RunConfig) *Result {
	t.Helper()
	sim, err := cfg.NewSimulator()
	if err != nil {
		t.Fatal(err)
	}
	ac, ok := cfg.AdaptConfig()
	if !ok {
		t.Fatal("config has no adapt block")
	}
	res, _, err := sim.RunAdaptiveCtx(context.Background(), ac)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The adaptive loop must reproduce the uniform-grid physics to the
// configured current tolerance on every device-zoo kind. On the
// resonance-dominated kinds (cnt, chain) it must do so with at most half
// the energy points — the ISSUE's acceptance bar.
func TestAdaptiveMatchesUniformZoo(t *testing.T) {
	if testing.Short() {
		t.Skip("long self-consistent runs; skipped under -short")
	}
	const ne = 96
	cases := []struct {
		kind      string
		spec      device.Spec
		maxActive int // 0 means "no point budget asserted"
	}{
		// N=6 zigzag: metallic, so the bias window actually conducts.
		{"cnt", device.CNT{N: 6, M: 0, Cols: 6, Subbands: 2,
			NE: ne, Nw: 4, NB: 3, Bnum: 3, Nkz: 1, Emin: -2.5, Emax: 2.5}, ne / 2},
		{"chain", device.Chain{Cols: 12, Rows: 1, Junction: 6,
			NE: ne, Nw: 4, NB: 3, Bnum: 4, Nkz: 1, Emin: -2.5, Emax: 2.5}, ne / 2},
		{"nanowire", device.Nanowire{Params: device.Params{
			Nkz: 1, Nqz: 1, NE: ne, Nw: 4, NA: 24, NB: 4, Norb: 2, N3D: 3,
			Rows: 4, Bnum: 3, Emin: -2.5, Emax: 2.5, Seed: 7}}, 0},
		{"gnr", device.GNR{Width: 3, Layers: 1, Cols: 8,
			NE: ne, Nw: 4, NB: 3, Bnum: 4, Nkz: 1, Emin: -3, Emax: 3}, 0},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.kind, func(t *testing.T) {
			t.Parallel()
			cfg := adaptZooConfig(tc.spec, ne)
			uni := runUniform(t, cfg)

			cfg.Adapt = &AdaptSpec{Mode: "grid+sigma", TolCurrent: 1e-6}
			ada := runAdaptive(t, cfg)
			if ada.Adapt == nil || ada.EGrid == nil {
				t.Fatal("adaptive result missing Adapt report / EGrid state")
			}
			rep := ada.Adapt

			tol := 1e-6 * math.Max(1, math.Abs(uni.Obs.CurrentL))
			if d := math.Abs(uni.Obs.CurrentL - ada.Obs.CurrentL); d > tol {
				t.Errorf("current differs by %g (> %g): uniform %g, adaptive %g on %d/%d points",
					d, tol, uni.Obs.CurrentL, ada.Obs.CurrentL, rep.PointsActive, rep.PointsFine)
			}
			// T(E): the interpolated spectral current must track the
			// uniform one everywhere, scaled to the spectrum's peak.
			var peak, worst float64
			for e := range uni.Obs.CurrentPerEnergy {
				peak = math.Max(peak, math.Abs(uni.Obs.CurrentPerEnergy[e]))
			}
			for e := range uni.Obs.CurrentPerEnergy {
				d := math.Abs(uni.Obs.CurrentPerEnergy[e] - ada.Obs.CurrentPerEnergy[e])
				worst = math.Max(worst, d)
			}
			if worst > 1e-3*peak+1e-12 {
				t.Errorf("per-energy current deviates by %g (peak %g)", worst, peak)
			}
			if math.Abs(uni.Obs.CurrentL) < 1e-9 {
				t.Errorf("test device carries no current (%g); the comparison is vacuous", uni.Obs.CurrentL)
			}
			t.Logf("%s: %d/%d points, %d rounds (%s), I=%g",
				tc.kind, rep.PointsActive, rep.PointsFine, rep.Rounds, rep.Reason, uni.Obs.CurrentL)
			if tc.maxActive > 0 && rep.PointsActive > tc.maxActive {
				t.Errorf("used %d of %d points, want ≤ %d", rep.PointsActive, ne, tc.maxActive)
			}
			if rep.Solves >= rep.UniformSolves {
				t.Errorf("adaptive ran %d solves, uniform equivalent %d — no saving", rep.Solves, rep.UniformSolves)
			}
			if rep.Reason == "" || rep.Rounds < 1 {
				t.Errorf("implausible report: %+v", rep)
			}
		})
	}
}

// A uniform-grid run through the weight-aware accumulation must be
// bit-identical to one with the grid installed explicitly, and its
// weights bitwise equal to the ΔE the pre-adaptive code multiplied by —
// the "no behavior change when adaptation is off" regression pin.
func TestUniformRunBitCompatible(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxIter = 2
	opts.Workers = 1 // fixed accumulation order: bitwise comparison
	base := miniSim(t, opts)
	p := base.Dev.P
	for e := 0; e < p.NE; e++ {
		if w := base.EnergyGrid().Weight(e); w != p.EStep() {
			t.Fatalf("uniform weight at %d is %g, want EStep %g bitwise", e, w, p.EStep())
		}
	}
	a, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}
	explicit := miniSim(t, opts)
	if err := explicit.SetGrid(egrid.Uniform(p.NE, p.Emin, p.Emax)); err != nil {
		t.Fatal(err)
	}
	b, err := explicit.Run()
	if err != nil {
		t.Fatal(err)
	}
	if a.Obs.CurrentL != b.Obs.CurrentL || a.Obs.CurrentR != b.Obs.CurrentR {
		t.Fatalf("explicit uniform grid changed the current: %v vs %v", a.Obs.CurrentL, b.Obs.CurrentL)
	}
	if a.Obs.HeatL != b.Obs.HeatL || a.Obs.EnergyCurrentL != b.Obs.EnergyCurrentL {
		t.Fatal("explicit uniform grid changed heat/energy current")
	}
	if d := a.GLess.MaxAbsDiff(b.GLess); d != 0 {
		t.Fatalf("G^< differs by %g", d)
	}
	for e, v := range a.Obs.CurrentPerEnergy {
		if v != b.Obs.CurrentPerEnergy[e] {
			t.Fatalf("per-energy current differs at %d", e)
		}
	}
}

// The integrated current must equal the weighted sum of the per-energy
// spectrum — the quadrature identity the controller relies on.
func TestIntegratedCurrentIsWeightedSpectrum(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxIter = 1
	opts.Workers = 1
	s := miniSim(t, opts)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	p := s.Dev.P
	sum := s.EnergyGrid().Integrate(res.Obs.CurrentPerEnergy) / float64(p.Nkz)
	if rel := math.Abs(sum-res.Obs.CurrentL) / math.Max(1e-30, math.Abs(res.Obs.CurrentL)); rel > 1e-12 {
		t.Fatalf("weighted spectrum %g vs integrated current %g (rel %g)", sum, res.Obs.CurrentL, rel)
	}
}

// Checkpoint/resume with adaptation on: the checkpoint carries the grid,
// a resumed adaptive run reconverges to the same answer (1e-8 pin)
// without re-running the refinement ladder, and a non-adaptive resume
// from a partial-grid checkpoint is refused.
func TestAdaptiveCheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("long self-consistent runs; skipped under -short")
	}
	cfg := adaptZooConfig(device.CNT{N: 6, M: 0, Cols: 6, Subbands: 2,
		NE: 96, Nw: 4, NB: 3, Bnum: 3, Nkz: 1, Emin: -2.5, Emax: 2.5}, 96)
	cfg.Adapt = &AdaptSpec{Mode: "grid+sigma", TolCurrent: 1e-6}
	first := runAdaptive(t, cfg)
	ck := CheckpointOf(cfg.Device, first)
	if ck.EGrid == nil {
		t.Fatal("adaptive checkpoint must carry the grid state")
	}
	if ck.EGrid.IsFull() {
		t.Fatal("test device resolved on the full grid; adaptation saved nothing")
	}
	if err := ck.CompatibleGrid(false); err == nil {
		t.Fatal("partial-grid checkpoint must not seed a non-adaptive run")
	}
	if err := ck.CompatibleGrid(true); err != nil {
		t.Fatal(err)
	}

	sim, err := cfg.NewSimulator()
	if err != nil {
		t.Fatal(err)
	}
	ac, _ := cfg.AdaptConfig()
	ac.Resume = ck
	resumed, _, err := sim.RunAdaptiveCtx(context.Background(), ac)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(resumed.Obs.CurrentL - first.Obs.CurrentL); d > 1e-8 {
		t.Fatalf("resumed adaptive run drifted by %g", d)
	}
	if resumed.Adapt.Rounds > first.Adapt.Rounds {
		t.Fatalf("warm resume ran %d rounds, cold ran %d — the saved grid was ignored",
			resumed.Adapt.Rounds, first.Adapt.Rounds)
	}
	got, want := resumed.EGrid.Active, first.EGrid.Active
	if len(got) != len(want) {
		t.Fatalf("resumed grid has %d active points, want %d", len(got), len(want))
	}
}

// One adaptive run over the distributed fault-tolerant runner: every
// round's GF ownership rebalances over the active point set, and the
// result matches the serial adaptive trajectory.
func TestAdaptiveDistributedMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("long self-consistent runs; skipped under -short")
	}
	cfg := adaptZooConfig(device.Chain{Cols: 12, Rows: 1, Junction: 6,
		NE: 64, Nw: 4, NB: 3, Bnum: 4, Nkz: 1, Emin: -2.5, Emax: 2.5}, 64)
	cfg.MaxIter = 12
	cfg.Adapt = &AdaptSpec{Mode: "grid", TolCurrent: 1e-6}
	serial := runAdaptive(t, cfg)

	sim, err := cfg.NewSimulator()
	if err != nil {
		t.Fatal(err)
	}
	ac, _ := cfg.AdaptConfig()
	ac.Dist = DistConfig{TE: 2, TA: 2}
	dist, bytes, err := sim.RunAdaptiveCtx(context.Background(), ac)
	if err != nil {
		t.Fatal(err)
	}
	if bytes == 0 {
		t.Fatal("distributed rounds must move data")
	}
	if d := math.Abs(serial.Obs.CurrentL - dist.Obs.CurrentL); d > 1e-8 {
		t.Fatalf("distributed adaptive current differs from serial by %g", d)
	}
	if serial.Adapt.Rounds != dist.Adapt.Rounds || serial.Adapt.PointsActive != dist.Adapt.PointsActive {
		t.Fatalf("refinement trajectories diverged: serial %+v, dist %+v", serial.Adapt, dist.Adapt)
	}
}

// Sanity for the active-subset plumbing itself: a hand-built sparse grid
// still produces finite physics and fills every inactive energy of the
// spectral current by interpolation.
func TestSparseGridRunInterpolates(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxIter = 1
	s := miniSim(t, opts)
	p := s.Dev.P
	g, err := egrid.FromActive(p.NE, p.Emin, p.Emax, []int{0, 3, 8, 12, p.NE - 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetGrid(g); err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	for e, v := range res.Obs.CurrentPerEnergy {
		if math.IsNaN(v) {
			t.Fatalf("NaN spectral current at %d", e)
		}
	}
	// An interior inactive point must sit on the chord of its active
	// neighbors (the interpolation actually ran).
	cpe := res.Obs.CurrentPerEnergy
	wantMid := cpe[3] + (cpe[8]-cpe[3])*float64(5-3)/float64(8-3)
	if d := math.Abs(cpe[5] - wantMid); d > 1e-12*math.Max(1, math.Abs(wantMid)) {
		t.Fatalf("inactive point not interpolated: %g vs %g", cpe[5], wantMid)
	}
	if err := s.SetGrid(nil); err != nil {
		t.Fatal(err)
	}
	if !s.EnergyGrid().Full() {
		t.Fatal("SetGrid(nil) must restore the uniform grid")
	}
}
