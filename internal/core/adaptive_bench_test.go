package core

import (
	"context"
	"testing"

	"negfsim/internal/device"
)

// Uniform-vs-adaptive benchmarks on two zoo devices (make microbench; the
// numbers in EXPERIMENTS.md): the
// same converged Born solve on the full fine grid and under the
// refinement loop. The "points" metric is the energy points actually
// solved (final active count for the adaptive runs); wall time is the
// benchmark's own ns/op.

func benchAdaptConfigs() map[string]RunConfig {
	mk := func(spec device.Spec) RunConfig {
		cfg := DefaultRunConfig()
		cfg.Device = device.WrapSpec(spec)
		cfg.MaxIter = 25
		cfg.Mixer = "anderson"
		cfg.Mixing = 0.8
		cfg.Tol = 1e-8
		cfg.Bias = 0.3
		return cfg
	}
	return map[string]RunConfig{
		"cnt": mk(device.CNT{N: 6, M: 0, Cols: 6, Subbands: 2,
			NE: 96, Nw: 4, NB: 3, Bnum: 3, Nkz: 1, Emin: -2.5, Emax: 2.5}),
		"nanowire": mk(device.Nanowire{Params: device.Params{
			Nkz: 1, Nqz: 1, NE: 96, Nw: 4, NA: 24, NB: 4, Norb: 2, N3D: 3,
			Rows: 4, Bnum: 3, Emin: -2.5, Emax: 2.5, Seed: 7}}),
	}
}

func BenchmarkAdaptUniform(b *testing.B) {
	for kind, cfg := range benchAdaptConfigs() {
		cfg := cfg
		b.Run(kind, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sim, err := cfg.NewSimulator()
				if err != nil {
					b.Fatal(err)
				}
				res, err := sim.RunCtx(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(cfg.Device.Grid().NE), "points")
				b.ReportMetric(float64(res.Iterations), "iters")
			}
		})
	}
}

func BenchmarkAdaptRefined(b *testing.B) {
	for kind, cfg := range benchAdaptConfigs() {
		cfg := cfg
		cfg.Adapt = &AdaptSpec{Mode: "grid+sigma", TolCurrent: 1e-6}
		b.Run(kind, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sim, err := cfg.NewSimulator()
				if err != nil {
					b.Fatal(err)
				}
				ac, _ := cfg.AdaptConfig()
				res, _, err := sim.RunAdaptiveCtx(context.Background(), ac)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Adapt.PointsActive), "points")
				b.ReportMetric(float64(res.Adapt.Rounds), "rounds")
				b.ReportMetric(float64(res.Adapt.Iterations), "iters")
			}
		})
	}
}
