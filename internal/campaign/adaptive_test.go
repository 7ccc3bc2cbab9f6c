package campaign

import (
	"context"
	"testing"

	"negfsim/internal/core"
	"negfsim/internal/device"
	"negfsim/internal/jobs"
)

// cntAdaptConfig is the adaptive campaign workload: a metallic zigzag
// CNT (conducting at small bias) on a fine grid with a window wide
// relative to the bias ladder, so the refinement controller has real
// savings to find and the warm-chained grid state matters.
func cntAdaptConfig(maxIter int) core.RunConfig {
	cfg := core.DefaultRunConfig()
	cfg.Device = device.WrapSpec(device.CNT{
		N: 6, M: 0, Cols: 6, Subbands: 2,
		NE: 64, Nw: 4, NB: 3, Bnum: 3, Nkz: 1, Emin: -2.5, Emax: 2.5,
	})
	cfg.MaxIter = maxIter
	cfg.Mixer = "anderson"
	cfg.Mixing = 0.8
	cfg.Tol = 1e-9
	cfg.Adapt = &core.AdaptSpec{Mode: "grid+sigma", TolCurrent: 1e-6}
	return cfg
}

// directAdaptiveRuns executes every ladder point as an independent cold
// adaptive run — the baseline the warm-chained campaign is pinned to.
func directAdaptiveRuns(t *testing.T, req Request) []*core.Result {
	t.Helper()
	out := make([]*core.Result, 0, len(req.Ladder()))
	for _, bias := range req.Ladder() {
		cfg := req.pointConfig(bias)
		sim, err := cfg.NewSimulator()
		if err != nil {
			t.Fatal(err)
		}
		ac, ok := cfg.AdaptConfig()
		if !ok {
			t.Fatal("point config lost its adapt block")
		}
		res, _, err := sim.RunAdaptiveCtx(context.Background(), ac)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("direct adaptive run at bias %g did not converge", bias)
		}
		out = append(out, res)
	}
	return out
}

// A warm-chained adaptive I–V ladder: each point resumes both the Born
// loop (Σ≷) and the refinement controller (the grid) from its neighbor,
// and still reproduces cold adaptive runs point-by-point to 1e-8.
func TestAdaptiveWarmLadderLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("long self-consistent ladder; skipped under -short")
	}
	req := Request{
		Kind:       IV,
		Config:     cntAdaptConfig(40),
		BiasStart:  0.30,
		BiasStop:   0.45,
		BiasPoints: 4,
	}
	direct := directAdaptiveRuns(t, req)

	// Two chains of two: points 1 and 3 resume from their chain heads.
	m := scheduledManager(t, 2)
	c, err := m.Start(req)
	if err != nil {
		t.Fatal(err)
	}
	state, err := c.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if state != jobs.Succeeded {
		t.Fatalf("campaign finished %s: %s", state, c.Status().Error)
	}
	st := c.Status()
	if len(st.Points) != 4 {
		t.Fatalf("campaign has %d points, want 4", len(st.Points))
	}
	for i, p := range st.Points {
		if p.State != PointDone || !p.Converged {
			t.Fatalf("point %d state %s converged=%t", i, p.State, p.Converged)
		}
		if got, want := p.WarmStarted, !chainHead(i, len(st.Points), m.maxParallel); got != want {
			t.Fatalf("point %d warm_started = %t, want %t", i, got, want)
		}
		if d := relDiff(p.CurrentL, direct[i].Obs.CurrentL); d > 1e-8 {
			t.Errorf("point %d current_l differs from cold adaptive run by %g", i, d)
		}
		if d := relDiff(p.CurrentR, direct[i].Obs.CurrentR); d > 1e-8 {
			t.Errorf("point %d current_r differs from cold adaptive run by %g", i, d)
		}
	}
	// Every direct run must itself have saved points (otherwise this
	// exercise degenerates to the uniform ladder).
	for i, r := range direct {
		if r.Adapt == nil || r.EGrid == nil {
			t.Fatalf("direct run %d missing adaptive report", i)
		}
		if r.Adapt.PointsActive > r.Adapt.PointsFine/2 {
			t.Errorf("direct run %d used %d/%d points — no saving", i, r.Adapt.PointsActive, r.Adapt.PointsFine)
		}
	}
}
