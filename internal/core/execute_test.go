package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"negfsim/internal/comm"
	"negfsim/internal/device"
)

// executeConfig is the table's base document: a small nanowire (Bnum = 3
// admits a 2-way spatial split) under a fixed iteration budget, so every
// placement walks the same three Born iterations.
func executeConfig() RunConfig {
	cfg := DefaultRunConfig()
	cfg.Device = device.WrapParams(device.Params{
		Nkz: 2, Nqz: 2, NE: 16, Nw: 3,
		NA: 12, NB: 3, Norb: 2, N3D: 3,
		Rows: 2, Bnum: 3,
		Emin: -1, Emax: 1, Seed: 7,
	})
	cfg.MaxIter = 3
	cfg.Tol = 1e-300
	return cfg
}

// TestExecutePlacementTable drives every placement the run document can
// express through Execute, cold and from a checkpoint, and requires the
// placement-free reference — the same document with dist/space stripped,
// its inner solve (Born loop or adaptive rounds) wrapped in the Gummel loop
// when it has a gate — to 1e-8 with equal iteration counts. Clustered
// placements additionally survive one injected rank death with the same
// answer (under a gate, one per outer step: the fault plan re-arms on
// every inner solve).
func TestExecutePlacementTable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ≈70 short self-consistent solves")
	}
	ctx := context.Background()
	gate := DefaultGate(0.2, 0.1)
	gate.MaxOuter = 2

	// The seed of every warm row: two serial iterations of the base document.
	base := executeConfig()
	seedCfg := base
	seedCfg.MaxIter = 2
	seedSim, err := seedCfg.NewSimulator()
	if err != nil {
		t.Fatal(err)
	}
	seedRes, err := seedSim.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	seed := CheckpointOf(base.Device, seedRes)

	// reference runs cfg's physics with no cluster anywhere and reports the
	// Gummel outer steps it took.
	reference := func(t *testing.T, cfg RunConfig, ck *Checkpoint) (*Result, int) {
		t.Helper()
		cfg.Dist, cfg.Space = "", 0
		sim, err := cfg.NewSimulator()
		if err != nil {
			t.Fatal(err)
		}
		solve := func() (*Result, int64, error) { return sim.born(ctx, DistConfig{Resume: ck}) }
		if ac, adaptive := cfg.AdaptConfig(); adaptive {
			ac.Resume = ck
			solve = func() (*Result, int64, error) { return sim.RunAdaptiveCtx(ctx, ac) }
		}
		if cfg.Gate == nil {
			res, _, err := solve()
			if err != nil {
				t.Fatal(err)
			}
			return res, 0
		}
		es, _, err := sim.gummel(ctx, *cfg.Gate, solve)
		if err != nil {
			t.Fatal(err)
		}
		return es.Result, es.OuterIterations
	}

	adapt := func(c *RunConfig) { c.Adapt = &AdaptSpec{Mode: "grid", TolCurrent: 1e-2} }
	gated := func(set func(*RunConfig)) func(*RunConfig) {
		return func(c *RunConfig) { set(c); c.Gate = &gate }
	}
	rows := []struct {
		name      string
		set       func(*RunConfig)
		clustered bool // a rank can die
	}{
		{name: "serial", set: func(*RunConfig) {}},
		{name: "dist 1x2", set: func(c *RunConfig) { c.Dist = "1x2" }, clustered: true},
		{name: "space 2", set: func(c *RunConfig) { c.Space = 2 }, clustered: true},
		{name: "dist+space", set: func(c *RunConfig) { c.Dist, c.Space = "2x1", 2 }, clustered: true},
		{name: "adaptive", set: adapt},
		{name: "adaptive+dist", set: func(c *RunConfig) { adapt(c); c.Dist = "1x2" }, clustered: true},
	}
	// The Gummel loop wraps every one of them.
	for _, row := range rows[:len(rows):len(rows)] {
		row.name, row.set = "gate × "+row.name, gated(row.set)
		if row.name == "gate × serial" {
			row.name = "gate"
		}
		rows = append(rows, row)
	}
	for _, row := range rows {
		cfg := executeConfig()
		row.set(&cfg)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		for _, ck := range []*Checkpoint{nil, seed} {
			seedName := map[bool]string{true: "cold", false: "checkpoint"}[ck == nil]
			var want *Result
			var wantOuter int
			for _, fault := range []bool{false, true} {
				if fault && !row.clustered {
					continue
				}
				name := row.name + "/" + seedName
				if fault {
					name += "/rank death"
				}
				t.Run(name, func(t *testing.T) {
					if want == nil {
						want, wantOuter = reference(t, cfg, ck)
					}
					plan := Plan{Config: cfg, Place: DistConfig{Resume: ck}}
					if fault {
						plan.Place.Fault = &comm.FaultPlan{Kill: true, KillRank: 1, KillAtOp: 1}
						if !cfg.AdaptEnabled() {
							plan.Place.FaultIter = 1 // an adaptive round re-arms the plan; kill each at its start
						}
					}
					sim, err := cfg.NewSimulator()
					if err != nil {
						t.Fatal(err)
					}
					out, err := sim.Execute(ctx, plan)
					if err != nil {
						t.Fatal(err)
					}
					got := out.Result
					if fault && got.Recoveries != 1 {
						t.Errorf("Recoveries = %d, want 1", got.Recoveries)
					}
					if row.clustered == (out.WireBytes == 0) {
						t.Errorf("WireBytes = %d on a placement with clustered=%v", out.WireBytes, row.clustered)
					}
					if out.GummelOuter != wantOuter {
						t.Errorf("GummelOuter = %d, reference %d", out.GummelOuter, wantOuter)
					}
					if got.Iterations != want.Iterations {
						t.Errorf("iterations = %d, reference %d", got.Iterations, want.Iterations)
					}
					if d := want.GLess.MaxAbsDiff(got.GLess); d > 1e-8 {
						t.Errorf("G^< differs from the reference by %g", d)
					}
					for _, c := range [][2]float64{
						{got.Obs.CurrentL, want.Obs.CurrentL},
						{got.Obs.CurrentR, want.Obs.CurrentR},
						{got.Obs.HeatL, want.Obs.HeatL},
					} {
						if d := math.Abs(c[0] - c[1]); d > 1e-8*(1+math.Abs(c[1])) {
							t.Errorf("observable %g differs from the reference %g", c[0], c[1])
						}
					}
				})
			}
		}
	}
}

// TestExecuteRejectsWhatOnlyAPlanCanExpress pins Execute's own rows of the
// placement table: the pairs no run document can state. What it rejects is
// a seed that cannot seed the document; a seed under the Gummel loop runs,
// whatever the placement.
func TestExecuteRejectsWhatOnlyAPlanCanExpress(t *testing.T) {
	ctx := context.Background()
	base := executeConfig()
	sim, err := base.NewSimulator()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	full := CheckpointOf(base.Device, res)
	partial := *full
	g := sim.EnergyGrid().State()
	g.Active = []int{0, g.NE / 2, g.NE - 1}
	partial.EGrid = g

	gated := base
	gate := DefaultGate(0.2, 0.1)
	gate.MaxOuter = 2
	gated.Gate = &gate
	gatedSpace := gated
	gatedSpace.Space = 2
	for name, tc := range map[string]struct {
		plan Plan
		want string
	}{
		"partial-grid seed for a uniform run":     {Plan{Config: base, Place: DistConfig{Resume: &partial}}, "energy points active"},
		"partial-grid seed under the Gummel loop": {Plan{Config: gated, Place: DistConfig{Resume: &partial}}, "energy points active"},
		"seed under the Gummel loop":              {Plan{Config: gated, Place: DistConfig{Resume: full}}, ""},
		"seed under the Gummel loop, space 2":     {Plan{Config: gatedSpace, Place: DistConfig{Resume: full}}, ""},
	} {
		out, err := sim.Execute(ctx, tc.plan)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", name, err)
		case tc.want == "" && out.GummelOuter != gate.MaxOuter && !out.GummelConverged:
			t.Errorf("%s: %d outer steps, not converged", name, out.GummelOuter)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: err = %v, want one mentioning %q", name, err, tc.want)
		}
	}
}
