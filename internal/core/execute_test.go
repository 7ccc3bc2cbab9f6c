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
// express through Execute, cold and from a checkpoint wherever Validate and
// serve.SubmitFrom admit the pair, and requires the placement-free
// reference — the same document with dist/space stripped, run over the
// legacy entry points — to 1e-8. Clustered placements additionally survive
// one injected rank death with the same answer.
func TestExecutePlacementTable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ≈30 short self-consistent solves")
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
	seedRes, err := seedSim.Run()
	if err != nil {
		t.Fatal(err)
	}
	seed := CheckpointOf(base.Device, seedRes)

	// reference runs cfg's physics with no cluster anywhere.
	reference := func(t *testing.T, cfg RunConfig, ck *Checkpoint) *Result {
		t.Helper()
		cfg.Dist, cfg.Space = "", 0
		sim, err := cfg.NewSimulator()
		if err != nil {
			t.Fatal(err)
		}
		var res *Result
		if ac, adaptive := cfg.AdaptConfig(); adaptive {
			ac.Resume = ck
			res, _, err = sim.RunAdaptive(ac)
		} else if cfg.Gate != nil {
			var es *ElectrostaticResult
			if es, err = sim.RunWithPoisson(*cfg.Gate); err == nil {
				res = es.Result
			}
		} else {
			res, err = sim.RunFrom(ck)
		}
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	for _, row := range []struct {
		name      string
		set       func(*RunConfig)
		cluster   bool // one persistent in-process 2-rank cluster serves both axes
		clustered bool // a rank can die
		warm      bool // a checkpoint seed is admitted
	}{
		{name: "serial", set: func(*RunConfig) {}, warm: true},
		{name: "dist 1x2", set: func(c *RunConfig) { c.Dist = "1x2" }, clustered: true, warm: true},
		{name: "space 2", set: func(c *RunConfig) { c.Space = 2 }, clustered: true, warm: true},
		{name: "dist+space on one cluster", set: func(c *RunConfig) { c.Dist, c.Space = "2x1", 2 },
			cluster: true, clustered: true, warm: true},
		{name: "adaptive", set: func(c *RunConfig) { c.Adapt = &AdaptSpec{Mode: "grid", TolCurrent: 1e-2} }, warm: true},
		{name: "adaptive+dist", set: func(c *RunConfig) { c.Adapt, c.Dist = &AdaptSpec{Mode: "grid", TolCurrent: 1e-2}, "1x2" },
			clustered: true, warm: true},
		{name: "gate", set: func(c *RunConfig) { c.Gate = &gate }},
	} {
		cfg := executeConfig()
		row.set(&cfg)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		for _, ck := range []*Checkpoint{nil, seed} {
			if ck != nil && !row.warm {
				continue
			}
			seedName := map[bool]string{true: "cold", false: "checkpoint"}[ck == nil]
			var want *Result
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
						want = reference(t, cfg, ck)
					}
					plan := Plan{Config: cfg, Place: DistConfig{Resume: ck}}
					if row.cluster {
						plan.Place.Cluster = comm.NewCluster(2)
					}
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
					if (cfg.Gate != nil) != (out.GummelOuter > 0) {
						t.Errorf("GummelOuter = %d with gate=%v", out.GummelOuter, cfg.Gate != nil)
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
// placement table: the pairs no run document can state.
func TestExecuteRejectsWhatOnlyAPlanCanExpress(t *testing.T) {
	ctx := context.Background()
	base := executeConfig()
	sim, err := base.NewSimulator()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
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
	gated.Gate = &gate
	wide := base
	wide.Dist = "2x2"
	for name, tc := range map[string]struct {
		plan Plan
		want string
	}{
		"seed under the Gummel loop":          {Plan{Config: gated, Place: DistConfig{Resume: full}}, "Gummel loop runs serial"},
		"partial-grid seed for a uniform run": {Plan{Config: base, Place: DistConfig{Resume: &partial}}, "energy points active"},
		"cluster too small for the grid":      {Plan{Config: wide, Place: DistConfig{Cluster: comm.NewCluster(2)}}, "cannot carry"},
	} {
		if _, err := sim.Execute(ctx, tc.plan); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", name, err, tc.want)
		}
	}
}
