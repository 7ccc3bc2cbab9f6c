package core

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"testing"
)

// goldenSeed is the seed bench/golden.json was recorded at; the benchmark
// moves each document's bias by 0.004·(u − 0.5) with u drawn from it.
const goldenSeed = 7

// goldenWorkloads are the benchmark's five solver workloads: a document
// under bench/workloads and the execution mode the benchmark derives.
var goldenWorkloads = []struct {
	name, doc, dist string
	space           int
}{
	{name: "sse_wire", doc: "sse_wire"},
	{name: "sse_wire_dist", doc: "sse_wire", dist: "1x2"},
	{name: "gf_wire", doc: "gf_wire"},
	{name: "gf_wire_space", doc: "gf_wire", space: 2},
	{name: "adapt_cnt", doc: "adapt_cnt"},
}

// runLegacy dispatches a config over the Run* entry points exactly as
// bench/adapter.go does.
func runLegacy(t *testing.T, cfg *RunConfig) *Result {
	t.Helper()
	opts, err := cfg.Options()
	if err != nil {
		t.Fatal(err)
	}
	dev, err := cfg.Device.Build()
	if err != nil {
		t.Fatal(err)
	}
	sim := New(dev, opts)
	ctx := context.Background()
	var res *Result
	if ac, adaptive := cfg.AdaptConfig(); adaptive {
		res, _, err = sim.RunAdaptiveCtx(ctx, ac)
	} else if dc, distributed, derr := cfg.DistConfig(); derr != nil {
		t.Fatal(derr)
	} else if distributed {
		res, _, err = sim.RunDistributedFTCtx(ctx, dc)
	} else {
		res, err = sim.RunCtx(ctx)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runExecute runs a config through the one dispatch.
func runExecute(t *testing.T, cfg *RunConfig) *Result {
	t.Helper()
	sim, err := cfg.NewSimulator()
	if err != nil {
		t.Fatal(err)
	}
	out, err := sim.Execute(context.Background(), Plan{Config: *cfg})
	if err != nil {
		t.Fatal(err)
	}
	return out.Result
}

// TestBenchmarkGoldenTrajectories pins the five solver workloads of the
// benchmark against bench/golden.json from inside tier-1: observables to
// 1e-8 relative and the Born iteration counts exactly, once over the Run*
// entry points the benchmark's adapter calls and once through Execute.
// bench/ is its own module, so without this a change to the Born loop that
// shifts a trajectory only shows as a failed benchmark verdict after the
// fact.
func TestBenchmarkGoldenTrajectories(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the five benchmark solver workloads twice (≈14 s)")
	}
	raw, err := os.ReadFile("../../bench/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]struct {
		IL         float64 `json:"i_l"`
		IR         float64 `json:"i_r"`
		QL         float64 `json:"q_l"`
		Iterations int     `json:"iterations"`
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	relErr := func(got, want float64) float64 {
		return math.Abs(got-want) / math.Max(math.Abs(want), 1e-12)
	}
	for _, w := range goldenWorkloads {
		doc, err := os.ReadFile("../../bench/workloads/" + w.doc + ".json")
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := ParseRunConfig(doc)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Dist, cfg.Space = w.dist, w.space
		cfg.Bias += 0.004 * (rand.New(rand.NewSource(goldenSeed)).Float64() - 0.5)
		want, ok := golden[w.name]
		if !ok {
			t.Fatalf("bench/golden.json has no entry for %s", w.name)
		}
		for path, run := range map[string]func(*testing.T, *RunConfig) *Result{
			"legacy":  runLegacy,
			"execute": runExecute,
		} {
			t.Run(w.name+"/"+path, func(t *testing.T) {
				res := run(t, cfg)
				if res.Iterations != want.Iterations {
					t.Errorf("iterations = %d, golden %d", res.Iterations, want.Iterations)
				}
				for _, c := range []struct {
					name      string
					got, want float64
				}{
					{"i_l", res.Obs.CurrentL, want.IL},
					{"i_r", res.Obs.CurrentR, want.IR},
					{"q_l", res.Obs.HeatL, want.QL},
				} {
					if d := relErr(c.got, c.want); d > 1e-8 {
						t.Errorf("%s = %.17g, golden %.17g (rel %.3g)", c.name, c.got, c.want, d)
					}
				}
			})
		}
	}
}
