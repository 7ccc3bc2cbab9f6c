package main

import (
	"context"
	"embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"
)

// The run documents are versioned RunConfig / campaign JSON files; they are
// compiled in so the binary needs nothing but its own checkout to run.
//
//go:embed workloads golden.json
var files embed.FS

// opDeadline bounds every op. A run that needs longer is a failure, never a
// timing: sizing this benchmark met an adaptive nanowire run that took
// 466 s and came back unconverged with err == nil.
const opDeadline = 60 * time.Second

// setupReps is how often a solver workload repeats its set-up to report
// the median. A set-up costs one op, so this is a third of a run's time.
const setupReps = 3

// env is what one invocation asks of a workload.
type env struct {
	seed    uint64
	seconds float64
	trace   bool
	quick   bool // smoke sizes: one op, a handful of jobs, tiny documents
}

// size picks a count: full for a measuring run, smoke for a quick one.
func (e env) size(full, smoke int) int {
	if e.quick {
		return smoke
	}
	return full
}

// result is what one workload run reports: the contract's result line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	problems []string // why Correct is false, for the log
}

// fail records one failed op or check.
func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// seal attaches units, checks that exactly the declared metrics were
// measured, and sets the verdict.
func (r *result) seal(m metricSet, defs []metricDef) *result {
	var problems []string
	r.Metrics, problems = m.finish(defs)
	r.problems = append(r.problems, problems...)
	r.Correct = r.Failed == 0 && len(r.problems) == 0
	return r
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	Name string
	Why  string
	run  func(ctx context.Context, e env) (*result, error)
}

// workloads is the benchmark: each layer the roadmap wants judged does most
// of the work on one of them and almost none on another.
var workloads = []workload{
	{"sse_wire", "nanowire, many (kz,E,w) points on small blocks: SSE is three quarters of the wall, so sse, small-GEMM cmat and tensor carry it and rgf little",
		solvers["sse_wire"].run},
	{"sse_wire_dist", "same document on a 1x2 in-process rank grid: the tiled SSE kernels, the exchange and comm/transport, which the serial workload bypasses",
		solvers["sse_wire_dist"].run},
	{"gf_wire", "nanowire, 12 blocks of 64x64 and few grid points: the GF phase is 97% of the wall, so rgf recursion, boundaries and cmat LU/GEMM carry it and an SSE change must not show",
		solvers["gf_wire"].run},
	{"gf_wire_space", "same document with every retarded solve Schur-partitioned over 2 spatial ranks: the other rgf path, whose solve_s over gf_wire's is the crossover ratio",
		solvers["gf_wire_space"].run},
	{"adapt_cnt", "carbon nanotube under the adaptive energy grid: egrid controller, refinement rounds and interpolation around RGF on an active subset",
		solvers["adapt_cnt"].run},
	{"fleet_mix", "closed loop of 2 clients over HTTP against a front and two serve workers: 40% cold, 30% duplicate, 30% adjacent-bias small jobs, so the service tier works and the kernels little",
		runFleetMix},
	{"fleet_iv", "sequential 9-point I-V campaigns through the same fleet: campaign ladder, warm chaining and artifacts on top of the job lifecycle",
		runFleetIV},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// loadDocBytes returns the raw document workloads/<name>.json. A quick run
// reads the smoke-sized twin under workloads/quick/ where there is one (the
// fleet documents are small enough to serve both).
func loadDocBytes(name string, quick bool) ([]byte, error) {
	if quick {
		if raw, err := files.ReadFile("workloads/quick/" + name + ".json"); err == nil {
			return raw, nil
		}
	}
	return files.ReadFile("workloads/" + name + ".json")
}

// loadDoc parses and validates a run document.
func loadDoc(name string, quick bool) (*runDoc, error) {
	raw, err := loadDocBytes(name, quick)
	if err != nil {
		return nil, err
	}
	d, err := parseRunDoc(raw)
	if err != nil {
		return nil, fmt.Errorf("workloads/%s.json: %w", name, err)
	}
	return d, nil
}

// goldenEntry pins one solver workload's answer at the default seed.
type goldenEntry struct {
	IL         float64 `json:"i_l"`
	IR         float64 `json:"i_r"`
	QL         float64 `json:"q_l"`
	Iterations int     `json:"iterations"`
}

// goldenSeed is the seed golden.json was recorded at.
const goldenSeed = 7

func loadGolden() (map[string]goldenEntry, error) {
	raw, err := files.ReadFile("golden.json")
	if err != nil {
		return nil, err
	}
	var g map[string]goldenEntry
	if err := json.Unmarshal(raw, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// seedBias moves a document's bias by at most ±2 mV, drawn from the seed.
// The solver workloads take their seed here and nowhere else: the bias
// changes every number the run produces but not the work it does, whereas
// a new structure seed changes the Born iteration count of these devices
// between 7 and 40 and would make one seed incomparable with the next.
func seedBias(base float64, seed uint64) float64 {
	u := rand.New(rand.NewSource(int64(seed))).Float64()
	return base + 0.004*(u-0.5)
}
