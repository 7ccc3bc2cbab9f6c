package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io/fs"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestMedianPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median odd = %g, want 3", got)
	}
	if got := median(xs[:4]); got != 3 { // 5 1 4 2 → (2+4)/2
		t.Errorf("median even = %g, want 3", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %g, want 0", got)
	}
	ten := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ p, want float64 }{{90, 90}, {50, 50}, {91, 100}, {1, 10}, {100, 100}} {
		if got := percentile(ten, c.p); got != c.want {
			t.Errorf("percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("median sorted its argument in place")
	}
}

// TestQuartilesMatchPython pins quartiles and spread to the values Python's
// statistics.quantiles(xs, n=4) gives, the rule the benchmark is accepted by.
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{1.31, 1.25, 1.40, 1.28, 1.33, 1.52, 1.27, 1.30, 1.36, 1.29}
	q1, q3 := quartiles(xs)
	if !near(q1, 1.2775) || !near(q3, 1.37) {
		t.Errorf("quartiles = %.6f, %.6f, want 1.2775, 1.37", q1, q3)
	}
	if got, want := spread(xs), (1.37-1.2775)/1.305; !near(got, want) {
		t.Errorf("spread = %.6f, want %.6f", got, want)
	}
	q1, q3 = quartiles([]float64{2, 1}) // two samples: Python extrapolates
	if !near(q1, 0.75) || !near(q3, 2.25) {
		t.Errorf("quartiles of two = %g, %g, want 0.75, 2.25", q1, q3)
	}
}

func TestRelErr(t *testing.T) {
	if got := relErr(1.01, 1); !near(got, 0.01) {
		t.Errorf("relErr = %g, want 0.01", got)
	}
	if got := relErr(0, 0); got != 0 {
		t.Errorf("relErr(0, 0) = %g, want 0", got)
	}
	if got := relErr(1e-13, 0); got > 0.11 {
		t.Errorf("relErr against an exact zero = %g: the floor must make it an absolute difference", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", ID: 1, Parent: 0, Op: 1, StartNs: 0, EndNs: 100},
		{Name: "a", ID: 2, Parent: 1, Op: 1, StartNs: 10, EndNs: 40},
		{Name: "b", ID: 3, Parent: 1, Op: 1, StartNs: 30, EndNs: 60},  // overlaps a: covered once
		{Name: "c", ID: 4, Parent: 1, Op: 1, StartNs: 90, EndNs: 120}, // clipped to the parent
		{Name: "a1", ID: 5, Parent: 2, Op: 1, StartNs: 10, EndNs: 20},
		{Name: "other", ID: 6, Parent: 0, Op: 2, StartNs: 0, EndNs: 50},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 100 - 50 - 10, 2: 20, 3: 30, 4: 30, 5: 10, 6: 50} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	// A tree whose children tile their parents partitions the op exactly.
	tiled := []span{
		{ID: 1, Parent: 0, Op: 1, StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Op: 1, StartNs: 0, EndNs: 60},
		{ID: 3, Parent: 1, Op: 1, StartNs: 60, EndNs: 95},
		{ID: 4, Parent: 2, Op: 1, StartNs: 5, EndNs: 55},
	}
	if got := selfCoverShare(tiled, 1); got != 1 {
		t.Errorf("selfCoverShare of a tiling tree = %g, want 1", got)
	}
}

func TestTracerNilIsOff(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0, 1)
	tr.end(id)
	ran := false
	tr.call("y", 0, 1, func() { ran = true })
	if !ran || id != 0 || tr.snapshot() != nil {
		t.Error("a nil tracer must run the call and record nothing")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	templates, err := loadTemplates(false)
	if err != nil {
		t.Fatal(err)
	}
	a, b := generateJobs(templates, 240, 7), generateJobs(templates, 240, 7)
	other := generateJobs(templates, 240, 8)
	same := true
	for i := range a {
		if a[i].Class != b[i].Class || a[i].Of != b[i].Of || !bytes.Equal(a[i].Body, b[i].Body) {
			t.Fatalf("job %d differs between two generations at one seed", i)
		}
		if a[i].Class != other[i].Class || !bytes.Equal(a[i].Body, other[i].Body) {
			same = false
		}
	}
	if same {
		t.Error("seeds 7 and 8 generated the same jobs")
	}

	count := map[jobClass]int{}
	bodies := map[string]int{}
	perTemplate := map[int]int{}
	for i, j := range a {
		count[j.Class]++
		switch j.Class {
		case classCold:
			perTemplate[j.Template]++
			if _, dup := bodies[string(j.Body)]; dup {
				t.Errorf("cold job %d repeats an earlier document", i)
			}
		case classDup:
			if j.Of < 0 || j.Of >= i || a[j.Of].Class == classDup || !bytes.Equal(j.Body, a[j.Of].Body) {
				t.Errorf("dup job %d does not repeat an earlier distinct job (of %d)", i, j.Of)
			}
		case classAdjacent:
			if j.Of < 0 || j.Of >= i || a[j.Of].Class != classCold || j.Doc.kt() != a[j.Of].Doc.kt() {
				t.Errorf("adjacent job %d does not extend an earlier family (of %d)", i, j.Of)
			}
			if _, dup := bodies[string(j.Body)]; dup {
				t.Errorf("adjacent job %d repeats an earlier document", i)
			}
		}
		if _, err := parseRunDoc(j.Body); err != nil {
			t.Errorf("job %d: generated document does not validate: %v", i, err)
		}
		bodies[string(j.Body)] = i
	}
	// The first block trades the classes it cannot serve yet for cold jobs;
	// from then on the mix is exact.
	if count[classCold] < 96 || count[classCold] > 102 || count[classDup] < 66 || count[classAdjacent] < 66 {
		t.Errorf("class counts %v, want about 96/72/72", count)
	}
	for tpl := range templates {
		if n := perTemplate[tpl]; n < count[classCold]/len(templates) {
			t.Errorf("template %d founded %d families of %d: cold jobs must walk the templates evenly", tpl, n, count[classCold])
		}
	}
}

func TestSeedBias(t *testing.T) {
	seen := map[float64]bool{}
	for seed := uint64(0); seed < 50; seed++ {
		b := seedBias(0.3, seed)
		if b != seedBias(0.3, seed) {
			t.Fatalf("seed %d is not deterministic", seed)
		}
		if math.Abs(b-0.3) > 0.002 {
			t.Errorf("seed %d moved the bias to %g, outside ±2 mV", seed, b)
		}
		seen[b] = true
	}
	if len(seen) < 45 {
		t.Errorf("50 seeds gave only %d biases", len(seen))
	}
}

func TestWorkloadDocumentsValidate(t *testing.T) {
	n := 0
	err := fs.WalkDir(files, "workloads", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		raw, err := files.ReadFile(path)
		if err != nil {
			return err
		}
		n++
		if strings.HasSuffix(path, "fleet_iv.json") {
			if err := validateCampaignDoc(raw); err != nil {
				t.Errorf("%s: %v", path, err)
			}
			return nil
		}
		if _, err := parseRunDoc(raw); err != nil {
			t.Errorf("%s: %v", path, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n < 8 {
		t.Errorf("walked %d documents, want the 8 of workloads/ and their quick twins", n)
	}
	for _, w := range workloads {
		if sp, ok := solvers[w.Name]; ok {
			for _, quick := range []bool{false, true} {
				if _, err := sp.input(env{seed: 1, quick: quick}); err != nil {
					t.Errorf("%s (quick=%v): %v", w.Name, quick, err)
				}
			}
		}
	}
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for name := range solvers {
		if g, ok := golden[name]; !ok || g.Iterations == 0 {
			t.Errorf("golden.json has no answer for %s", name)
		}
	}
}

// manifest is BENCHMARK.json at the repository root.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// TestManifestMatchesTables holds BENCHMARK.json and the tables the program
// emits from together, and both to the limits the benchmark contract sets.
func TestManifestMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var m manifest
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	names := map[string]bool{}
	name := func(s string) {
		if !nameRE.MatchString(s) {
			t.Errorf("name %q breaks the contract's charset or length", s)
		}
		if names[s] {
			t.Errorf("name %q used twice", s)
		}
		names[s] = true
	}

	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, the program %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		name(w.Name)
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: manifest %+v, program {%s %s}", i, m.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}

	check := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, d := range want {
			name(d.Name)
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: manifest {%s %s %s}, program {%s %s %s}", kind, i, g.Name, g.Unit, g.Better, d.Name, d.Unit, d.Better)
			}
			if !unitRE.MatchString(d.Unit) {
				t.Errorf("%s: unit %q breaks the contract's charset or length", d.Name, d.Unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: better = %q", d.Name, d.Better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s: bound must be in (0, 0.25] and agree: manifest %v, program %g", d.Name, g.Bound, d.Bound)
			case !bounded && (g.Bound != nil || d.Bound != 0):
				t.Errorf("%s: a per-layer metric has no bound", d.Name)
			case !bounded && d.Moves == "":
				t.Errorf("%s: no written-down prediction of what it should move", d.Name)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)
	if len(perLayer) > 128 || len(endToEnd) > 16 || len(workloads) > 8 {
		t.Error("more workloads or metrics than the contract allows")
	}
	setup := endToEnd[0]
	for _, d := range endToEnd {
		if d.Bound > setup.Bound {
			t.Errorf("%s has a larger bound than setup_s", d.Name)
		}
	}
	if setup.Name != "setup_s" || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("the first end-to-end metric must be setup_s in s, lower is better: %+v", setup)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "bench" || m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", m.Paths, m.RunSeconds)
	}
	if strings.Join(m.Command, " ") != "bash bench/run.sh" {
		t.Errorf("command %v", m.Command)
	}
}

// TestQuickSmokeEmitsDeclaredMetrics runs one workload at smoke size, once
// untraced and once traced, and checks that what it emits is exactly what
// the tables (and so BENCHMARK.json) declare, in both directions. Every
// workload shares the sealing step that enforces this.
func TestQuickSmokeEmitsDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the solver")
	}
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil { // the traced run writes bench/out/ under the working directory
		t.Fatal(err)
	}
	defer func() { _ = os.Chdir(dir) }()

	for _, traced := range []bool{false, true} {
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		res, err := solvers["gf_wire"].run(context.Background(), env{seed: 3, seconds: 1, quick: true, trace: traced})
		if err != nil {
			t.Fatalf("traced=%v: %v", traced, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("traced=%v: correct=%v attempted=%d failed=%d: %v", traced, res.Correct, res.Attempted, res.Failed, res.problems)
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("traced=%v: emitted %d metrics, declared %d", traced, len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			v, ok := res.Metrics[d.Name]
			switch {
			case !ok:
				t.Errorf("declared metric %s not emitted", d.Name)
			case v.Unit != d.Unit:
				t.Errorf("%s: unit %q, declared %q", d.Name, v.Unit, d.Unit)
			case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
				t.Errorf("%s: value %g", d.Name, v.Value)
			}
		}
		if traced {
			raw, err := os.ReadFile(tracePath("gf_wire"))
			if err != nil {
				t.Fatal(err)
			}
			var spans []span
			if err := json.Unmarshal(raw, &spans); err != nil || len(spans) < 10 {
				t.Fatalf("trace file: %d spans, %v", len(spans), err)
			}
			if got := selfCoverShare(spans, 1); math.Abs(got-1) > 0.02 {
				t.Errorf("span self times cover %.3f of op 1's wall, want within 2%% of it", got)
			}
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "solve_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{1.00, 1.01, 0.99, 1.00}
	for _, c := range []struct {
		name    string
		d       metricDef
		a, b    []float64
		verdict string
	}{
		{"within the bound", lower, steady, []float64{1.05, 1.06, 1.04, 1.05}, verdictOK},
		{"slower past the bound", lower, steady, []float64{1.20, 1.21, 1.19, 1.20}, verdictRegressed},
		{"faster", lower, steady, []float64{0.5, 0.5, 0.5, 0.5}, verdictOK},
		{"throughput down past the bound", higher, steady, []float64{0.8, 0.8, 0.8, 0.8}, verdictRegressed},
		{"throughput up", higher, steady, []float64{1.5, 1.5, 1.5, 1.5}, verdictOK},
		{"noisy and overlapping", lower, []float64{1.0, 1.3, 0.8, 1.1}, []float64{1.1, 1.4, 0.9, 1.2}, verdictUnresolved},
		{"noisy but every run worse", lower, []float64{1.0, 1.3, 0.8, 1.1}, []float64{2.0, 2.6, 1.6, 2.2}, verdictRegressed},
		{"single runs", lower, []float64{1.0}, []float64{1.05}, verdictOK},
	} {
		if got, _ := judge(c.d, c.a, c.b); got != c.verdict {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.verdict)
		}
	}
}
