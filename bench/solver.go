package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"time"
)

// solverSpec is a solver workload: the document workloads/<doc>.json,
// optionally switched to another execution mode.
type solverSpec struct {
	name, docName string
	variant       func(*runDoc) *runDoc
}

var solvers = map[string]solverSpec{
	"sse_wire":      {"sse_wire", "sse_wire", nil},
	"sse_wire_dist": {"sse_wire_dist", "sse_wire", func(d *runDoc) *runDoc { return d.withDist("1x2") }},
	"gf_wire":       {"gf_wire", "gf_wire", nil},
	"gf_wire_space": {"gf_wire_space", "gf_wire", func(d *runDoc) *runDoc { return d.withSpace(2) }},
	"adapt_cnt":     {"adapt_cnt", "adapt_cnt", nil},
}

// run is the workload's run function.
func (sp solverSpec) run(ctx context.Context, e env) (*result, error) {
	s := &solverRun{solverSpec: sp, env: e}
	if e.trace {
		return s.traced(ctx)
	}
	return s.untraced(ctx)
}

// input draws the workload's document from the seed.
func (sp solverSpec) input(e env) (*runDoc, error) {
	doc, err := loadDoc(sp.docName, e.quick)
	if err != nil {
		return nil, err
	}
	if sp.variant != nil {
		doc = sp.variant(doc)
	}
	return doc.withBias(seedBias(doc.bias(), e.seed)), nil
}

type solverRun struct {
	solverSpec
	env env

	doc    *runDoc
	golden *goldenEntry // nil off the golden seed
}

// prepare is the input generation of one set-up: the document from the
// seed, and the golden answer when the seed has one.
func (s *solverRun) prepare() (err error) {
	if s.doc, err = s.input(s.env); err != nil {
		return err
	}
	s.golden = nil
	if s.env.seed == goldenSeed && !s.env.quick {
		g, err := loadGolden()
		if err != nil {
			return err
		}
		entry, ok := g[s.name]
		if !ok {
			return fmt.Errorf("golden.json has no entry for %s", s.name)
		}
		s.golden = &entry
	}
	return nil
}

// op is one cold-constructed run under the per-op deadline.
func (s *solverRun) op(ctx context.Context, hook func(iterSample)) (*outcome, time.Duration, error) {
	ctx, cancel := context.WithTimeout(ctx, opDeadline)
	defer cancel()
	t0 := time.Now()
	o, err := solve(ctx, s.doc, hook)
	return o, time.Since(t0), err
}

// setup runs the whole set-up once — input generation, golden load and one
// warm-up op, which also fills the arena and starts the pool — and returns
// the warm-up's outcome.
func (s *solverRun) setup(ctx context.Context) (*outcome, time.Duration, error) {
	t0 := time.Now()
	if err := s.prepare(); err != nil {
		return nil, 0, err
	}
	o, _, err := s.op(ctx, nil)
	if err != nil {
		return nil, 0, fmt.Errorf("warm-up op: %w", err)
	}
	return o, time.Since(t0), nil
}

// checkOutcome applies the per-op checks that need no reference.
func checkOutcome(o *outcome) error {
	switch {
	case !o.Converged:
		return fmt.Errorf("not converged after %d iterations", o.Iterations)
	case !finite(o.IL) || !finite(o.IR) || !finite(o.QL):
		return fmt.Errorf("non-finite observable (I_L=%g I_R=%g Q_L=%g)", o.IL, o.IR, o.QL)
	}
	return nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// solverTolFactor holds a solver workload's observables to ten times its
// tolerance against the plain serial uniform run of the same document.
const solverTolFactor = 10

// maxRelErr is the largest relative deviation of o's observables from
// the wanted ones.
func maxRelErr(o *outcome, il, ir, ql float64) float64 {
	return math.Max(relErr(o.IL, il), math.Max(relErr(o.IR, ir), relErr(o.QL, ql)))
}

// verify holds every timed outcome to the golden answer (1e-8, at the
// golden seed) and to the plain serial uniform run of the same document
// (ten times the document's tolerance, at every seed). It returns the
// largest deviation from the reference it saw.
func (s *solverRun) verify(ctx context.Context, res *result, warm *outcome, ops []*outcome) (float64, error) {
	ref := warm
	if !s.doc.isReference() {
		ctx, cancel := context.WithTimeout(ctx, opDeadline)
		defer cancel()
		var err error
		if ref, err = solve(ctx, s.doc.reference(), nil); err != nil {
			return 0, fmt.Errorf("reference run: %w", err)
		}
		if err := checkOutcome(ref); err != nil {
			return 0, fmt.Errorf("reference run: %w", err)
		}
	}
	worst := 0.0
	for i, o := range ops {
		if o == nil {
			continue // already counted as failed
		}
		dev := maxRelErr(o, ref.IL, ref.IR, ref.QL)
		worst = math.Max(worst, dev)
		if tol := s.doc.checkTol(solverTolFactor); dev > tol {
			res.Failed++
			res.fail("op %d: observables off the serial uniform run by %.3g (allowed %.3g)", i, dev, tol)
			continue
		}
		if g := s.golden; g != nil {
			if d := maxRelErr(o, g.IL, g.IR, g.QL); d > 1e-8 || o.Iterations != g.Iterations {
				res.Failed++
				res.fail("op %d: off golden.json by %.3g, %d iterations (golden %d)", i, d, o.Iterations, g.Iterations)
			}
		}
	}
	return worst, nil
}

// untraced measures the end-to-end metrics: obs off, no iteration hook.
func (s *solverRun) untraced(ctx context.Context) (*result, error) {
	setObs(false)
	var setups []float64
	var warm *outcome
	for r := 0; r < s.env.size(setupReps, 1); r++ {
		o, d, err := s.setup(ctx)
		if err != nil {
			return nil, err
		}
		if err := checkOutcome(o); err != nil {
			return nil, fmt.Errorf("warm-up op: %w", err)
		}
		warm = o
		setups = append(setups, d.Seconds())
	}

	res := &result{}
	var walls []float64
	var ops []*outcome
	minOps := s.env.size(3, 1)
	a0 := allocMB()
	start := time.Now()
	for len(ops) < minOps || (!s.env.quick && time.Since(start).Seconds() < s.env.seconds) {
		o, wall, err := s.op(ctx, nil)
		res.Attempted++
		if err == nil {
			err = checkOutcome(o)
		}
		if err != nil {
			res.Failed++
			res.fail("op %d: %v", len(ops), err)
			o = nil
		} else {
			walls = append(walls, wall.Seconds())
		}
		ops = append(ops, o)
	}
	window, alloc := time.Since(start).Seconds(), allocMB()-a0

	if _, err := s.verify(ctx, res, warm, ops); err != nil {
		return nil, err
	}

	m := metricSet{
		"setup_s":         median(setups),
		"solve_s":         median(walls),
		"ops_per_s":       float64(len(walls)) / window,
		"alloc_mb_per_op": alloc / float64(len(ops)),
	}
	return res.seal(m, endToEnd), nil
}

// traced repeats the workload with obs on and the iteration hook set,
// records spans around every call into a layer, then runs the layer rungs.
// Nothing it measures feeds an end-to-end metric.
func (s *solverRun) traced(ctx context.Context) (*result, error) {
	tr := newTracer(s.name)
	setObs(false)
	warm, _, err := s.setup(ctx)
	if err != nil {
		return nil, err
	}

	// The untraced twins of the traced ops, for the tracing overhead.
	nOps := s.env.size(2, 1)
	var plain []float64
	for i := 0; i < nOps; i++ {
		_, wall, err := s.op(ctx, nil)
		if err != nil {
			return nil, fmt.Errorf("untraced twin op: %w", err)
		}
		plain = append(plain, wall.Seconds())
	}

	res := &result{}
	setObs(true)
	c0 := readCounters()
	var tracedWalls []float64
	var ops []*outcome
	var iters []iterSample
	for i := 0; i < nOps; i++ {
		op := i + 1
		var mine []iterSample
		var marks []time.Time
		t0 := time.Now()
		o, wall, err := s.op(ctx, func(it iterSample) {
			mine = append(mine, it)
			marks = append(marks, time.Now())
		})
		res.Attempted++
		if err == nil {
			err = checkOutcome(o)
		}
		if err != nil {
			res.Failed++
			res.fail("traced op %d: %v", op, err)
			ops = append(ops, nil)
			continue
		}
		root := tr.add("op", 0, op, t0, t0.Add(wall))
		tr.add("device.build", root, op, t0, t0.Add(o.DeviceBuild))
		tr.add("core.new", root, op, t0.Add(o.DeviceBuild), t0.Add(o.DeviceBuild+o.New))
		for k, it := range mine {
			addIterationSpans(tr, root, op, marks[k], it)
		}
		tracedWalls = append(tracedWalls, wall.Seconds())
		ops = append(ops, o)
		iters = append(iters, mine...)
	}
	c1 := readCounters()
	setObs(false)
	rss := peakRSSMB()

	worst, err := s.verify(ctx, res, warm, ops)
	if err != nil {
		return nil, err
	}

	m := metricSet{}
	done := 0
	var builds, news, wire, born, resid []float64
	var last *outcome
	for _, o := range ops {
		if o == nil {
			continue
		}
		done++
		last = o
		builds = append(builds, ms(o.DeviceBuild))
		news = append(news, ms(o.New))
		wire = append(wire, float64(o.WireBytes)/1e6)
		if o.Adapt != nil {
			born = append(born, float64(o.Adapt.BornIters))
		} else {
			born = append(born, float64(o.Iterations))
		}
		resid = append(resid, conservation(o.IL, o.IR))
	}
	m["device.build_ms"] = median(builds)
	m["core.new_ms"] = median(news)
	m["core.born_iters"] = median(born)
	m["core.current_rel_err"] = worst
	m["core.conservation_resid"] = median(resid)
	m["core.peak_rss_mb"] = rss
	m["comm.wire_mb_per_op"] = median(wire)
	m["comm.wire_vs_model"] = 1 // the model predicts no traffic and none was measured
	if last != nil {
		if model := modelWireBytes(s.doc, last.Iterations); model > 0 {
			m["comm.wire_vs_model"] = float64(last.WireBytes) / model
		}
	}
	phaseShares(m, iters)
	c1.sub(c0).perOp(m, done)
	m["obs.trace_overhead_share"] = median(tracedWalls)/median(plain) - 1
	m["trace.self_cover_share"] = selfCoverShare(tr.snapshot(), 1)

	if err := runLadder(ctx, tr, s.env, m); err != nil {
		return nil, err
	}
	if err := tr.write(tracePath(s.name)); err != nil {
		return nil, err
	}
	return res.seal(m, perLayer), nil
}

// addIterationSpans converts one Born iteration's breakdown, delivered at
// end, into an iteration span under parent with GF, SSE and mix children
// laid back to back from the iteration's start; what they leave uncovered
// is the iteration's self time (norms, bookkeeping).
func addIterationSpans(tr *tracer, parent, op int, end time.Time, it iterSample) {
	start := end.Add(-it.Wall)
	id := tr.add("core.iteration", parent, op, start, end)
	t := start
	for _, ph := range []struct {
		name string
		d    time.Duration
	}{{"core.gf", it.GF}, {"core.sse", it.SSE}, {"core.mix", it.Mix}} {
		if ph.d > 0 {
			tr.add(ph.name, id, op, t, t.Add(ph.d))
			t = t.Add(ph.d)
		}
	}
}

// phaseShares fills the per-iteration wall and the phase shares of it.
func phaseShares(m metricSet, iters []iterSample) {
	var wall, gf, sse, mix time.Duration
	for _, it := range iters {
		wall += it.Wall
		gf += it.GF
		sse += it.SSE
		mix += it.Mix
	}
	share := func(d time.Duration) float64 {
		if wall == 0 {
			return 0
		}
		return float64(d) / float64(wall)
	}
	m["core.iter_ms"] = 0
	if n := len(iters); n > 0 {
		m["core.iter_ms"] = ms(wall) / float64(n)
	}
	m["core.gf_share"] = share(gf)
	m["core.sse_share"] = share(sse)
	m["core.mix_share"] = share(mix)
	m["core.other_share"] = share(wall - gf - sse - mix)
}

// counters is a reading of the program's own counters.
type counters struct {
	flops                    uint64
	hit, miss, handoff, inln int64
}

func readCounters() counters {
	return counters{
		flops: flopCount(),
		hit:   obsCounter("cmat.pool.hit"), miss: obsCounter("cmat.pool.miss"),
		handoff: obsCounter("pool.tasks_handoff"), inln: obsCounter("pool.tasks_inline"),
	}
}

func (c counters) sub(o counters) counters {
	return counters{c.flops - o.flops, c.hit - o.hit, c.miss - o.miss, c.handoff - o.handoff, c.inln - o.inln}
}

// perOp fills the counter-derived metrics for a window of ops.
func (c counters) perOp(m metricSet, ops int) {
	ratio := func(a, b int64) float64 {
		if a+b == 0 {
			return 0
		}
		return float64(a) / float64(a+b)
	}
	m["cmat.flops_per_op"] = 0
	if ops > 0 {
		m["cmat.flops_per_op"] = float64(c.flops) / 1e9 / float64(ops)
	}
	m["cmat.arena_hit_share"] = ratio(c.hit, c.miss)
	m["pool.handoff_share"] = ratio(c.handoff, c.inln)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// goldenMain runs every solver workload once at the golden seed and prints
// the answers in golden.json's format.
func goldenMain() int {
	runtime.GOMAXPROCS(procs)
	golden := map[string]goldenEntry{}
	for name, sp := range solvers {
		doc, err := sp.input(env{seed: goldenSeed})
		if err != nil {
			fatalf("%s: %v", name, err)
		}
		o, err := solveChecked(context.Background(), doc)
		if err != nil {
			fatalf("%s: %v", name, err)
		}
		golden[name] = goldenEntry{IL: o.IL, IR: o.IR, QL: o.QL, Iterations: o.Iterations}
	}
	raw, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(raw))
	return 0
}
