package main

import (
	"context"
	"fmt"
	"math"
	"time"
)

// ladder is the per-layer half of a traced run: every rung times calls into
// one layer's public functions from outside, at the shapes of the workload
// documents, and records a span around each call.
type ladder struct {
	tr   *tracer
	root int
	e    env
	m    metricSet
	reps int
}

// runLadder measures every fixed-shape per-layer metric into m.
func runLadder(ctx context.Context, tr *tracer, e env, m metricSet) error {
	l := &ladder{tr: tr, e: e, m: m, reps: e.size(5, 1)}
	l.root = tr.begin("ladder", 0, 0)
	defer tr.end(l.root)
	for _, rung := range []struct {
		name string
		run  func(context.Context) error
	}{
		{"cmat", l.cmat}, {"rgf", l.rgf}, {"sse", l.sse}, {"egrid", l.egrid},
		{"comm", l.comm}, {"transport", l.transport}, {"gummel", l.gummel},
		{"serve", l.serve}, {"front", l.front}, {"campaign", l.campaign},
	} {
		if err := rung.run(ctx); err != nil {
			return fmt.Errorf("%s rungs: %w", rung.name, err)
		}
	}
	return nil
}

// time runs fn reps times, each call a span, and returns the median
// duration in milliseconds. The first error stops it.
func (l *ladder) time(name string, reps int, fn func() error) (float64, error) {
	var samples []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		err := fn()
		t1 := time.Now()
		l.tr.add(name, l.root, 0, t0, t1)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		samples = append(samples, ms(t1.Sub(t0)))
	}
	return median(samples), nil
}

// timeV is time for a call that cannot fail.
func (l *ladder) timeV(name string, reps int, fn func()) float64 {
	v, _ := l.time(name, reps, func() error { fn(); return nil })
	return v
}

// batch wraps fn so one timed call makes n of them, for calls too short to
// time singly.
func batch(n int, fn func() error) func() error {
	return func() error {
		for i := 0; i < n; i++ {
			if err := fn(); err != nil {
				return err
			}
		}
		return nil
	}
}

func (l *ladder) cmat(context.Context) error {
	g := newGEMMRung(256, 256, 256)
	t := l.timeV("cmat.MulInto/256", l.reps, g.mul)
	l.m["cmat.gemm256_gflops"] = g.flops() / t / 1e6

	doc, err := loadDoc("sse_wire", l.e.quick)
	if err != nil {
		return err
	}
	const fusedBatch = 2000
	f := newGEMMRung(doc.fusedGEMMShape())
	t = l.timeV("cmat.MulInto/fused", l.reps, func() {
		for i := 0; i < fusedBatch; i++ {
			f.mul()
		}
	})
	l.m["cmat.gemm_fused_gflops"] = fusedBatch * f.flops() / t / 1e6

	one := l.timeV("cmat.MulParInto/1", l.reps, func() { g.mulPar(1) })
	two := l.timeV("cmat.MulParInto/2", l.reps, func() { g.mulPar(2) })
	l.m["cmat.gemm_par2_speedup"] = one / two

	const invBatch = 20
	inv := newInverseRung(64)
	t, err = l.time("cmat.InverseInto/64", l.reps, batch(invBatch, inv.invert))
	l.m["cmat.inverse_bs64_ms"] = t / invBatch
	return err
}

func (l *ladder) rgf(context.Context) error {
	doc, err := loadDoc("gf_wire", l.e.quick)
	if err != nil {
		return err
	}
	r, err := newRGFRung(doc)
	if err != nil {
		return err
	}
	// run times one rung; the first failure sticks and is returned below.
	run := func(span string, fn func() error) float64 {
		if err != nil {
			return 0
		}
		var t float64
		t, err = l.time(span, l.reps, fn)
		return t
	}
	seq := run("rgf.SolveRetarded", r.retardedSeq)
	part := run("rgf.PartitionedRetarded/2", r.retardedPart2)
	l.m["rgf.retarded_seq_ms"] = seq
	l.m["rgf.retarded_part2_ms"] = part
	l.m["rgf.part_vs_seq"] = part / seq
	l.m["rgf.dist_retarded_ms"] = run("rgf.DistributedRetarded/2", r.retardedDist2)
	l.m["rgf.boundary_ms"] = run("rgf.BoundarySelfEnergies", r.boundary)
	l.m["rgf.phonon_point_ms"] = run("rgf.SolvePhonon", r.phononPoint)
	l.m["rgf.keldysh_ms"] = math.Max(0, run("rgf.SolveRetarded+SolveKeldysh", r.keldysh)-seq)
	if err != nil {
		return err
	}

	a0 := allocMB()
	if err := r.retardedPart2(); err != nil {
		return err
	}
	l.m["rgf.part_alloc_mb"] = allocMB() - a0

	f0 := flopCount()
	if l.m["rgf.electron_point_ms"], err = l.time("rgf.SolveElectron", 1, r.electronPoint); err != nil {
		return err
	}
	l.m["rgf.flops_vs_model"] = float64(flopCount()-f0) / r.modelFlopsPerPoint()
	return nil
}

// sse also carries the rungs that need a finished run of sse_wire's
// document: the checkpoint round trip and the distributed twin.
func (l *ladder) sse(ctx context.Context) error {
	raw, err := loadDocBytes("sse_wire", l.e.quick)
	if err != nil {
		return err
	}
	doc, err := parseRunDoc(raw)
	if err != nil {
		return err
	}
	var serial *outcome
	serialMs, err := l.time("core.solve/sse_wire", 1, func() (err error) {
		serial, err = solveChecked(ctx, doc)
		return err
	})
	if err != nil {
		return err
	}
	distMs, err := l.time("core.solve/sse_wire_dist", 1, func() error {
		_, err := solveChecked(ctx, doc.withDist("1x2"))
		return err
	})
	if err != nil {
		return err
	}
	l.m["comm.dist_vs_serial"] = distMs / serialMs

	r, err := newSSERung(serial)
	if err != nil {
		return err
	}
	reps := min(l.reps, 3)
	one := l.timeV("sse.ComputePhaseParallel/dace/1", reps, func() { r.phaseDaCe(1) })
	two := l.timeV("sse.ComputePhaseParallel/dace/2", reps, func() { r.phaseDaCe(2) })
	l.m["sse.phase_dace_ms"] = two
	l.m["sse.par2_speedup"] = one / two
	l.m["sse.phase_omen_ms"] = l.timeV("sse.ComputePhaseParallel/omen/2", min(reps, 2), func() { r.phaseOMEN(2) })
	l.m["sse.preprocess_ms"] = l.timeV("sse.PreprocessD", reps, r.preprocess)
	l.m["sse.pi_ms"] = l.timeV("sse.PiDaCe", reps, r.pi)
	l.m["sse.tile_phase_ms"] = l.timeV("sse.SigmaDaCeTile+PiDaCeTile", reps, r.tilePhase)
	f0 := flopCount()
	l.m["sse.sigma_ms"] = l.timeV("sse.SigmaDaCe", 1, r.sigma)
	l.m["sse.flops_vs_model"] = float64(flopCount()-f0) / r.modelSigmaFlops()

	var saves, loads []float64
	for i := 0; i < l.reps; i++ {
		t0 := time.Now()
		save, load, size, err := checkpointRoundTrip(serial)
		l.tr.add("core.Checkpoint.Save+LoadCheckpoint", l.root, 0, t0, time.Now())
		if err != nil {
			return err
		}
		saves, loads = append(saves, ms(save)), append(loads, ms(load))
		l.m["core.checkpoint_kb"] = float64(size) / 1024
	}
	l.m["core.checkpoint_save_ms"], l.m["core.checkpoint_load_ms"] = median(saves), median(loads)

	const parseBatch = 200
	t, err := l.time("core.ParseRunConfig+Canonical", l.reps, batch(parseBatch, func() error { return parseCanonical(raw) }))
	l.m["core.config_parse_us"] = t * 1000 / parseBatch
	return err
}

func (l *ladder) egrid(ctx context.Context) error {
	doc, err := loadDoc("adapt_cnt", l.e.quick)
	if err != nil {
		return err
	}
	var adaptive *outcome
	adaptMs, err := l.time("core.solve/adapt_cnt", 1, func() (err error) {
		adaptive, err = solveChecked(ctx, doc)
		return err
	})
	if err != nil {
		return err
	}
	uniformMs, err := l.time("core.solve/adapt_cnt_uniform", 1, func() error {
		_, err := solveChecked(ctx, doc.reference())
		return err
	})
	if err != nil {
		return err
	}
	a := adaptive.Adapt
	if a == nil {
		return fmt.Errorf("adaptive run of adapt_cnt reported no refinement summary")
	}
	l.m["egrid.points_active"] = float64(a.PointsActive)
	l.m["egrid.rounds"] = float64(a.Rounds)
	l.m["egrid.born_iters_total"] = float64(a.BornIters)
	l.m["egrid.solves_saved_share"] = 1 - float64(a.Solves)/float64(a.UniformSolves)
	l.m["egrid.adapt_vs_uniform"] = adaptMs / uniformMs

	const planBatch = 200
	t, err := l.time("egrid.Plan+Apply", l.reps, batch(planBatch, func() error { return egridPlanApply(doc) }))
	l.m["egrid.plan_apply_us"] = t * 1000 / planBatch
	return err
}

func (l *ladder) comm(context.Context) error {
	doc, err := loadDoc("sse_wire", l.e.quick)
	if err != nil {
		return err
	}
	x := newExchangeRung(doc)
	var daceBytes, omenBytes int64
	if l.m["comm.dace_exchange_ms"], err = l.time("comm.DaCeExchangeSSE/1x2", l.reps, func() (err error) {
		daceBytes, err = x.dace()
		return err
	}); err != nil {
		return err
	}
	if daceBytes != x.daceModelBytes() {
		return fmt.Errorf("DaCe exchange moved %d bytes, its model says %d", daceBytes, x.daceModelBytes())
	}
	if l.m["comm.omen_exchange_ms"], err = l.time("comm.OMENExchangeSSE/2", min(l.reps, 3), func() (err error) {
		omenBytes, err = x.omen()
		return err
	}); err != nil {
		return err
	}
	l.m["comm.dace_vs_omen_bytes"] = float64(daceBytes) / float64(omenBytes)

	const rounds = 100
	t, err := l.time("comm.Alltoallv/2", l.reps, func() error { return x.alltoallv(rounds, 4096) })
	l.m["comm.alltoallv_us"] = t * 1000 / rounds
	return err
}

func (l *ladder) transport(ctx context.Context) error {
	pair, err := newTCPPair(ctx)
	if err != nil {
		return err
	}
	defer pair.close()
	if err := pair.pingPong(10, 1); err != nil { // dial and warm the links
		return err
	}
	const rtts = 200
	t, err := l.time("comm.Send+Recv/tcp/16B", l.reps, func() error { return pair.pingPong(rtts, 1) })
	if err != nil {
		return err
	}
	l.m["transport.tcp_rtt_us"] = t * 1000 / rtts

	const frames, elems = 8, 1 << 16 // 1 MiB frames of complex128
	t, err = l.time("comm.Send+Recv/tcp/1MiB", l.reps, func() error { return pair.pingPong(frames, elems) })
	l.m["transport.tcp_mb_per_s"] = 2 * frames * 16 * elems / 1e6 / (t / 1000)
	return err
}

func (l *ladder) gummel(ctx context.Context) (err error) {
	l.m["core.gummel_outer_ms"], err = l.time("core.RunWithPoissonCtx/mini", min(l.reps, 3), func() error { return gummelOuter(ctx) })
	return err
}

// serve compares one job run four ways — directly, through a scheduler,
// through a worker's HTTP API, through the front — each layer's overhead
// being the difference to the one below it. The job is a single Born
// iteration of a small device, so the overheads are not lost in its noise.
func (l *ladder) serve(ctx context.Context) error {
	templates, err := loadTemplates(l.e.quick)
	if err != nil {
		return err
	}
	doc := templates[0].withMaxIter(1).withWorkers(1) // one pool worker: what a fleet worker grants a job
	fl := startFleet()
	defer fl.close()
	worker, frontc := newFleetClient(fl.WorkerURLs[0]), newFleetClient(fl.URL)
	defer worker.close()
	defer frontc.close()
	reps := 2*l.reps - 1

	direct, err := l.time("core.solve/fleet_cnt", reps, func() error { _, err := solve(ctx, doc, nil); return err })
	if err != nil {
		return err
	}
	var submits []float64
	sched, err := l.time("serve.Scheduler.Submit+wait", reps, func() error {
		submit, err := fl.schedulerRun(ctx, doc)
		submits = append(submits, us(submit))
		return err
	})
	if err != nil {
		return err
	}
	viaWorker, err := l.time("serve.API/job", reps, func() error { return worker.runJob(ctx, nil, 0, doc.JSON()).err })
	if err != nil {
		return err
	}
	n := 0
	viaFront, err := l.time("front.API/job", reps, func() error {
		n++ // a new family each time, so the front cannot answer from its cache
		return frontc.runJob(ctx, nil, 0, doc.withKT(doc.kt()+1e-4*float64(n)).JSON()).err
	})
	if err != nil {
		return err
	}
	l.m["serve.submit_us"] = median(submits)
	l.m["serve.run_overhead_ms"] = sched - direct
	l.m["serve.http_overhead_ms"] = viaWorker - sched
	l.m["front.overhead_ms"] = viaFront - viaWorker

	const keyBatch = 200
	t, err := l.time("front.KeyOf", l.reps, batch(keyBatch, func() error { return keyOf(doc) }))
	l.m["front.keyof_us"] = t * 1000 / keyBatch
	return err
}

// rungMixSize is the job count of the short mix the front rungs read.
func rungMixSize(e env) int { return e.size(60, 20) }

func (l *ladder) front(ctx context.Context) error {
	templates, err := loadTemplates(l.e.quick)
	if err != nil {
		return err
	}
	jobs := generateJobs(templates, rungMixSize(l.e), l.e.seed)
	var run *mixRun
	l.tr.call("front.API/mix", l.root, 0, func() { run = runMix(ctx, nil, jobs, true) })
	return mixMetrics(l.m, run)
}

// mixMetrics derives the front and queueing metrics from a finished mix.
func mixMetrics(m metricSet, run *mixRun) error {
	var all, cold, warm, hit, coldIters, warmIters []float64
	var hits, joins, warms int
	for _, rec := range run.records {
		if rec.err != nil {
			return fmt.Errorf("job %d of the mix: %w", rec.job.Index, rec.err)
		}
		lat := ms(rec.latency)
		all = append(all, lat)
		switch {
		case rec.source == "cache":
			hits++
			hit = append(hit, lat)
		case rec.source == "joined":
			joins++
		case rec.warm:
			warms++
			warm = append(warm, lat)
			warmIters = append(warmIters, float64(rec.doc.Iterations))
		default:
			cold = append(cold, lat)
			coldIters = append(coldIters, float64(rec.doc.Iterations))
		}
	}
	n := float64(len(run.records))
	m["front.hit_share"] = float64(hits) / n
	m["front.joined_share"] = float64(joins) / n
	m["front.warm_share"] = float64(warms) / n
	m["front.cold_ms"] = median(cold)
	m["front.warm_ms"] = median(warm)
	m["front.hit_ms"] = median(hit)
	m["front.warm_iters_saved"] = mean(coldIters) - mean(warmIters)
	m["front.job_p90_ms"] = percentile(all, 90)
	var waits []float64
	for _, w := range run.waits {
		waits = append(waits, ms(w))
	}
	m["serve.queue_wait_ms"] = mean(waits)
	return nil
}

func (l *ladder) campaign(ctx context.Context) error {
	run := func(name string, warm bool, seed uint64) (*campaignRecord, error) {
		bodies, bases, err := ivInputs(l.e.quick, 1, seed, warm)
		if err != nil {
			return nil, err
		}
		var rec campaignRecord
		l.tr.call(name, l.root, 0, func() {
			recs, _, _ := runCampaigns(ctx, nil, bodies, bases, false)
			rec = recs[0]
		})
		return &rec, rec.err
	}
	warm, err := run("campaign.API/warm", true, l.e.seed)
	if err != nil {
		return err
	}
	cold, err := run("campaign.API/cold", false, l.e.seed+1)
	if err != nil {
		return err
	}
	var iters []float64
	for _, row := range warm.rows {
		iters = append(iters, float64(row.Iterations))
	}
	l.m["campaign.point_ms"] = ms(warm.latency) / float64(len(warm.rows))
	l.m["campaign.iters_per_point"] = mean(iters)
	l.m["campaign.warm_vs_cold"] = float64(warm.latency) / float64(cold.latency)
	l.m["campaign.artifact_ms"] = ms(warm.artifact)
	return nil
}
