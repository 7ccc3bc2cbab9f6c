package main

import (
	"context"
	"math"
)

// fleetPass is what one short pass of a fleet workload measured.
type fleetPass struct {
	lat    []float64    // op latencies, seconds
	iters  []iterRecord // iteration logs of the runs the pass caused
	resid  []float64    // |I_L+I_R|/|I_L| per answer
	direct []*outcome   // the reference runs of the verified sample
	worst  float64      // largest deviation from them
}

// conservation is the current-conservation residual |I_L+I_R|/|I_L|.
func conservation(il, ir float64) float64 {
	return math.Abs(il+ir) / math.Max(math.Abs(il), 1e-300)
}

// mixPass pushes jobs through a fresh fleet; with verify it also checks
// them into res.
func mixPass(ctx context.Context, tr *tracer, jobs []fleetJob, res *result) fleetPass {
	var p fleetPass
	run := runMix(ctx, tr, jobs, false)
	if res != nil {
		p.direct, p.worst = checkMix(ctx, res, run, 8)
	}
	for _, rec := range run.records {
		if rec.err != nil {
			continue
		}
		p.lat = append(p.lat, rec.latency.Seconds())
		p.resid = append(p.resid, conservation(rec.doc.Observables.CurrentL, rec.doc.Observables.CurrentR))
		if rec.source == "run" {
			p.iters = append(p.iters, rec.iters...)
		}
	}
	return p
}

// ivPass pushes campaigns through a fresh fleet; with res it also checks
// them into it.
func ivPass(ctx context.Context, tr *tracer, bodies [][]byte, bases []*runDoc, res *result) fleetPass {
	var p fleetPass
	recs, _, _ := runCampaigns(ctx, tr, bodies, bases, tr != nil)
	if res != nil {
		p.direct, p.worst = checkCampaigns(ctx, res, recs, 1)
	}
	for _, rec := range recs {
		if rec.err != nil {
			continue
		}
		p.lat = append(p.lat, rec.latency.Seconds())
		p.iters = append(p.iters, rec.iters...)
		for _, row := range rec.rows {
			p.resid = append(p.resid, conservation(row.CurrentL, row.CurrentR))
		}
	}
	return p
}

// tracedFleet is the traced run of a fleet workload: a short pass of the
// workload with obs on and a span around every HTTP call the harness makes,
// its untraced twin for the tracing overhead, then the layer rungs.
func tracedFleet(ctx context.Context, e env, name string, pass func(tr *tracer, res *result) fleetPass) (*result, error) {
	tr := newTracer(name)
	res := &result{}
	m := metricSet{}

	setObs(false)
	plain := pass(nil, nil)
	setObs(true)
	c0 := readCounters()
	p := pass(tr, res)
	c1 := readCounters()
	setObs(false)

	var samples []iterSample
	for _, it := range p.iters {
		samples = append(samples, it.sample())
	}
	phaseShares(m, samples)
	m["core.born_iters"] = float64(len(p.iters)) / math.Max(1, float64(len(p.lat)))
	var builds, news []float64
	for _, o := range p.direct {
		builds, news = append(builds, ms(o.DeviceBuild)), append(news, ms(o.New))
	}
	m["device.build_ms"] = median(builds)
	m["core.new_ms"] = median(news)
	m["core.current_rel_err"] = p.worst
	m["core.conservation_resid"] = median(p.resid)
	m["core.peak_rss_mb"] = peakRSSMB()
	m["comm.wire_mb_per_op"] = 0
	m["comm.wire_vs_model"] = 1 // the model predicts no traffic and none was measured
	c1.sub(c0).perOp(m, len(p.lat))
	m["obs.trace_overhead_share"] = median(p.lat)/median(plain.lat) - 1
	m["trace.self_cover_share"] = selfCoverShare(tr.snapshot(), 1)

	if err := runLadder(ctx, tr, e, m); err != nil {
		return nil, err
	}
	if err := tr.write(tracePath(name)); err != nil {
		return nil, err
	}
	return res.seal(m, perLayer), nil
}
