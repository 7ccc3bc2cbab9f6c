package main

// metricDef declares one metric the benchmark emits. BENCHMARK.json at the
// repository root carries the same names, units and directions (a test
// holds the two together); Moves is the written-down prediction of which
// end-to-end metric, on which workload, the layer metric should move.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the base by which it may worsen
	Moves  string  // per-layer only
}

// endToEnd is what a user of the system sees. Every workload reports every
// one of them: an op is one cold-constructed converged run on the solver
// workloads, one job (submit → result body read) on fleet_mix and one
// campaign (submit → artifact read) on fleet_iv.
//
// The timing bounds are what this host allows, not what one would wish: ten
// runs of one workload spread 3–9 % (inter-quartile, of their median) on the
// 2-vCPU VM the baseline was taken on and up to 18 % in a bad half hour, in
// level shifts that last minutes, and a bound has to stay clear of that.
// Allocation repeats within 1.2 %.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "solve_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: "lower", Bound: 0.05},
}

// perLayer is the ladder of a traced run. Metrics marked "this workload"
// come from the traced ops of the workload being run; all others are rungs
// at fixed shapes (the documents in workloads/), the same in every run.
var perLayer = []metricDef{
	// cmat
	{Name: "cmat.gemm256_gflops", Unit: "GFlop/s", Better: "higher", Moves: "solve_s on sse_wire, gf_wire"},
	{Name: "cmat.gemm_fused_gflops", Unit: "GFlop/s", Better: "higher", Moves: "solve_s on sse_wire, sse_wire_dist"},
	{Name: "cmat.gemm_par2_speedup", Unit: "ratio", Better: "higher", Moves: "solve_s on every solver workload"},
	{Name: "cmat.inverse_bs64_ms", Unit: "ms", Better: "lower", Moves: "solve_s on gf_wire, gf_wire_space"},
	{Name: "cmat.flops_per_op", Unit: "GFlop", Better: "lower", Moves: "this workload: solve_s"},
	{Name: "cmat.arena_hit_share", Unit: "ratio", Better: "higher", Moves: "this workload: alloc_mb_per_op"},
	// pool
	{Name: "pool.handoff_share", Unit: "ratio", Better: "higher", Moves: "this workload: solve_s"},
	// device
	{Name: "device.build_ms", Unit: "ms", Better: "lower", Moves: "this workload: setup_s; solve_s on fleet_mix"},
	// rgf, at gf_wire's A(E): 12 blocks of 64×64
	{Name: "rgf.retarded_seq_ms", Unit: "ms", Better: "lower", Moves: "solve_s on gf_wire"},
	{Name: "rgf.retarded_part2_ms", Unit: "ms", Better: "lower", Moves: "solve_s on gf_wire_space"},
	{Name: "rgf.dist_retarded_ms", Unit: "ms", Better: "lower", Moves: "solve_s on gf_wire_space"},
	{Name: "rgf.part_vs_seq", Unit: "ratio", Better: "lower", Moves: "solve_s on gf_wire_space"},
	{Name: "rgf.part_alloc_mb", Unit: "MB", Better: "lower", Moves: "alloc_mb_per_op on gf_wire_space"},
	{Name: "rgf.keldysh_ms", Unit: "ms", Better: "lower", Moves: "solve_s on gf_wire, adapt_cnt"},
	{Name: "rgf.boundary_ms", Unit: "ms", Better: "lower", Moves: "solve_s on gf_wire, adapt_cnt"},
	{Name: "rgf.electron_point_ms", Unit: "ms", Better: "lower", Moves: "solve_s on gf_wire, adapt_cnt"},
	{Name: "rgf.phonon_point_ms", Unit: "ms", Better: "lower", Moves: "solve_s on gf_wire, adapt_cnt"},
	{Name: "rgf.flops_vs_model", Unit: "ratio", Better: "lower", Moves: "model pair: counted flops over perfmodel.RGFFlops"},
	// sse, at sse_wire's shape with the Green's functions of its converged run
	{Name: "sse.phase_dace_ms", Unit: "ms", Better: "lower", Moves: "solve_s on sse_wire"},
	{Name: "sse.sigma_ms", Unit: "ms", Better: "lower", Moves: "solve_s on sse_wire"},
	{Name: "sse.pi_ms", Unit: "ms", Better: "lower", Moves: "solve_s on sse_wire"},
	{Name: "sse.preprocess_ms", Unit: "ms", Better: "lower", Moves: "solve_s on sse_wire"},
	{Name: "sse.par2_speedup", Unit: "ratio", Better: "higher", Moves: "solve_s on sse_wire"},
	{Name: "sse.tile_phase_ms", Unit: "ms", Better: "lower", Moves: "solve_s on sse_wire_dist"},
	{Name: "sse.phase_omen_ms", Unit: "ms", Better: "lower", Moves: "Table 7 pair of sse.phase_dace_ms"},
	{Name: "sse.flops_vs_model", Unit: "ratio", Better: "lower", Moves: "model pair: counted flops over sse.SigmaFlopsMeasuredModel"},
	// egrid, on adapt_cnt's document
	{Name: "egrid.points_active", Unit: "count", Better: "lower", Moves: "solve_s on adapt_cnt"},
	{Name: "egrid.rounds", Unit: "count", Better: "lower", Moves: "solve_s on adapt_cnt"},
	{Name: "egrid.born_iters_total", Unit: "count", Better: "lower", Moves: "solve_s on adapt_cnt"},
	{Name: "egrid.solves_saved_share", Unit: "ratio", Better: "higher", Moves: "solve_s on adapt_cnt"},
	{Name: "egrid.plan_apply_us", Unit: "us", Better: "lower", Moves: "solve_s on adapt_cnt"},
	{Name: "egrid.adapt_vs_uniform", Unit: "ratio", Better: "lower", Moves: "solve_s on adapt_cnt"},
	// core
	{Name: "core.born_iters", Unit: "count", Better: "lower", Moves: "this workload: solve_s"},
	{Name: "core.iter_ms", Unit: "ms", Better: "lower", Moves: "this workload: solve_s"},
	{Name: "core.gf_share", Unit: "ratio", Better: "lower", Moves: "this workload: share of solve_s an rgf change can reach"},
	{Name: "core.sse_share", Unit: "ratio", Better: "lower", Moves: "this workload: share of solve_s an sse change can reach"},
	{Name: "core.mix_share", Unit: "ratio", Better: "lower", Moves: "this workload: solve_s"},
	{Name: "core.other_share", Unit: "ratio", Better: "lower", Moves: "this workload: solve_s"},
	{Name: "core.new_ms", Unit: "ms", Better: "lower", Moves: "this workload: solve_s"},
	{Name: "core.checkpoint_save_ms", Unit: "ms", Better: "lower", Moves: "solve_s on fleet_mix, fleet_iv"},
	{Name: "core.checkpoint_load_ms", Unit: "ms", Better: "lower", Moves: "solve_s on fleet_mix, fleet_iv"},
	{Name: "core.checkpoint_kb", Unit: "KB", Better: "lower", Moves: "solve_s on fleet_mix, fleet_iv"},
	{Name: "core.config_parse_us", Unit: "us", Better: "lower", Moves: "solve_s on fleet_mix, fleet_iv"},
	{Name: "core.current_rel_err", Unit: "ratio", Better: "lower", Moves: "this workload: failed ops"},
	{Name: "core.conservation_resid", Unit: "ratio", Better: "lower", Moves: "this workload: failed ops"},
	{Name: "core.gummel_outer_ms", Unit: "ms", Better: "lower", Moves: "none: the only coverage of poisson and the Gummel loop"},
	{Name: "core.peak_rss_mb", Unit: "MB", Better: "lower", Moves: "this workload: alloc_mb_per_op"},
	// comm and transport
	{Name: "comm.wire_mb_per_op", Unit: "MB", Better: "lower", Moves: "this workload: solve_s on sse_wire_dist, gf_wire_space"},
	{Name: "comm.wire_vs_model", Unit: "ratio", Better: "lower", Moves: "this workload: model pair, measured over predicted bytes"},
	{Name: "comm.dace_exchange_ms", Unit: "ms", Better: "lower", Moves: "solve_s on sse_wire_dist"},
	{Name: "comm.omen_exchange_ms", Unit: "ms", Better: "lower", Moves: "Table 4/5 pair of comm.dace_exchange_ms"},
	{Name: "comm.dace_vs_omen_bytes", Unit: "ratio", Better: "lower", Moves: "Table 4/5 pair, measured bytes"},
	{Name: "comm.alltoallv_us", Unit: "us", Better: "lower", Moves: "solve_s on sse_wire_dist"},
	{Name: "comm.dist_vs_serial", Unit: "ratio", Better: "lower", Moves: "solve_s of sse_wire_dist over sse_wire"},
	{Name: "transport.tcp_rtt_us", Unit: "us", Better: "lower", Moves: "none: the fabric no end-to-end workload crosses"},
	{Name: "transport.tcp_mb_per_s", Unit: "MB/s", Better: "higher", Moves: "none: the fabric no end-to-end workload crosses"},
	// serve
	{Name: "serve.submit_us", Unit: "us", Better: "lower", Moves: "solve_s, ops_per_s on fleet_mix"},
	{Name: "serve.queue_wait_ms", Unit: "ms", Better: "lower", Moves: "solve_s, ops_per_s on fleet_mix"},
	{Name: "serve.run_overhead_ms", Unit: "ms", Better: "lower", Moves: "solve_s, ops_per_s on fleet_mix"},
	{Name: "serve.http_overhead_ms", Unit: "ms", Better: "lower", Moves: "solve_s, ops_per_s on fleet_mix"},
	// front, on a short seeded job mix
	{Name: "front.hit_share", Unit: "ratio", Better: "higher", Moves: "solve_s, ops_per_s on fleet_mix"},
	{Name: "front.joined_share", Unit: "ratio", Better: "higher", Moves: "solve_s, ops_per_s on fleet_mix"},
	{Name: "front.warm_share", Unit: "ratio", Better: "higher", Moves: "solve_s, ops_per_s on fleet_mix"},
	{Name: "front.cold_ms", Unit: "ms", Better: "lower", Moves: "front.job_p90_ms; ops_per_s on fleet_mix"},
	{Name: "front.warm_ms", Unit: "ms", Better: "lower", Moves: "solve_s on fleet_mix, fleet_iv"},
	{Name: "front.hit_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s on fleet_mix"},
	{Name: "front.warm_iters_saved", Unit: "count", Better: "higher", Moves: "solve_s on fleet_mix, fleet_iv"},
	{Name: "front.keyof_us", Unit: "us", Better: "lower", Moves: "solve_s on fleet_mix"},
	{Name: "front.overhead_ms", Unit: "ms", Better: "lower", Moves: "solve_s on fleet_mix"},
	{Name: "front.job_p90_ms", Unit: "ms", Better: "lower", Moves: "the tail of fleet_mix: cold-path cost and queueing"},
	// campaign
	{Name: "campaign.point_ms", Unit: "ms", Better: "lower", Moves: "solve_s on fleet_iv"},
	{Name: "campaign.iters_per_point", Unit: "count", Better: "lower", Moves: "solve_s on fleet_iv"},
	{Name: "campaign.warm_vs_cold", Unit: "ratio", Better: "lower", Moves: "solve_s on fleet_iv"},
	{Name: "campaign.artifact_ms", Unit: "ms", Better: "lower", Moves: "solve_s on fleet_iv"},
	// the harness's own tracing
	{Name: "obs.trace_overhead_share", Unit: "ratio", Better: "lower", Moves: "this workload: traced over untraced solve_s, minus one"},
	{Name: "trace.self_cover_share", Unit: "ratio", Better: "higher", Moves: "this workload: span self times over op wall (1 = the spans partition the op)"},
}

// metric is one measured value as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values by name and checks them against a declaration.
type metricSet map[string]float64

// finish attaches units and reports every declared name that is missing and
// every set name that is not declared.
func (m metricSet) finish(defs []metricDef) (map[string]metric, []string) {
	out := make(map[string]metric, len(defs))
	var problems []string
	declared := make(map[string]bool, len(defs))
	for _, d := range defs {
		declared[d.Name] = true
		v, ok := m[d.Name]
		if !ok {
			problems = append(problems, "metric not measured: "+d.Name)
			continue
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	for name := range m {
		if !declared[name] {
			problems = append(problems, "metric not declared: "+name)
		}
	}
	return out, problems
}
