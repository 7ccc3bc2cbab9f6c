// Tuned-vs-default schedule benchmarks (make microbench): the same GEMM, SSE
// and end-to-end workloads run under the compile-time kernel blocking and
// under a schedule found by a short internal/tune search on this host. The
// two configurations are interleaved inside one benchmark — default, tuned,
// default, tuned — so slow clock drift on a shared box biases neither side;
// each benchmark reports default_ns/op, tuned_ns/op and their ratio
// (tuned_vs_default < 1 means the tuned schedule won, ≈ 1 is parity).
// Parity is the acceptance floor: the defaults were hand-tuned on a machine
// like the CI box, so the measured search should rediscover them or better.
package negfsim

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"negfsim/internal/cmat"
	"negfsim/internal/core"
	"negfsim/internal/sse"
	"negfsim/internal/tune"
)

var (
	schedOnce  sync.Once
	schedTuned tune.Schedule
)

// tunedSchedule runs one short measured search per benchmark binary and
// shares the result across the Sched* benchmarks.
func tunedSchedule() tune.Schedule {
	schedOnce.Do(func() {
		tn := &tune.Tuner{Budget: 1500 * time.Millisecond, Sizes: []int{64, 128, 256}}
		schedTuned = tn.Search()
	})
	return schedTuned
}

// benchSchedPair times workDef under the default blocking and workTuned
// under the tuned blocking, strictly interleaved, and reports the per-side
// times and their ratio. The two work functions are normally the same
// closure; end-to-end passes distinct simulators so the tuned side can also
// carry its worker split.
func benchSchedPair(b *testing.B, tuned cmat.Blocking, workDef, workTuned func()) {
	b.Helper()
	saved := cmat.CurrentBlocking()
	defer func() {
		if err := cmat.SetBlocking(saved); err != nil {
			b.Fatal(err)
		}
	}()
	def := cmat.DefaultBlocking()
	install := func(blk cmat.Blocking) {
		if err := cmat.SetBlocking(blk); err != nil {
			b.Fatal(err)
		}
	}
	// One untimed warm round per side (pool spin-up, pack-buffer allocs).
	install(def)
	workDef()
	install(tuned)
	workTuned()

	var defTotal, tunedTotal time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		install(def)
		start := time.Now()
		workDef()
		defTotal += time.Since(start)

		install(tuned)
		start = time.Now()
		workTuned()
		tunedTotal += time.Since(start)
	}
	b.StopTimer()
	n := float64(b.N)
	b.ReportMetric(float64(defTotal.Nanoseconds())/n, "default_ns/op")
	b.ReportMetric(float64(tunedTotal.Nanoseconds())/n, "tuned_ns/op")
	b.ReportMetric(float64(tunedTotal)/float64(defTotal), "tuned_vs_default")
}

// BenchmarkSchedGEMM is the workload the tuner probes directly: a dense
// square product above the blocked-path threshold.
func BenchmarkSchedGEMM(b *testing.B) {
	tuned := tunedSchedule()
	rng := rand.New(rand.NewSource(42))
	m := cmat.RandomDense(rng, 256, 256)
	n := cmat.RandomDense(rng, 256, 256)
	out := cmat.NewDense(256, 256)
	work := func() {
		for r := 0; r < 4; r++ {
			m.MulInto(out, n)
		}
	}
	benchSchedPair(b, tuned.GEMM, work, work)
}

// BenchmarkSchedSSE runs the DaCe SSE phase — the paper's dominant kernel —
// under both schedules; its product shapes differ from the square probes,
// so this measures how well the tuned blocking generalizes.
func BenchmarkSchedSSE(b *testing.B) {
	tuned := tunedSchedule()
	dev := table7Device(b)
	k := sse.NewKernel(dev)
	rng := rand.New(rand.NewSource(7))
	in := sse.PhaseInput{
		GLess: randomG(rng, dev.P), GGtr: randomG(rng, dev.P),
		DLess: randomD(rng, dev.P), DGtr: randomD(rng, dev.P),
	}
	work := func() {
		k.ComputePhase(in, sse.DaCe)
	}
	benchSchedPair(b, tuned.GEMM, work, work)
}

// BenchmarkSchedEndToEnd runs one full self-consistent Born iteration (RGF
// + SSE + mixing) per side; the tuned side also adopts the tuned worker
// split, matching what `qtsim -tune=cached` would execute.
func BenchmarkSchedEndToEnd(b *testing.B) {
	tuned := tunedSchedule()
	dev := table7Device(b)
	opts := core.DefaultOptions()
	opts.MaxIter = 1
	simDef := core.New(dev, opts)
	tunedOpts := opts
	if tuned.Workers > 0 {
		tunedOpts.Workers = tuned.Workers
	}
	simTuned := core.New(dev, tunedOpts)
	run := func(sim *core.Simulator) func() {
		return func() {
			if _, err := sim.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	benchSchedPair(b, tuned.GEMM, run(simDef), run(simTuned))
}
