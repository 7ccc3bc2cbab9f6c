package serve

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"negfsim/internal/core"
	"negfsim/internal/device"
	"negfsim/internal/obs"
)

func init() { obs.Enable() }

// testConfig is a seconds-scale job: a device small enough that a full
// self-consistent run is fast, but with every phase (RGF, SSE, mixing)
// exercised.
func testConfig(seed uint64, maxIter int) core.RunConfig {
	cfg := core.DefaultRunConfig()
	cfg.Device = device.WrapParams(device.Params{
		Nkz: 2, Nqz: 2, NE: 10, Nw: 3,
		NA: 12, NB: 3, Norb: 2, N3D: 3,
		Rows: 2, Bnum: 3,
		Emin: -1, Emax: 1, Seed: seed,
	})
	cfg.MaxIter = maxIter
	return cfg
}

// longConfig is a job that will not finish on its own before a test gets
// to cancel it: the (slower) default device, an unreachable tolerance and
// an iteration budget far past any test timeout.
func longConfig(seed uint64) core.RunConfig {
	cfg := core.DefaultRunConfig()
	g := cfg.Device.Grid()
	g.Seed = seed
	cfg.Device = device.WrapParams(g)
	cfg.MaxIter = 100_000
	cfg.Tol = 1e-300
	return cfg
}

// waitState blocks until the job reaches a terminal state or the deadline
// expires.
func waitState(t *testing.T, j *Job, want JobState, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if st := j.Status().State; st == want {
			return
		} else if st == Succeeded || st == Failed || st == Cancelled {
			t.Fatalf("job %s reached terminal state %q, want %q (err %q)", j.ID(), st, want, j.Status().Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s stuck in state %q, want %q within %v", j.ID(), j.Status().State, want, timeout)
}

// closeSched shuts a test scheduler down with a bounded grace period.
func closeSched(t *testing.T, s *Scheduler) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// obsDiff returns the largest absolute difference across the scalar
// observables and the per-entry vectors of two runs.
func obsDiff(a, b core.Observables) float64 {
	d := 0.0
	acc := func(x, y float64) {
		if v := math.Abs(x - y); v > d {
			d = v
		}
	}
	acc(a.CurrentL, b.CurrentL)
	acc(a.CurrentR, b.CurrentR)
	acc(a.EnergyCurrentL, b.EnergyCurrentL)
	acc(a.EnergyCurrentR, b.EnergyCurrentR)
	acc(a.HeatL, b.HeatL)
	acc(a.HeatR, b.HeatR)
	for i := range a.CurrentPerEnergy {
		acc(a.CurrentPerEnergy[i], b.CurrentPerEnergy[i])
	}
	for i := range a.DissipationPerAtom {
		acc(a.DissipationPerAtom[i], b.DissipationPerAtom[i])
	}
	return d
}

// TestJobMatchesDirectRun pins the service-parity acceptance criterion:
// observables of a job executed by the scheduler match a direct
// Simulator.Run of the same config to 1e-8 (they are in fact the same code
// path, so the diff must be exactly zero).
func TestJobMatchesDirectRun(t *testing.T) {
	s := New(Config{MaxConcurrent: 1})
	defer closeSched(t, s)

	cfg := testConfig(11, 4)
	j, err := s.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, Succeeded, 60*time.Second)
	got, ok := j.Result()
	if !ok {
		t.Fatal("succeeded job has no result")
	}

	opts, err := cfg.Options()
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = s.PerJobWorkers()
	sim, err := cfg.NewSimulatorWith(opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}

	if got.Iterations != want.Iterations || got.Converged != want.Converged {
		t.Fatalf("run shape diverged: service %d/%v, direct %d/%v",
			got.Iterations, got.Converged, want.Iterations, want.Converged)
	}
	if d := obsDiff(got.Obs, want.Obs); d > 1e-8 {
		t.Errorf("observables diverged by %g between service and direct run", d)
	}
	if st := j.Status(); st.Iterations != got.Iterations {
		t.Errorf("streamed %d iteration records, result reports %d", st.Iterations, got.Iterations)
	}
}

// TestConcurrentJobsSharedPool is the multi-tenancy acceptance test: more
// concurrent jobs than the worker budget comfortably fits, all on the
// shared process pool, every result identical to its serial reference.
// Run under -race this also proves the scheduler and the pool are
// data-race free with at least 4 simulations in flight.
func TestConcurrentJobsSharedPool(t *testing.T) {
	const jobs = 6
	// Serial references first, one simulator at a time.
	want := make([]*core.Result, jobs)
	for i := 0; i < jobs; i++ {
		cfg := testConfig(uint64(100+i), 3)
		opts, err := cfg.Options()
		if err != nil {
			t.Fatal(err)
		}
		opts.Workers = 1
		sim, err := cfg.NewSimulatorWith(opts)
		if err != nil {
			t.Fatal(err)
		}
		want[i], err = sim.Run()
		if err != nil {
			t.Fatal(err)
		}
	}

	s := New(Config{MaxConcurrent: 4, QueueDepth: jobs})
	defer closeSched(t, s)
	admitted := make([]*Job, jobs)
	for i := range admitted {
		j, err := s.Submit(testConfig(uint64(100+i), 3))
		if err != nil {
			t.Fatal(err)
		}
		admitted[i] = j
	}
	for i, j := range admitted {
		waitState(t, j, Succeeded, 120*time.Second)
		got, ok := j.Result()
		if !ok {
			t.Fatalf("job %d has no result", i)
		}
		if got.Iterations != want[i].Iterations {
			t.Errorf("job %d: %d iterations, serial reference %d", i, got.Iterations, want[i].Iterations)
		}
		if d := obsDiff(got.Obs, want[i].Obs); d > 1e-8 {
			t.Errorf("job %d: observables diverged by %g from serial reference", i, d)
		}
	}
}

// TestCancelRunningJob pins the cancellation-latency criterion: a cancel
// lands within one Born iteration of a running job, the job reports
// Cancelled (not Failed), and its slot immediately serves the next queued
// job.
func TestCancelRunningJob(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, QueueDepth: 4})
	defer closeSched(t, s)

	victim, err := s.Submit(longConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	next, err := s.Submit(testConfig(8, 2))
	if err != nil {
		t.Fatal(err)
	}

	// Wait for the victim to produce at least one iteration, proving it is
	// genuinely mid-run when the cancel arrives.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, ok := victim.WaitIter(ctx, 0); !ok {
		t.Fatalf("victim produced no iterations (state %q)", victim.Status().State)
	}
	if _, err := s.Cancel(victim.ID()); err != nil {
		t.Fatal(err)
	}
	waitState(t, victim, Cancelled, 60*time.Second)
	if msg := victim.Status().Error; !strings.Contains(msg, "cancel") {
		t.Errorf("cancelled job error %q does not mention cancellation", msg)
	}

	// The freed slot must run the queued job to completion.
	waitState(t, next, Succeeded, 60*time.Second)
}

// TestCancelQueuedJobFreesSlot pins the admission-control interaction: a
// cancel of a queued job frees its queue slot synchronously, so a
// previously-rejected submission is admitted immediately after.
func TestCancelQueuedJobFreesSlot(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, QueueDepth: 1})
	defer closeSched(t, s)

	running, err := s.Submit(longConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, Running, 60*time.Second)

	queued, err := s.Submit(testConfig(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(testConfig(5, 2)); err != ErrQueueFull {
		t.Fatalf("third submit: err = %v, want ErrQueueFull", err)
	}

	if st, err := s.Cancel(queued.ID()); err != nil || st != Cancelled {
		t.Fatalf("cancel queued job: state %q, err %v", st, err)
	}
	admitted, err := s.Submit(testConfig(5, 2))
	if err != nil {
		t.Fatalf("submit after cancelling queued job: %v (slot not freed)", err)
	}

	if _, err := s.Cancel(running.ID()); err != nil {
		t.Fatal(err)
	}
	waitState(t, admitted, Succeeded, 60*time.Second)
}

// TestPerJobMetricsEvicted pins the per-job observability scoping: while a
// job is retained its labelled series are scraped, and eviction removes
// them so a long-lived daemon's registry does not grow without bound.
func TestPerJobMetricsEvicted(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, Retain: 1})
	defer closeSched(t, s)

	first, err := s.Submit(testConfig(21, 2))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, first, Succeeded, 60*time.Second)

	var sb strings.Builder
	obs.WriteMetrics(&sb)
	if !strings.Contains(sb.String(), `job="`+first.ID()+`"`) {
		t.Fatalf("retained job %s has no labelled series in scrape", first.ID())
	}

	second, err := s.Submit(testConfig(22, 2))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, second, Succeeded, 60*time.Second)

	if _, ok := s.Get(first.ID()); ok {
		t.Fatalf("job %s still in store after eviction (Retain=1)", first.ID())
	}
	sb.Reset()
	obs.WriteMetrics(&sb)
	scrape := sb.String()
	if strings.Contains(scrape, `job="`+first.ID()+`"`) {
		t.Errorf("evicted job %s still has labelled series in scrape", first.ID())
	}
	if !strings.Contains(scrape, `job="`+second.ID()+`"`) {
		t.Errorf("retained job %s lost its labelled series", second.ID())
	}
}

// TestCloseCancelsEverything pins graceful shutdown: Close cancels the
// running job, cancels the queued ones, rejects new submissions, and
// returns once the runners have drained.
func TestCloseCancelsEverything(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, QueueDepth: 4})

	running, err := s.Submit(longConfig(31))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, Running, 60*time.Second)
	queued, err := s.Submit(testConfig(32, 2))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if st := running.Status().State; st != Cancelled {
		t.Errorf("running job state after Close = %q, want cancelled", st)
	}
	if st := queued.Status().State; st != Cancelled {
		t.Errorf("queued job state after Close = %q, want cancelled", st)
	}
	if _, err := s.Submit(testConfig(33, 2)); err != ErrClosed {
		t.Errorf("submit after Close: err = %v, want ErrClosed", err)
	}
	if err := s.Close(context.Background()); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestWaitIterReplaysFromAnyIndex pins the streaming contract: every
// consumer replays the full iteration log regardless of when it attaches,
// and WaitIter reports completion (not a hang) past the end of a finished
// job.
func TestWaitIterReplaysFromAnyIndex(t *testing.T) {
	s := New(Config{MaxConcurrent: 1})
	defer closeSched(t, s)

	j, err := s.Submit(testConfig(41, 3))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, Succeeded, 60*time.Second)
	n := j.Status().Iterations
	if n == 0 {
		t.Fatal("job recorded no iterations")
	}
	ctx := context.Background()
	for i := 0; i < n; i++ {
		rec, ok := j.WaitIter(ctx, i)
		if !ok {
			t.Fatalf("WaitIter(%d) = done, want record", i)
		}
		if rec.Iter != i+1 {
			t.Fatalf("record %d has Iter %d, want %d", i, rec.Iter, i+1)
		}
	}
	if _, ok := j.WaitIter(ctx, n); ok {
		t.Errorf("WaitIter past the end of a finished job returned a record")
	}
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if _, ok := j.WaitIter(expired, n+1); ok {
		t.Errorf("WaitIter with cancelled context returned a record")
	}
}

// TestDivergedJobFailsWithErrDiverged seeds a job with a NaN-poisoned
// checkpoint: the Born loop's typed terminal error must surface as the
// Failed state with its message, and as core.ErrDiverged to errors.Is.
func TestDivergedJobFailsWithErrDiverged(t *testing.T) {
	s := New(Config{MaxConcurrent: 1})
	defer closeSched(t, s)
	cfg := testConfig(5, 3)
	cold, err := s.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, cold, Succeeded, 30*time.Second)
	res, _ := cold.Result()
	ck := core.CheckpointOf(cfg.Device, res)
	ck.SigmaLess.Data[0] = complex(math.NaN(), 0)

	j, err := s.SubmitFrom(cfg, ck)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, Failed, 30*time.Second)
	if msg := j.Status().Error; !strings.Contains(msg, core.ErrDiverged.Error()) {
		t.Errorf("failed job error %q does not carry %q", msg, core.ErrDiverged)
	}
	if _, err := s.runConfigured(context.Background(), j); !errors.Is(err, core.ErrDiverged) {
		t.Errorf("runConfigured err = %v, want core.ErrDiverged", err)
	}
}
