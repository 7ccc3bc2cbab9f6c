package core

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"negfsim/internal/obs"
)

// cancelAfter returns Options whose OnIteration hook cancels ctx once
// iteration n completes, plus the context to run under.
func cancelAfter(opts Options, n int) (Options, context.Context) {
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	prev := opts.OnIteration
	opts.OnIteration = func(st IterStats) {
		if prev != nil {
			prev(st)
		}
		if st.Iter >= n {
			once.Do(cancel)
		}
	}
	return opts, ctx
}

// TestRunCtxCancelStopsWithinOneIteration pins the serial cancellation
// contract: a cancel fired after iteration n stops the run before
// iteration n+2 begins, and the error unwraps to context.Canceled.
func TestRunCtxCancelStopsWithinOneIteration(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxIter = 50
	opts.Tol = 1e-300
	opts, ctx := cancelAfter(opts, 1)

	res, err := miniSim(t, opts).RunCtx(ctx)
	if err == nil {
		t.Fatalf("cancelled run returned nil error (result: %+v)", res)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not unwrap to context.Canceled", err)
	}
}

// TestRunDistributedFTCtxCancelReleasesRanksAndGauges is the regression
// test for the distributed-cancellation leak: a cancelled run must not
// strand cluster rank goroutines, must not recover (cancellation is
// terminal, never treated as a rank failure), and must unregister its
// per-rank byte gauges so a /metrics scrape stops reporting the dead
// cluster.
func TestRunDistributedFTCtxCancelReleasesRanksAndGauges(t *testing.T) {
	obs.Enable()
	t.Cleanup(obs.Disable)
	opts := DefaultOptions()
	opts.MaxIter = 50
	opts.Tol = 1e-300

	// Warm the persistent worker pool (its goroutines live for the whole
	// process and must not count against the leak budget) and leave the
	// per-rank gauges of a completed run registered, as a daemon would.
	warm := DefaultOptions()
	warm.MaxIter = 1
	if _, _, err := miniSim(t, warm).RunDistributedFTCtx(context.Background(), DistConfig{TE: 2, TA: 2}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	obs.WriteMetrics(&sb)
	if !strings.Contains(sb.String(), `negfsim_comm_sent_bytes{rank="0"}`) {
		t.Fatalf("completed run left no per-rank gauges; scrape:\n%s", sb.String())
	}
	baseline := runtime.NumGoroutine()

	opts, ctx := cancelAfter(opts, 1)
	res, _, err := miniSim(t, opts).RunDistributedFTCtx(ctx, ftConfig())
	if err == nil {
		t.Fatalf("cancelled distributed run returned nil error (result: %+v)", res)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not unwrap to context.Canceled", err)
	}
	if res != nil && res.Recoveries != 0 {
		t.Errorf("cancellation was treated as a recoverable rank failure (%d recoveries)", res.Recoveries)
	}
	if !strings.Contains(err.Error(), "cancelled") {
		t.Errorf("error %q does not describe the cancellation", err)
	}

	// Rank goroutines must drain back to the pre-run count.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now, %d before the cancelled run", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The scrape must no longer carry the dead cluster's per-rank series.
	sb.Reset()
	obs.WriteMetrics(&sb)
	scrape := sb.String()
	for _, family := range []string{"negfsim_comm_sent_bytes{rank=", "negfsim_comm_recvd_bytes{rank=", "negfsim_comm_total_bytes"} {
		if strings.Contains(scrape, family) {
			t.Errorf("cancelled run left %s* registered in the scrape", family)
		}
	}
}

// TestTwoSimulatorsConcurrentSharedPool pins multi-tenancy at the core
// level: two independent simulators running at the same time over the
// process-wide worker pool and cmat workspace arena must produce the same
// results they produce serially (the arena hands each goroutine disjoint
// scratch, so sharing cannot bleed state between tenants), and the arena
// must keep serving pooled buffers while both are active. The Green's
// function tensors are compared exactly — every grid point writes a
// disjoint slot, so scheduling cannot perturb them — while the scalar
// contact currents accumulate in completion order and are held to a
// last-ulp relative tolerance instead. Run under -race this is also the
// core data-race check for concurrent runs.
func TestTwoSimulatorsConcurrentSharedPool(t *testing.T) {
	obs.Enable()
	t.Cleanup(obs.Disable)

	mkOpts := func(variant int) Options {
		opts := DefaultOptions()
		opts.MaxIter = 3
		opts.Workers = 2
		if variant == 1 {
			opts.Mixing = 0.7
		}
		return opts
	}
	serial := make([]*Result, 2)
	for i := range serial {
		res, err := miniSim(t, mkOpts(i)).RunCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = res
	}

	hitsBefore := obs.GetCounter("cmat.pool.hit").Value()
	concurrent := make([]*Result, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			concurrent[i], errs[i] = miniSim(t, mkOpts(i)).RunCtx(context.Background())
		}(i)
	}
	wg.Wait()
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatalf("concurrent run %d: %v", i, errs[i])
		}
		if d := serial[i].GLess.MaxAbsDiff(concurrent[i].GLess); d != 0 {
			t.Errorf("run %d: concurrent G^< differs from serial by %g, want exact equality", i, d)
		}
		if rel := math.Abs(serial[i].Obs.CurrentL-concurrent[i].Obs.CurrentL) /
			(1 + math.Abs(serial[i].Obs.CurrentL)); rel > 1e-12 {
			t.Errorf("run %d: concurrent CurrentL %g differs from serial %g (rel %g)",
				i, concurrent[i].Obs.CurrentL, serial[i].Obs.CurrentL, rel)
		}
	}
	if d := obs.GetCounter("cmat.pool.hit").Value() - hitsBefore; d == 0 {
		t.Error("workspace arena served no pooled buffers during the concurrent runs")
	}
}
