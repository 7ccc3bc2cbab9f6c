package campaign

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"negfsim/internal/front"
	"negfsim/internal/serve"
)

// newFrontManager hosts a manager with maxParallel chains on a front over
// one in-process worker; retain is the front's job retention (0: the
// default). Cleanup drains everything.
func newFrontManager(t *testing.T, maxParallel, retain int) (*Manager, *front.Front) {
	t.Helper()
	sched := serve.New(serve.Config{MaxConcurrent: 2, QueueDepth: 16})
	worker := httptest.NewServer(serve.NewAPI(sched))
	f := front.New(front.Config{
		Workers:        []string{worker.URL},
		HealthInterval: 50 * time.Millisecond,
		HealthTimeout:  200 * time.Millisecond,
		Retain:         retain,
	})
	m := NewManager(FrontBackend{F: f, Tenant: "campaign"}, maxParallel)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = m.Close(ctx)
		_ = f.Close(ctx)
		worker.Close()
		_ = sched.Close(ctx)
	})
	return m, f
}

// runLadder runs req on m to success and returns its final status.
func runLadder(t *testing.T, m *Manager, req Request) StatusDoc {
	t.Helper()
	c, err := m.Start(req)
	if err != nil {
		t.Fatal(err)
	}
	if state, _ := c.Wait(context.Background()); state != StateSucceeded {
		t.Fatalf("campaign finished %s: %s", state, c.Status().Error)
	}
	return c.Status()
}

// TestCampaignFrontBackend runs a warm ladder through the sharded front
// tier, whose cache already holds a member of the ladder's family nearer
// to some points than their chain predecessors. Each non-head point must
// still be seeded from its own predecessor — the front job's
// warm_start_bias is the predecessor's bias — and every head must start
// cold: the family cache never picks a campaign point's seed.
func TestCampaignFrontBackend(t *testing.T) {
	m, f := newFrontManager(t, 2, 0)
	req := ivRequest() // biases 0.30 … 0.50, chains [0, 2) and [2, 5)
	direct := directRuns(t, req)

	decoy := req.pointConfig(0.41)
	st, err := f.Submit("decoy", decoy)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i := 0; ; i++ {
		if _, ok := f.WaitIter(ctx, st.ID, i); !ok {
			break
		}
	}
	if _, _, err := f.Result(st.ID); err != nil {
		t.Fatalf("decoy run: %v", err)
	}

	points := runLadder(t, m, req).Points
	for i, p := range points {
		if p.State != PointDone || !p.Converged {
			t.Fatalf("point %d state %s converged=%t: %s", i, p.State, p.Converged, p.Error)
		}
		seeded := !chainHead(i, len(points), m.maxParallel)
		if got := p.WarmStarted; got != seeded {
			t.Fatalf("point %d warm_started = %t, want %t", i, got, seeded)
		}
		job, ok := f.Get(p.JobID)
		if !ok {
			t.Fatalf("point %d: front job %q not retained", i, p.JobID)
		}
		switch {
		case !seeded && job.WarmStartBias != nil:
			t.Errorf("chain head %d seeded from bias %g", i, *job.WarmStartBias)
		case seeded && (job.WarmStartBias == nil || *job.WarmStartBias != points[i-1].Bias):
			t.Errorf("point %d seeded from %v, want its predecessor's bias %g", i, job.WarmStartBias, points[i-1].Bias)
		}
		if seeded && p.Iterations > direct[i].Iterations {
			t.Errorf("warm point %d took %d iterations, cold direct run took %d",
				i, p.Iterations, direct[i].Iterations)
		}
		if d := relDiff(p.CurrentL, direct[i].Obs.CurrentL); d > 1e-8 {
			t.Errorf("point %d current_l differs from direct run by %g", i, d)
		}
	}
}

// TestColdLadderFrontBackend: "warm_start": false through the front runs
// every point cold, as on a scheduler — no point reports a warm start and
// each takes its cold direct run's iteration count, although the chains'
// finished points populate the family cache as the ladder runs.
func TestColdLadderFrontBackend(t *testing.T) {
	m, _ := newFrontManager(t, 2, 0)
	req := ivRequest()
	cold := false
	req.WarmStart = &cold
	direct := directRuns(t, req)

	for i, p := range runLadder(t, m, req).Points {
		if p.WarmStarted {
			t.Errorf("cold point %d reports warm_started", i)
		}
		if p.Iterations != direct[i].Iterations {
			t.Errorf("cold point %d took %d iterations, cold direct run %d", i, p.Iterations, direct[i].Iterations)
		}
		if d := relDiff(p.CurrentL, direct[i].Obs.CurrentL); d > 1e-8 {
			t.Errorf("cold point %d current_l differs from direct run by %g", i, d)
		}
	}
}

// TestFrontBackendPredecessorGone: a point whose predecessor's front job
// has left the front's retention ring runs cold and reports it, even
// though the predecessor's run is still in the family cache.
func TestFrontBackendPredecessorGone(t *testing.T) {
	_, f := newFrontManager(t, 1, 1)
	b := FrontBackend{F: f, Tenant: "campaign"}
	req := ivRequest()
	ctx := context.Background()

	prev, err := b.RunPoint(ctx, req.pointConfig(0.30), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A second finished job pushes the first out of a one-job ring once
	// its run settles.
	if _, err := b.RunPoint(ctx, req.pointConfig(0.50), nil, nil); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, ok := f.Get(prev.JobID); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("front job %s still retained", prev.JobID)
		}
	}

	cfg := req.pointConfig(0.35)
	out, err := b.RunPoint(ctx, cfg, prev, nil)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := cfg.NewSimulator()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sim.RunCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if out.WarmStarted {
		t.Error("point with an evicted predecessor reports warm_started")
	}
	if out.Iterations != direct.Iterations {
		t.Errorf("point took %d iterations, cold direct run %d", out.Iterations, direct.Iterations)
	}
}
