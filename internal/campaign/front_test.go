package campaign

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"negfsim/internal/front"
	"negfsim/internal/serve"
)

// TestCampaignFrontBackend runs a warm ladder through the sharded front
// tier. The campaign never ships checkpoints here — the front's
// content-addressed family cache seeds each chained point from the
// nearest finished bias, its predecessor, on its own, while the chain
// heads, submitted together, find the family empty; the campaign reads
// the warm-start flag back from the front's report.
func TestCampaignFrontBackend(t *testing.T) {
	sched := serve.New(serve.Config{MaxConcurrent: 2, QueueDepth: 16})
	worker := httptest.NewServer(serve.NewAPI(sched))
	f := front.New(front.Config{
		Workers:        []string{worker.URL},
		HealthInterval: 50 * time.Millisecond,
		HealthTimeout:  200 * time.Millisecond,
	})
	m := NewManager(FrontBackend{F: f, Tenant: "campaign"}, 2)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = m.Close(ctx)
		_ = f.Close(ctx)
		worker.Close()
		_ = sched.Close(ctx)
	}()

	req := ivRequest()
	req.BiasPoints = 3
	direct := directRuns(t, req)

	c, err := m.Start(req)
	if err != nil {
		t.Fatal(err)
	}
	state, err := c.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if state != StateSucceeded {
		t.Fatalf("campaign finished %s: %s", state, c.Status().Error)
	}
	for i, p := range c.Status().Points {
		if p.State != PointDone || !p.Converged {
			t.Fatalf("point %d state %s converged=%t: %s", i, p.State, p.Converged, p.Error)
		}
		seeded := !chainHead(i, req.BiasPoints, m.maxParallel)
		if got := p.WarmStarted; got != seeded {
			t.Fatalf("point %d warm_started = %t, want %t (front family cache)", i, got, seeded)
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
