package serve

import (
	"context"
	"strings"
	"testing"
	"time"

	"negfsim/internal/core"
	"negfsim/internal/egrid"
	"negfsim/internal/jobs"
)

// An adaptive job through the scheduler: the dispatch runs the
// refinement loop and the result carries the grid state and report.
func TestAdaptiveJobDispatch(t *testing.T) {
	s := New(Config{MaxConcurrent: 1})
	defer s.Close(context.Background())
	cfg := testConfig(7, 6)
	cfg.Adapt = &core.AdaptSpec{Mode: "grid+sigma", TolCurrent: 1e-6}
	j, err := s.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, jobs.Succeeded, 60*time.Second)
	res, ok := j.Result()
	if !ok {
		t.Fatalf("no result: %+v", j.Status())
	}
	if res.Adapt == nil || res.EGrid == nil {
		t.Fatal("adaptive job result missing Adapt report / EGrid state")
	}
	if res.Adapt.Rounds < 1 || res.Adapt.PointsActive < 2 {
		t.Fatalf("implausible adapt report: %+v", res.Adapt)
	}
}

// The warm-start grid gate: a partial-grid checkpoint (converged with
// interpolation-filled gaps) can only seed a run that itself adapts.
func TestSubmitFromRejectsPartialGridForUniformRun(t *testing.T) {
	s := New(Config{MaxConcurrent: 1})
	defer s.Close(context.Background())
	cfg := testConfig(7, 6)
	adaptive := cfg
	adaptive.Adapt = &core.AdaptSpec{Mode: "grid+sigma", TolCurrent: 1e-6}
	j, err := s.Submit(adaptive)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, jobs.Succeeded, 60*time.Second)
	res, _ := j.Result()
	if res == nil || res.EGrid == nil {
		t.Fatal("adaptive job produced no grid state")
	}
	ck := core.CheckpointOf(cfg.Device, res)
	if ck.EGrid.IsFull() {
		t.Skip("grid resolved to full on this device; the gate has nothing to reject")
	}

	if _, err := s.SubmitFrom(cfg, ck); err == nil {
		t.Fatal("partial-grid checkpoint seeded a uniform run")
	} else if !strings.Contains(err.Error(), "energy points active") {
		t.Fatalf("unexpected gate error: %v", err)
	}
	// The same checkpoint is a legal seed for an adaptive run…
	j2, err := s.SubmitFrom(adaptive, ck)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j2, jobs.Succeeded, 60*time.Second)
	// …and a full-grid state passes the uniform gate.
	full := *ck
	full.EGrid = egrid.Uniform(cfg.Device.Grid().NE, cfg.Device.Grid().Emin, cfg.Device.Grid().Emax).State()
	if _, err := s.SubmitFrom(cfg, &full); err != nil {
		t.Fatalf("full-grid state rejected: %v", err)
	}
}
