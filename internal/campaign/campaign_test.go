package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"negfsim/internal/core"
	"negfsim/internal/device"
	"negfsim/internal/obs"
	"negfsim/internal/serve"
)

func init() { obs.Enable() }

// cntConfig is the campaign test workload: a small semiconducting
// carbon-nanotube device in the bias-sweep regime warm starts target —
// Anderson mixing at a tight tolerance, where the converged Σ of the
// previous bias point is a measurably better Born seed than zero.
func cntConfig(maxIter int) core.RunConfig {
	cfg := core.DefaultRunConfig()
	cfg.Device = device.WrapSpec(device.CNT{
		N: 7, M: 0, Cols: 6, Subbands: 2,
		NE: 10, Nw: 3, NB: 3, Bnum: 3, Nkz: 1,
	})
	cfg.MaxIter = maxIter
	cfg.Mixer = "anderson"
	cfg.Mixing = 0.8
	cfg.Tol = 1e-9
	return cfg
}

// ivRequest is the canonical 5-point I–V ladder over the CNT device.
func ivRequest() Request {
	return Request{
		Kind:       IV,
		Config:     cntConfig(40),
		BiasStart:  0.30,
		BiasStop:   0.50,
		BiasPoints: 5,
	}
}

// scheduledManager hosts a manager with maxParallel chains on an
// in-process scheduler with one slot per chain — the qtsim -campaign
// offline mode's host. Cleanup drains both.
func scheduledManager(t *testing.T, maxParallel int) *Manager {
	t.Helper()
	sched := serve.New(serve.Config{MaxConcurrent: maxParallel, QueueDepth: 16})
	m := NewManager(ServeBackend{S: sched}, maxParallel)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = m.Close(ctx)
		_ = sched.Close(ctx)
	})
	return m
}

// directRuns executes every ladder point of req as an independent cold
// in-process run — the point-by-point baseline campaigns are compared
// against.
func directRuns(t *testing.T, req Request) []*core.Result {
	t.Helper()
	out := make([]*core.Result, 0, len(req.Ladder()))
	for _, bias := range req.Ladder() {
		cfg := req.pointConfig(bias)
		sim, err := cfg.NewSimulator()
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.RunCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("direct run at bias %g did not converge in %d iterations", bias, res.Iterations)
		}
		out = append(out, res)
	}
	return out
}

// relDiff is the acceptance metric: |a−b| ≤ tol·max(1, |a|, |b|).
func relDiff(a, b float64) float64 {
	return math.Abs(a-b) / math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// chainHead reports whether point i of an n-point ladder heads one of the
// min(maxParallel, n) chains a manager runs it as — a point that starts
// cold even under warm start.
func chainHead(i, n, maxParallel int) bool {
	k := min(maxParallel, n)
	for s := 0; s < k; s++ {
		if s*n/k == i {
			return true
		}
	}
	return false
}

func TestRequestValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Request)
		frag string // "" means valid
	}{
		{"valid ranged", func(r *Request) {}, ""},
		{"valid explicit", func(r *Request) {
			r.BiasStart, r.BiasStop, r.BiasPoints = 0, 0, 0
			r.Biases = []float64{0.1, 0.2}
		}, ""},
		{"te without ladder", func(r *Request) {
			r.Kind = TE
			r.BiasStart, r.BiasStop, r.BiasPoints = 0, 0, 0
		}, ""},
		{"bad kind", func(r *Request) { r.Kind = "sweep" }, "kind"},
		{"iv without ladder", func(r *Request) {
			r.BiasStart, r.BiasStop, r.BiasPoints = 0, 0, 0
		}, "iv needs a ladder"},
		{"both spellings", func(r *Request) { r.Biases = []float64{0.1} }, "mutually exclusive"},
		{"one point", func(r *Request) { r.BiasPoints = 1 }, "bias_points"},
		{"degenerate range", func(r *Request) { r.BiasStop = r.BiasStart }, "bias_stop"},
		{"dist rejected", func(r *Request) { r.Config.Dist = "2x2" }, "plain serial"},
		{"space rejected", func(r *Request) { r.Config.Space = 2 }, "plain serial"},
		{"gate rejected", func(r *Request) {
			r.Config.Gate = &core.GateSpec{MaxOuter: 3, Damping: 0.5}
		}, "plain serial"},
		{"config validated", func(r *Request) { r.Config.MaxIter = 0 }, "campaign: config:"},
		// The ladder cap is checked before any ladder is expanded, so
		// these never allocate what they ask for.
		{"ladder at the cap", func(r *Request) { r.BiasPoints = MaxLadder }, ""},
		{"ladder over the cap", func(r *Request) { r.BiasPoints = MaxLadder + 1 }, "bias_points"},
		{"huge ladder", func(r *Request) { r.BiasPoints = 1 << 40 }, "bias_points"},
		{"explicit ladder over the cap", func(r *Request) {
			r.BiasStart, r.BiasStop, r.BiasPoints = 0, 0, 0
			r.Biases = make([]float64, MaxLadder+1)
		}, "biases"},
		{"overflowing range", func(r *Request) { r.BiasStart, r.BiasStop = -1e308, 1e308 }, "bias_stop"},
		{"range finer than float64", func(r *Request) {
			r.BiasStart, r.BiasStop, r.BiasPoints = 1, 1+1e-15, MaxLadder
		}, "bias_stop"},
	}
	for _, c := range cases {
		req := ivRequest()
		c.mut(&req)
		err := req.Validate()
		if c.frag == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: validated", c.name)
		} else if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.frag)
		}
	}
}

// FuzzCampaignRequest feeds arbitrary bodies through the submit path's
// strict decoder, Validate and Ladder: nothing may panic, and an accepted
// request has 1 to MaxLadder points, strictly monotone when ranged.
func FuzzCampaignRequest(f *testing.F) {
	example, err := os.ReadFile("../../examples/campaign.json")
	if err != nil {
		f.Fatal(err)
	}
	iv, err := json.Marshal(ivRequest())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(example)
	f.Add(iv)
	f.Add([]byte(`{"kind":"te","config":{"version":2,"device":{"kind":"chain"}},"biases":[0.1,-0.2]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := DecodeRequest(bytes.NewReader(body))
		if err != nil || req.Validate() != nil {
			return
		}
		l := req.Ladder()
		if len(l) < 1 || len(l) > MaxLadder {
			t.Fatalf("accepted request expands to %d ladder points", len(l))
		}
		if req.BiasPoints == 0 {
			return
		}
		up := l[1] > l[0]
		for i := 1; i < len(l); i++ {
			if (up && !(l[i] > l[i-1])) || (!up && !(l[i] < l[i-1])) || math.IsInf(l[i], 0) {
				t.Fatalf("accepted ranged ladder not strictly monotone at point %d: %v", i, l)
			}
		}
	})
}

func TestRequestLadder(t *testing.T) {
	req := ivRequest()
	ladder := req.Ladder()
	want := []float64{0.30, 0.35, 0.40, 0.45, 0.50}
	if len(ladder) != len(want) {
		t.Fatalf("ladder has %d points, want %d", len(ladder), len(want))
	}
	for i := range want {
		if math.Abs(ladder[i]-want[i]) > 1e-15 {
			t.Fatalf("ladder[%d] = %g, want %g", i, ladder[i], want[i])
		}
	}

	req.BiasStart, req.BiasStop, req.BiasPoints = 0, 0, 0
	req.Biases = []float64{-0.1, 0.2}
	explicit := req.Ladder()
	explicit[0] = 99 // the expansion must be a copy
	if req.Biases[0] != -0.1 {
		t.Fatal("Ladder aliases the request's Biases slice")
	}

	te := Request{Kind: TE, Config: cntConfig(40)}
	te.Config.Bias = 0.37
	if l := te.Ladder(); len(l) != 1 || l[0] != 0.37 {
		t.Fatalf("te default ladder = %v, want the config bias alone", l)
	}
}

// TestWarmLadderLocal is the offline acceptance path, hosted on an
// in-process scheduler as qtsim -campaign hosts it: a warm-chained I–V
// campaign over the CNT device matches point-by-point direct runs to
// 1e-8, every chain head starts cold and every later point of a chain
// starts warm, and no warm point needs more Born iterations than cold.
func TestWarmLadderLocal(t *testing.T) {
	req := ivRequest()
	direct := directRuns(t, req)

	m := scheduledManager(t, 4)
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

	st := c.Status()
	if len(st.Points) != 5 {
		t.Fatalf("campaign has %d points, want 5", len(st.Points))
	}
	warmSaved := 0
	for i, p := range st.Points {
		if p.State != PointDone || !p.Converged {
			t.Fatalf("point %d state %s converged=%t", i, p.State, p.Converged)
		}
		seeded := !chainHead(i, len(st.Points), m.maxParallel)
		if got := p.WarmStarted; got != seeded {
			t.Fatalf("point %d warm_started = %t, want %t", i, got, seeded)
		}
		if d := relDiff(p.CurrentL, direct[i].Obs.CurrentL); d > 1e-8 {
			t.Errorf("point %d current_l differs from direct run by %g", i, d)
		}
		if d := relDiff(p.CurrentR, direct[i].Obs.CurrentR); d > 1e-8 {
			t.Errorf("point %d current_r differs from direct run by %g", i, d)
		}
		if seeded && p.Iterations < direct[i].Iterations {
			warmSaved++
		}
		if seeded && p.Iterations > direct[i].Iterations {
			t.Errorf("warm point %d took %d iterations, cold direct run took %d — warm start hurt",
				i, p.Iterations, direct[i].Iterations)
		}
	}
	if warmSaved == 0 {
		t.Error("no warm point converged in fewer iterations than its cold direct run")
	}
	t.Logf("cold iterations per point: %v", []int{direct[0].Iterations, direct[1].Iterations,
		direct[2].Iterations, direct[3].Iterations, direct[4].Iterations})
	t.Logf("warm iterations per point: %v", []int{st.Points[0].Iterations, st.Points[1].Iterations,
		st.Points[2].Iterations, st.Points[3].Iterations, st.Points[4].Iterations})

	// The artifact reproduces the same numbers, in both renderings.
	doc, err := c.Artifact()
	if err != nil {
		t.Fatal(err)
	}
	if doc.Kind != IV || len(doc.IV) != 5 || len(doc.TE) != 0 {
		t.Fatalf("artifact shape: kind %s, %d iv rows, %d te rows", doc.Kind, len(doc.IV), len(doc.TE))
	}
	for i, row := range doc.IV {
		if d := relDiff(row.CurrentL, direct[i].Obs.CurrentL); d > 1e-8 {
			t.Errorf("artifact row %d current_l differs from direct run by %g", i, d)
		}
	}

	csv, err := c.CSV()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(csv)), "\n")
	if lines[0] != "bias,current_l,current_r,iterations,converged,warm_started" {
		t.Fatalf("csv header %q", lines[0])
	}
	if len(lines) != 6 {
		t.Fatalf("csv has %d lines, want header + 5 rows", len(lines))
	}
	for i, line := range lines[1:] {
		fields := strings.Split(line, ",")
		if len(fields) != 6 {
			t.Fatalf("csv row %d has %d fields", i, len(fields))
		}
		// %.17g round-trips float64 exactly: the CSV must carry the very
		// bits the artifact document holds.
		cl, err := strconv.ParseFloat(fields[1], 64)
		if err != nil || cl != doc.IV[i].CurrentL {
			t.Fatalf("csv row %d current_l %q does not round-trip to %g", i, fields[1], doc.IV[i].CurrentL)
		}
	}
}

// TestTESpectrumArtifact: a TE campaign without a ladder is one spectrum
// at the config's own bias, with the effective transmission derived from
// the spectral current over the Fermi window.
func TestTESpectrumArtifact(t *testing.T) {
	req := Request{Kind: TE, Config: cntConfig(40)}
	req.Config.Bias = 0.4

	sim, err := req.Config.NewSimulator()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	m := scheduledManager(t, 4)
	c, err := m.Start(req)
	if err != nil {
		t.Fatal(err)
	}
	if state, _ := c.Wait(context.Background()); state != StateSucceeded {
		t.Fatalf("campaign finished %s: %s", state, c.Status().Error)
	}
	doc, err := c.Artifact()
	if err != nil {
		t.Fatal(err)
	}
	grid := req.Config.Device.Grid()
	if doc.Kind != TE || len(doc.TE) != grid.NE {
		t.Fatalf("artifact shape: kind %s, %d te rows, want %d", doc.Kind, len(doc.TE), grid.NE)
	}
	for e, row := range doc.TE {
		if row.Bias != 0.4 {
			t.Fatalf("row %d bias %g", e, row.Bias)
		}
		if row.Energy != grid.Energy(e) {
			t.Fatalf("row %d energy %g, want grid point %g", e, row.Energy, grid.Energy(e))
		}
		if d := relDiff(row.Current, res.Obs.CurrentPerEnergy[e]); d > 1e-8 {
			t.Errorf("row %d spectral current differs from direct run by %g", e, d)
		}
		win := fermi(row.Energy, 0.2, req.Config.KT) - fermi(row.Energy, -0.2, req.Config.KT)
		if math.Abs(win) > 1e-12 {
			if want := row.Current / win; row.Transmission != want {
				t.Errorf("row %d transmission %g, want I/window = %g", e, row.Transmission, want)
			}
		} else if row.Transmission != 0 {
			t.Errorf("row %d transmission %g outside the Fermi window, want 0", e, row.Transmission)
		}
	}

	csv, err := c.CSV()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(csv)), "\n")
	if lines[0] != "bias,energy,current,transmission" {
		t.Fatalf("csv header %q", lines[0])
	}
	if len(lines) != grid.NE+1 {
		t.Fatalf("csv has %d lines, want header + %d rows", len(lines), grid.NE)
	}
}

// TestColdFanout: warm_start=false runs every point from zero; nothing is
// chained, so no point may claim a warm start, and results still match
// the direct baselines.
func TestColdFanout(t *testing.T) {
	req := ivRequest()
	f := false
	req.WarmStart = &f
	req.BiasPoints = 3
	direct := directRuns(t, req)

	m := scheduledManager(t, 2)
	c, err := m.Start(req)
	if err != nil {
		t.Fatal(err)
	}
	if state, _ := c.Wait(context.Background()); state != StateSucceeded {
		t.Fatalf("campaign finished %s: %s", state, c.Status().Error)
	}
	for i, p := range c.Status().Points {
		if p.WarmStarted {
			t.Errorf("cold point %d claims a warm start", i)
		}
		if p.Iterations != direct[i].Iterations {
			t.Errorf("cold point %d took %d iterations, direct run %d", i, p.Iterations, direct[i].Iterations)
		}
		if d := relDiff(p.CurrentL, direct[i].Obs.CurrentL); d > 1e-8 {
			t.Errorf("cold point %d current_l differs from direct run by %g", i, d)
		}
	}
}

// TestCancelAndClose: cancelling a running campaign stops the active
// point and never starts the pending tail; a closed manager rejects new
// campaigns.
func TestCancelAndClose(t *testing.T) {
	req := ivRequest()
	req.Config.MaxIter = 100_000
	req.Config.Tol = 1e-300 // unreachable: runs until cancelled

	m := scheduledManager(t, 4)
	c, err := m.Start(req)
	if err != nil {
		t.Fatal(err)
	}
	// Let the first point actually start before cancelling.
	deadline := time.Now().Add(30 * time.Second)
	for c.Status().Points[0].State == PointPending {
		if time.Now().After(deadline) {
			t.Fatal("first point never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := m.Cancel(c.ID()); err != nil {
		t.Fatal(err)
	}
	state, err := c.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if state != StateCancelled {
		t.Fatalf("cancelled campaign finished %s", state)
	}
	for i, p := range c.Status().Points {
		if p.State != PointCancelled {
			t.Errorf("point %d state %s after cancel", i, p.State)
		}
	}
	if _, err := c.Artifact(); err == nil {
		t.Error("cancelled campaign served an artifact")
	}

	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Start(ivRequest()); err != ErrClosed {
		t.Fatalf("Start after Close = %v, want ErrClosed", err)
	}
}

// stubBackend answers every point at once with a checkpoint-carrying
// outcome and records which points arrived with a seed.
type stubBackend struct{ seeded chan bool }

func (b stubBackend) RunPoint(ctx context.Context, cfg core.RunConfig, prev *PointOutcome, onIter func(n int)) (*PointOutcome, error) {
	b.seeded <- prev != nil
	return &PointOutcome{
		Iterations:  1,
		Converged:   true,
		Obs:         core.Observables{CurrentL: cfg.Bias},
		Checkpoint:  &core.Checkpoint{},
		WarmStarted: prev != nil,
	}, nil
}

// TestCampaignRetention: finished campaigns live in the same retention ring
// as jobs — past retain of them the oldest answers 404 — and a finished
// campaign has dropped its points' checkpoints; each point was seeded
// exactly when it does not head a chain.
func TestCampaignRetention(t *testing.T) {
	b := stubBackend{seeded: make(chan bool, 1024)}
	m := NewManager(b, 0)
	srv := httptest.NewServer(NewAPI(m).Handler())
	defer srv.Close()

	req := ivRequest()
	req.BiasPoints = 2
	var last *Campaign
	for i := 0; i < retain+1; i++ {
		c, err := m.Start(req)
		if err != nil {
			t.Fatal(err)
		}
		if state, _ := c.Wait(context.Background()); state != StateSucceeded {
			t.Fatalf("campaign %s finished %s", c.ID(), state)
		}
		last = c
	}
	// Retirement follows the terminal transition Wait returns on; Close
	// waits for the campaign goroutines, so the ring is settled after it.
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	// At the default maxParallel both points of the first ladder head a
	// chain, so their (unordered) arrivals must both be cold.
	for i := 0; i < req.BiasPoints; i++ {
		if got, want := <-b.seeded, !chainHead(i, req.BiasPoints, m.maxParallel); got != want {
			t.Errorf("ladder point arrived seeded=%t, want %t", got, want)
		}
	}

	get := func(id string) int {
		resp, err := http.Get(srv.URL + "/v1/campaigns/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("c1"); code != http.StatusNotFound {
		t.Errorf("oldest campaign past retention: HTTP %d, want 404", code)
	}
	if code := get("c2"); code != http.StatusOK {
		t.Errorf("retained campaign: HTTP %d, want 200", code)
	}
	if n := len(m.store.List()); n != retain {
		t.Errorf("manager lists %d campaigns, want %d", n, retain)
	}
	last.Lock()
	defer last.Unlock()
	for i, out := range last.outcomes {
		if out == nil || out.Checkpoint != nil {
			t.Errorf("point %d of a finished campaign: outcome %+v, want one without a checkpoint", i, out)
		}
	}
}
