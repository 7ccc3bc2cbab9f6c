package front

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"negfsim/internal/core"
	"negfsim/internal/device"
	"negfsim/internal/jobs"
	"negfsim/internal/obs"
	"negfsim/internal/serve"
)

func init() { obs.Enable() }

// testConfig is the same seconds-scale device the serve tests use: small
// enough for fast self-consistent runs, every phase exercised.
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

// newWorker starts an in-process qtsimd worker (scheduler + HTTP API) and
// returns its base URL. Cleanup tears both down.
func newWorker(t *testing.T, cfg serve.Config) *httptest.Server {
	t.Helper()
	if cfg.MaxConcurrent == 0 {
		cfg.MaxConcurrent = 2
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 16
	}
	sched := serve.New(cfg)
	srv := httptest.NewServer(serve.NewAPI(sched))
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = sched.Close(ctx)
	})
	return srv
}

// newFront builds a Front over the given worker URLs with test-friendly
// health cadence. Cleanup closes it.
func newFront(t *testing.T, cfg Config) *Front {
	t.Helper()
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = 50 * time.Millisecond
	}
	if cfg.HealthTimeout == 0 {
		cfg.HealthTimeout = 200 * time.Millisecond
	}
	f := New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = f.Close(ctx)
	})
	return f
}

// waitFrontState polls until the front job reaches want or the deadline.
func waitFrontState(t *testing.T, f *Front, id string, want RunState, timeout time.Duration) *jobs.Status {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		st, ok := f.Get(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if st.State == want {
			return st
		}
		if st.State != RunRunning {
			t.Fatalf("job %s reached state %q (err %q), want %q", id, st.State, st.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	st, _ := f.Get(id)
	t.Fatalf("job %s stuck in state %q, want %q within %v", id, st.State, want, timeout)
	return nil
}

// obsDiff is the largest absolute difference across two observable sets.
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

// TestKeyCanonicalization: spelling variations of the same physics — omitted
// defaults, enum case, execution-only knobs — hash to one content address;
// physics changes split it.
func TestKeyCanonicalization(t *testing.T) {
	base := testConfig(7, 6)
	k0, err := KeyOf(base)
	if err != nil {
		t.Fatal(err)
	}

	// Default-fill: explicit defaults vs omitted ones.
	filled := base
	filled.Variant = "DaCe" // case folds
	filled.Mixer = "linear" // explicit default
	filled.Version = core.RunConfigVersion
	if k, _ := KeyOf(filled); k.ID != k0.ID {
		t.Errorf("explicit defaults changed the key: %s vs %s", k.ID, k0.ID)
	}

	// Execution knobs: worker count and comm timeout don't change the physics.
	exec := base
	exec.Workers = 4
	if k, _ := KeyOf(exec); k.ID != k0.ID {
		t.Errorf("workers changed the key")
	}

	// JSON field order: decode a reordered document, same key.
	reordered := []byte(`{"tol":1e-4,"bias":0.4,"kt":0.025,"mixing":0.5,"max_iter":6,"variant":"dace",` +
		`"device":{"nkz":2,"nqz":2,"ne":10,"nw":3,"na":12,"nb":4,"norb":2,"n3d":3,"rows":2,"bnum":3,"emin":-1,"emax":1,"seed":7}}`)
	// Use the test device's NB.
	reordered = bytes.Replace(reordered, []byte(`"nb":4`), []byte(`"nb":3`), 1)
	parsed, err := core.ParseRunConfig(reordered)
	if err != nil {
		t.Fatal(err)
	}
	if k, _ := KeyOf(*parsed); k.ID != k0.ID {
		t.Errorf("JSON field order changed the key")
	}

	// Bias splits the ID but not the family (warm-start group).
	biased := base
	biased.Bias = 0.44
	kb, _ := KeyOf(biased)
	if kb.ID == k0.ID {
		t.Errorf("bias change did not change the key")
	}
	if kb.Family != k0.Family {
		t.Errorf("bias change changed the family: %s vs %s", kb.Family, k0.Family)
	}

	// A different device splits the family too.
	dev := base
	dg := dev.Device.Grid()
	dg.Seed = 8
	dev.Device = device.WrapParams(dg)
	kd, _ := KeyOf(dev)
	if kd.ID == k0.ID || kd.Family == k0.Family {
		t.Errorf("device change did not split key and family")
	}

	// Solver-setting changes split the family as well: a checkpoint from a
	// different mixer trajectory is not a warm-start candidate.
	mix := base
	mix.Mixer = "anderson"
	km, _ := KeyOf(mix)
	if km.Family == k0.Family {
		t.Errorf("mixer change kept the family")
	}
}

// TestQuota: the token bucket rejects over-rate tenants with a positive
// retry hint, refills with time, and isolates tenants from each other.
func TestQuota(t *testing.T) {
	q := newQuotas(1, 2) // 1/s, burst 2
	now := time.Now()
	for i := 0; i < 2; i++ {
		if ok, _ := q.take("a", now); !ok {
			t.Fatalf("take %d rejected within burst", i)
		}
	}
	ok, retry := q.take("a", now)
	if ok {
		t.Fatal("third take within burst admitted")
	}
	if retry <= 0 || retry > time.Second+time.Millisecond {
		t.Fatalf("retry hint %v outside (0, 1s]", retry)
	}
	if ok, _ := q.take("b", now); !ok {
		t.Fatal("tenant b blocked by tenant a's bucket")
	}
	if ok, _ := q.take("a", now.Add(1100*time.Millisecond)); !ok {
		t.Fatal("bucket did not refill after a second")
	}
	// Disabled quotas admit everything.
	open := newQuotas(0, 1)
	for i := 0; i < 100; i++ {
		if ok, _ := open.take("a", now); !ok {
			t.Fatal("disabled quota rejected")
		}
	}
}

// TestQuotaBucketEviction: tenant churn must not grow the bucket map
// without bound — a bucket idle for a full refill period is indistinguishable
// from a fresh one and gets dropped, while active tenants keep their spent
// state across sweeps.
func TestQuotaBucketEviction(t *testing.T) {
	q := newQuotas(1, 2) // 1/s, burst 2 → refill period 2s
	now := time.Now()

	// Churn: a stream of one-shot tenants, each seen once, the clock
	// advancing past the refill period every batch. The map must stay
	// bounded by a batch, not accumulate all 10·100 tenants.
	for batch := 0; batch < 10; batch++ {
		for i := 0; i < 100; i++ {
			if ok, _ := q.take(fmt.Sprintf("t%d-%d", batch, i), now); !ok {
				t.Fatalf("fresh tenant rejected in batch %d", batch)
			}
		}
		now = now.Add(3 * time.Second)
	}
	q.mu.Lock()
	size := len(q.m)
	q.mu.Unlock()
	if size > 200 {
		t.Fatalf("bucket map holds %d entries after churn, want bounded by recent tenants", size)
	}

	// An active tenant's spent tokens survive a sweep: drain the burst, let
	// idle strangers age out, and the still-hot bucket must stay dry.
	q.take("hot", now)
	q.take("hot", now)
	if ok, _ := q.take("hot", now); ok {
		t.Fatal("third take within burst admitted")
	}
	now = now.Add(500 * time.Millisecond) // under a token's worth of refill
	if ok, _ := q.take("hot", now); ok {
		t.Fatal("sweep handed the hot tenant a fresh bucket")
	}

	// A tenant idle past the refill period is evicted — and readmitted
	// exactly as a fresh full-burst bucket would be.
	now = now.Add(5 * time.Second)
	q.take("other", now) // trigger the amortized sweep
	q.mu.Lock()
	_, hotAlive := q.m["hot"]
	q.mu.Unlock()
	if hotAlive {
		t.Fatal("idle bucket survived a sweep past the refill period")
	}
	if ok, _ := q.take("hot", now); !ok {
		t.Fatal("evicted tenant rejected on return")
	}
}

// TestQuotaHTTP: over-quota submissions get 429 with a Retry-After header
// and count into front.quota_rejections.
func TestQuotaHTTP(t *testing.T) {
	f := newFront(t, Config{Workers: []string{"http://127.0.0.1:1"}, QuotaRate: 0.001, QuotaBurst: 1})
	api := httptest.NewServer(NewAPI(f).Handler())
	defer api.Close()

	rejBefore := obs.GetCounter("front.quota_rejections").Value()
	cfg := testConfig(7, 1)
	body, _ := json.Marshal(cfg)

	post := func(tenant string) *http.Response {
		req, _ := http.NewRequest(http.MethodPost, api.URL+"/v1/jobs", bytes.NewReader(body))
		req.Header.Set("X-Tenant", tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	if resp := post("alice"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submission: HTTP %d", resp.StatusCode)
	}
	resp := post("alice")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submission: HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	// Another tenant is unaffected.
	if resp := post("bob"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("tenant bob: HTTP %d", resp.StatusCode)
	}
	if d := obs.GetCounter("front.quota_rejections").Value() - rejBefore; d != 1 {
		t.Errorf("front.quota_rejections delta = %d, want 1", d)
	}
}

// streamAll reads a front job's full NDJSON stream from iteration 0.
func streamAll(t *testing.T, apiURL, id string) []byte {
	t.Helper()
	resp, err := http.Get(apiURL + "/v1/jobs/" + id + "/stream?from=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream %s: HTTP %d", id, resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// getResult fetches a finished front job's result document.
func getResult(t *testing.T, apiURL, id string) serve.ResultDoc {
	t.Helper()
	resp, err := http.Get(apiURL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("result %s: HTTP %d: %s", id, resp.StatusCode, raw)
	}
	var doc serve.ResultDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestDedupAndCache: concurrent identical submissions share one worker run
// (singleflight), their streams are byte-identical, and a post-completion
// resubmission is served from the content-addressed cache without touching
// the fleet.
func TestDedupAndCache(t *testing.T) {
	worker := newWorker(t, serve.Config{})
	f := newFront(t, Config{Workers: []string{worker.URL}})
	api := httptest.NewServer(NewAPI(f).Handler())
	defer api.Close()

	joinsBefore := obs.GetCounter("front.dedup_joins").Value()
	hitsBefore := obs.GetCounter("front.cache_hits").Value()
	startedBefore := obs.GetCounter("front.runs_started").Value()

	// Slow enough that the joiners arrive mid-run.
	cfg := testConfig(21, 25)
	cfg.Tol = 1e-12

	st1, err := f.Submit("alice", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st1.Source != SourceRun {
		t.Fatalf("first submission source %q, want %q", st1.Source, SourceRun)
	}

	// Wait until the run is demonstrably in flight on the worker.
	deadline := time.Now().Add(20 * time.Second)
	for {
		st, _ := f.Get(st1.ID)
		if st.Iterations >= 1 {
			break
		}
		if st.State != RunRunning {
			t.Fatalf("run finished before joiners could attach (state %s); enlarge the config", st.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("first iteration never arrived")
		}
		time.Sleep(time.Millisecond)
	}

	// Concurrent identical submissions from other tenants join, not re-run.
	var wg sync.WaitGroup
	joined := make([]*jobs.Status, 4)
	for i := range joined {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := f.Submit(fmt.Sprintf("tenant-%d", i), cfg)
			if err != nil {
				t.Errorf("join submit: %v", err)
				return
			}
			joined[i] = st
		}(i)
	}
	wg.Wait()
	for i, st := range joined {
		if st == nil {
			t.Fatal("missing join status")
		}
		if st.Source != SourceJoined {
			t.Errorf("joiner %d source %q, want %q", i, st.Source, SourceJoined)
		}
		if st.Key != st1.Key {
			t.Errorf("joiner %d key %s differs from original %s", i, st.Key, st1.Key)
		}
	}

	waitFrontState(t, f, st1.ID, RunSucceeded, 60*time.Second)

	// Exactly one worker-side job exists: dedup held.
	resp, err := http.Get(worker.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var workerJobs []jobs.Status
	if err := json.NewDecoder(resp.Body).Decode(&workerJobs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(workerJobs) != 1 {
		t.Fatalf("worker ran %d jobs, want 1 (dedup leak)", len(workerJobs))
	}

	// Streams of the original and every joiner are byte-identical.
	ref := streamAll(t, api.URL, st1.ID)
	if len(ref) == 0 {
		t.Fatal("empty reference stream")
	}
	for i, st := range joined {
		if got := streamAll(t, api.URL, st.ID); !bytes.Equal(got, ref) {
			t.Errorf("joiner %d stream differs from original (%d vs %d bytes)", i, len(got), len(ref))
		}
	}

	// A post-completion resubmission is a pure cache hit...
	st3, err := f.Submit("carol", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st3.Source != SourceCache {
		t.Fatalf("post-completion submission source %q, want %q", st3.Source, SourceCache)
	}
	if st3.State != RunSucceeded {
		t.Fatalf("cache hit state %q, want succeeded", st3.State)
	}
	// ...with the same stream and result, and still only one worker job.
	if got := streamAll(t, api.URL, st3.ID); !bytes.Equal(got, ref) {
		t.Error("cache-hit stream differs from original")
	}
	r1, r3 := getResult(t, api.URL, st1.ID), getResult(t, api.URL, st3.ID)
	if r1.ID != st1.ID || r3.ID != st3.ID {
		t.Errorf("result IDs not rewritten to front ids: %q/%q", r1.ID, r3.ID)
	}
	r3.ID = r1.ID
	if d := obsDiff(r1.Observables, r3.Observables); d != 0 {
		t.Errorf("cache-hit observables differ by %g", d)
	}

	if d := obs.GetCounter("front.runs_started").Value() - startedBefore; d != 1 {
		t.Errorf("front.runs_started delta = %d, want 1", d)
	}
	if d := obs.GetCounter("front.dedup_joins").Value() - joinsBefore; d != 4 {
		t.Errorf("front.dedup_joins delta = %d, want 4", d)
	}
	if d := obs.GetCounter("front.cache_hits").Value() - hitsBefore; d != 1 {
		t.Errorf("front.cache_hits delta = %d, want 1", d)
	}
}

// warmConfig is the bias-sweep regime the warm-start path targets: Anderson
// mixing at a tight tolerance, where the converged Σ of an adjacent bias
// point is a measurably better Born seed than zero.
func warmConfig(bias float64) core.RunConfig {
	cfg := testConfig(11, 40)
	cfg.Mixer = "anderson"
	cfg.Mixing = 0.8
	cfg.Tol = 1e-9
	cfg.Bias = bias
	return cfg
}

// TestWarmStart: after caching bias 0.40, submitting bias 0.44 warm-starts
// from the cached checkpoint, converges in fewer Born iterations than a
// cold run, and lands on the same observables to 1e-8.
func TestWarmStart(t *testing.T) {
	worker := newWorker(t, serve.Config{})
	f := newFront(t, Config{Workers: []string{worker.URL}})
	api := httptest.NewServer(NewAPI(f).Handler())
	defer api.Close()

	warmBefore := obs.GetCounter("front.warm_starts").Value()

	// Cold baseline for bias 0.44, computed directly.
	coldCfg := warmConfig(0.44)
	sim, err := coldCfg.NewSimulator()
	if err != nil {
		t.Fatal(err)
	}
	cold, err := sim.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Populate the cache with the adjacent bias point.
	st1, err := f.Submit("sweep", warmConfig(0.40))
	if err != nil {
		t.Fatal(err)
	}
	if st1.WarmStartBias != nil {
		t.Fatal("first family member claims a warm start")
	}
	waitFrontState(t, f, st1.ID, RunSucceeded, 120*time.Second)

	// The near-miss warm-starts from it.
	st2, err := f.Submit("sweep", warmConfig(0.44))
	if err != nil {
		t.Fatal(err)
	}
	if st2.Source != SourceRun {
		t.Fatalf("near-miss source %q, want a fresh run", st2.Source)
	}
	fin := waitFrontState(t, f, st2.ID, RunSucceeded, 120*time.Second)
	if fin.WarmStartBias == nil || *fin.WarmStartBias != 0.40 {
		t.Fatalf("warm start bias = %v, want 0.40", fin.WarmStartBias)
	}

	doc := getResult(t, api.URL, st2.ID)
	if !doc.Converged {
		t.Fatal("warm run did not converge")
	}
	if doc.Iterations >= cold.Iterations {
		t.Errorf("warm start took %d iterations, cold took %d — no head start", doc.Iterations, cold.Iterations)
	}
	if d := obsDiff(doc.Observables, cold.Obs); d > 1e-8 {
		t.Errorf("warm observables differ from cold by %g, want <= 1e-8", d)
	}
	if d := obs.GetCounter("front.warm_starts").Value() - warmBefore; d != 1 {
		t.Errorf("front.warm_starts delta = %d, want 1", d)
	}
	t.Logf("cold %d iters, warm %d iters, obs diff %.3g", cold.Iterations, doc.Iterations, obsDiff(doc.Observables, cold.Obs))

	// Over HTTP the warm job's status carries the worker's full field set
	// on both roles; the front adds only its own fields.
	var workerJobs []map[string]any
	getJSON(t, worker.URL+"/v1/jobs", &workerJobs)
	var workerDoc map[string]any
	for _, j := range workerJobs {
		if j["warm_start"] == true {
			workerDoc = j
		}
	}
	var frontDoc map[string]any
	getJSON(t, api.URL+"/v1/jobs/"+st2.ID, &frontDoc)
	want := []string{"id", "state", "queued", "started", "finished", "iterations", "converged", "warm_start"}
	if len(workerDoc) != len(want) {
		t.Errorf("worker status fields %v, want %v", workerDoc, want)
	}
	for _, k := range want {
		if _, ok := workerDoc[k]; !ok {
			t.Errorf("worker status lacks %q", k)
		}
		if _, ok := frontDoc[k]; !ok {
			t.Errorf("front status lacks the worker's %q", k)
		}
	}
	for _, k := range []string{"tenant", "source", "key", "worker", "warm_start_bias"} {
		if _, ok := frontDoc[k]; !ok {
			t.Errorf("front status lacks %q", k)
		}
	}
	if len(frontDoc) != len(want)+5 {
		t.Errorf("front status fields %v", frontDoc)
	}
}

// getJSON decodes the 200 body of GET url into out.
func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// TestReroute: killing the worker mid-run evicts it and re-places the run on
// the survivor; replayed iterations are suppressed so the stream stays
// monotonic, and the result matches a clean run.
func TestReroute(t *testing.T) {
	victim := newWorker(t, serve.Config{})
	survivor := newWorker(t, serve.Config{})
	f := newFront(t, Config{Workers: []string{victim.URL, survivor.URL}})
	api := httptest.NewServer(NewAPI(f).Handler())
	defer api.Close()

	evBefore := obs.GetCounter("front.worker_evictions").Value()
	rrBefore := obs.GetCounter("front.reroutes").Value()

	cfg := testConfig(31, 25)
	cfg.Tol = 1e-12

	st, err := f.Submit("ops", cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Registration order breaks the placement tie: the victim got the run.
	deadline := time.Now().Add(20 * time.Second)
	for {
		cur, _ := f.Get(st.ID)
		if cur.Iterations >= 2 {
			if cur.Worker != victim.URL {
				t.Fatalf("run placed on %s, expected first-registered %s", cur.Worker, victim.URL)
			}
			break
		}
		if cur.State != RunRunning {
			t.Fatalf("run finished early (state %s)", cur.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("run never started iterating")
		}
		time.Sleep(time.Millisecond)
	}

	// Kill the victim: in-flight streams break, health probes start failing.
	victim.CloseClientConnections()
	victim.Close()

	fin := waitFrontState(t, f, st.ID, RunSucceeded, 120*time.Second)
	if fin.Reroutes < 1 {
		t.Errorf("run survived with %d reroutes recorded, want >= 1", fin.Reroutes)
	}
	if fin.Worker != survivor.URL {
		t.Errorf("final worker %s, want survivor %s", fin.Worker, survivor.URL)
	}
	if d := obs.GetCounter("front.worker_evictions").Value() - evBefore; d < 1 {
		t.Errorf("front.worker_evictions delta = %d, want >= 1", d)
	}
	if d := obs.GetCounter("front.reroutes").Value() - rrBefore; d < 1 {
		t.Errorf("front.reroutes delta = %d, want >= 1", d)
	}

	// The stream is strictly monotonic in Born iteration despite the replay.
	raw := streamAll(t, api.URL, st.ID)
	last := 0
	for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		var rec serve.IterRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("bad stream line %q: %v", line, err)
		}
		if rec.Iter <= last {
			t.Fatalf("stream not monotonic: %d after %d", rec.Iter, last)
		}
		last = rec.Iter
	}

	// And the rerouted result matches a clean single-worker run.
	sim, err := cfg.NewSimulator()
	if err != nil {
		t.Fatal(err)
	}
	clean, err := sim.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	doc := getResult(t, api.URL, st.ID)
	if d := obsDiff(doc.Observables, clean.Obs); d != 0 {
		t.Errorf("rerouted observables differ from clean run by %g", d)
	}

	// The registry recorded the death.
	var dead *WorkerStatus
	for _, w := range f.Workers() {
		if w.URL == victim.URL {
			w := w
			dead = &w
		}
	}
	if dead == nil || dead.Evictions < 1 {
		t.Errorf("victim eviction not recorded: %+v", dead)
	}
}

// TestCancelDetach: cancelling one of two attached submissions keeps the
// shared run alive; cancelling the last one cancels the worker job.
func TestCancelDetach(t *testing.T) {
	worker := newWorker(t, serve.Config{})
	f := newFront(t, Config{Workers: []string{worker.URL}})

	cfg := testConfig(41, 100_000)
	cfg.Tol = 1e-300 // never converges: the test must cancel it

	st1, err := f.Submit("a", cfg)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		cur, _ := f.Get(st1.ID)
		if cur.Iterations >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("run never started")
		}
		time.Sleep(time.Millisecond)
	}
	st2, err := f.Submit("b", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Source != SourceJoined {
		t.Fatalf("second submission source %q, want joined", st2.Source)
	}

	// First cancel: the run keeps going for the remaining submission.
	if _, err := f.Cancel(st1.ID); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if cur, _ := f.Get(st2.ID); cur.State != RunRunning {
		t.Fatalf("run state %q after one of two cancels, want still running", cur.State)
	}

	// Last cancel tears the run down.
	if _, err := f.Cancel(st2.ID); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(30 * time.Second)
	for {
		cur, _ := f.Get(st2.ID)
		if cur.State == RunCancelled {
			break
		}
		if cur.State != RunRunning {
			t.Fatalf("run state %q after last cancel, want cancelled", cur.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("run never cancelled")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestRepeatedCancelDetachesOnce: a tenant that retries its cancel detaches
// its handle once; the other tenant joined to the same run still gets a
// succeeded job and its full iteration stream.
func TestRepeatedCancelDetachesOnce(t *testing.T) {
	worker := newWorker(t, serve.Config{})
	f := newFront(t, Config{Workers: []string{worker.URL}})
	api := httptest.NewServer(NewAPI(f).Handler())
	defer api.Close()

	cfg := testConfig(43, 60)
	cfg.Tol = 1e-300 // runs all MaxIter iterations, then succeeds

	stA, err := f.Submit("a", cfg)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		cur, _ := f.Get(stA.ID)
		if cur.Iterations >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("run never started")
		}
		time.Sleep(time.Millisecond)
	}
	stB, err := f.Submit("b", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stB.Source != SourceJoined {
		t.Fatalf("second submission source %q, want joined", stB.Source)
	}

	for i := 0; i < 2; i++ {
		resp, err := http.Post(api.URL+"/v1/jobs/"+stA.ID+"/cancel", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cancel %d: HTTP %d", i+1, resp.StatusCode)
		}
	}
	if cur, _ := f.Get(stB.ID); cur.State != RunRunning {
		t.Fatalf("run state %q right after the cancels; enlarge the config", cur.State)
	}

	waitFrontState(t, f, stB.ID, RunSucceeded, 120*time.Second)
	lines := bytes.Split(bytes.TrimSpace(streamAll(t, api.URL, stB.ID)), []byte("\n"))
	if len(lines) != cfg.MaxIter {
		t.Fatalf("stream holds %d records, want %d", len(lines), cfg.MaxIter)
	}
	for i, line := range lines {
		var rec serve.IterRecord
		if err := json.Unmarshal(line, &rec); err != nil || rec.Iter != i+1 {
			t.Fatalf("record %d = %s (err %v), want iteration %d", i, line, err, i+1)
		}
	}
}

// TestCacheLRUAndNearest: the cache holds its bound, evicts least recently
// used first, and nearest picks the closest bias within a family.
func TestCacheLRUAndNearest(t *testing.T) {
	c := newCache(2)
	mk := func(bias float64) *run {
		cfg := testConfig(7, 6)
		cfg.Bias = bias
		key, err := KeyOf(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := newRun(key)
		r.Finish(RunSucceeded, "")
		r.checkpoint = []byte{1}
		return r
	}
	r1, r2, r3 := mk(0.1), mk(0.2), mk(0.5)
	c.put(r1)
	c.put(r2)
	if _, ok := c.get(r1.key.ID); !ok { // touch r1: r2 becomes LRU
		t.Fatal("r1 missing")
	}
	c.put(r3) // evicts r2
	if _, ok := c.get(r2.key.ID); ok {
		t.Error("r2 survived past the LRU bound")
	}
	if c.len() != 2 {
		t.Errorf("cache len %d, want 2", c.len())
	}

	// nearest: for a bias-0.15 query, r1 (0.1) beats r3 (0.5).
	q := testConfig(7, 6)
	q.Bias = 0.15
	qk, _ := KeyOf(q)
	if got := c.nearest(qk); got == nil || got.key.Bias != 0.1 {
		t.Errorf("nearest = %v, want bias 0.1", got)
	}

	// Failed runs are never cached.
	rf := mk(0.9)
	rf = newRun(rf.key)
	rf.Finish(RunFailed, "")
	c.put(rf)
	if _, ok := c.get(rf.key.ID); ok {
		t.Error("failed run was cached")
	}
}

// TestFleetConfig: strict parsing with defaults; typos and empty fleets are
// startup errors.
func TestFleetConfig(t *testing.T) {
	fc, err := ParseFleetConfig([]byte(`{"workers":["http://a:1"],"quota_rate_per_sec":2}`))
	if err != nil {
		t.Fatal(err)
	}
	if fc.Listen != ":8090" {
		t.Errorf("default listen %q, want :8090", fc.Listen)
	}
	cfg := fc.FrontConfig()
	if len(cfg.Workers) != 1 || cfg.QuotaRate != 2 {
		t.Errorf("conversion lost fields: %+v", cfg)
	}
	if _, err := ParseFleetConfig([]byte(`{"workerz":["http://a:1"]}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := ParseFleetConfig([]byte(`{"workers":[]}`)); err == nil {
		t.Error("empty fleet accepted")
	}
	if !strings.Contains(fmt.Sprint(mustErr(t)), "no workers") {
		t.Error("empty-fleet error lacks explanation")
	}
}

// mustErr returns the empty-fleet parse error for message inspection.
func mustErr(t *testing.T) error {
	t.Helper()
	_, err := ParseFleetConfig([]byte(`{"workers":[]}`))
	if err == nil {
		t.Fatal("expected error")
	}
	return err
}
