package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"negfsim/internal/core"
	"negfsim/internal/device"
	"negfsim/internal/jobs"
)

// postConfig submits a RunConfig through the HTTP API and decodes the
// response envelope.
func postConfig(t *testing.T, ts *httptest.Server, cfg core.RunConfig) (*http.Response, jobs.Status) {
	t.Helper()
	raw, err := cfg.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st jobs.Status
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp, st
}

// getJSON fetches a URL and decodes its JSON body into out, returning the
// status code.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode
}

// TestHTTPLifecycle drives a job through the full API surface: submit,
// status, stream, result, checkpoint, list, healthz, metrics.
func TestHTTPLifecycle(t *testing.T) {
	s := New(Config{MaxConcurrent: 1})
	defer closeSched(t, s)
	ts := httptest.NewServer(NewAPI(s))
	defer ts.Close()

	resp, st := postConfig(t, ts, testConfig(51, 3))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, want 202", resp.StatusCode)
	}
	if st.ID == "" || st.State != jobs.Queued {
		t.Fatalf("submit returned %+v, want a queued job with an id", st)
	}
	base := ts.URL + "/v1/jobs/" + st.ID

	// Stream the full run as NDJSON; the connection closes on completion.
	streamResp, err := http.Get(base + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer streamResp.Body.Close()
	if got := streamResp.Header.Get("Content-Type"); got != "application/x-ndjson" {
		t.Errorf("stream Content-Type = %q", got)
	}
	var recs []IterRecord
	sc := bufio.NewScanner(streamResp.Body)
	for sc.Scan() {
		var rec IterRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("stream line %q: %v", sc.Text(), err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("stream delivered no iteration records")
	}
	for i, rec := range recs {
		if rec.Iter != i+1 {
			t.Fatalf("stream record %d has Iter %d", i, rec.Iter)
		}
	}

	var final jobs.Status
	if code := getJSON(t, base, &final); code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	if final.State != jobs.Succeeded || final.Iterations != len(recs) {
		t.Fatalf("final status %+v, want succeeded with %d iterations", final, len(recs))
	}

	var doc ResultDoc
	if code := getJSON(t, base+"/result", &doc); code != http.StatusOK {
		t.Fatalf("result: %d", code)
	}
	if doc.ID != st.ID || doc.Iterations != len(recs) || len(doc.Residuals) == 0 {
		t.Fatalf("result doc %+v inconsistent with run", doc)
	}

	// The checkpoint endpoint serves a gob the core loader accepts.
	ckResp, err := http.Get(base + "/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	defer ckResp.Body.Close()
	if ckResp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint: %d", ckResp.StatusCode)
	}
	ck, err := core.LoadCheckpoint(ckResp.Body)
	if err != nil {
		t.Fatalf("checkpoint not loadable: %v", err)
	}
	if ck.Iterations != len(recs) {
		t.Errorf("checkpoint records %d iterations, run had %d", ck.Iterations, len(recs))
	}

	var listing []jobs.Status
	if code := getJSON(t, ts.URL+"/v1/jobs", &listing); code != http.StatusOK || len(listing) != 1 {
		t.Fatalf("list: code %d, %d jobs", code, len(listing))
	}
	var health healthDoc
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK || !health.OK {
		t.Fatalf("healthz: code %d, %+v", code, health)
	}
	metrics, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer metrics.Body.Close()
	body, _ := io.ReadAll(metrics.Body)
	if !strings.Contains(string(body), "negfsim_serve_jobs_submitted") {
		t.Errorf("metrics exposition missing serve counters")
	}
}

// TestHTTPCancelAndErrors covers the failure surface: bad configs, unknown
// jobs, premature result fetches, queue overflow as 429, and cancellation
// through the API.
func TestHTTPCancelAndErrors(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, QueueDepth: 1})
	defer closeSched(t, s)
	ts := httptest.NewServer(NewAPI(s))
	defer ts.Close()

	// Malformed and invalid submissions are 400s.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"version":`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: %d, want 400", resp.StatusCode)
	}
	bad := testConfig(61, 2)
	bad.Mixing = 7
	if resp, _ := postConfig(t, ts, bad); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid config: %d, want 400", resp.StatusCode)
	}
	future := testConfig(61, 2)
	future.Version = core.RunConfigVersion + 1
	if resp, _ := postConfig(t, ts, future); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("future version: %d, want 400", resp.StatusCode)
	}

	// Unknown ids are 404s across the job endpoints.
	if code := getJSON(t, ts.URL+"/v1/jobs/nope", nil); code != http.StatusNotFound {
		t.Errorf("unknown job status: %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/nope/result", nil); code != http.StatusNotFound {
		t.Errorf("unknown job result: %d, want 404", code)
	}

	// Fill the service: one running, one queued, then 429.
	resp, running := postConfig(t, ts, longConfig(62))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit running: %d", resp.StatusCode)
	}
	resp, queued := postConfig(t, ts, testConfig(63, 2))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit queued: %d", resp.StatusCode)
	}
	if resp, _ := postConfig(t, ts, testConfig(64, 2)); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: %d, want 429", resp.StatusCode)
	}

	// A result fetch before completion is a 409.
	if code := getJSON(t, ts.URL+"/v1/jobs/"+running.ID+"/result", nil); code != http.StatusConflict {
		t.Errorf("premature result: %d, want 409", code)
	}

	// Cancel both over HTTP; the running one must drain to cancelled.
	for _, id := range []string{queued.ID, running.ID} {
		resp, err := http.Post(ts.URL+"/v1/jobs/"+id+"/cancel", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cancel %s: %d", id, resp.StatusCode)
		}
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st jobs.Status
		getJSON(t, ts.URL+"/v1/jobs/"+running.ID, &st)
		if st.State == jobs.Cancelled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("running job stuck in %q after cancel", st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHTTPStreamFollowsLiveJob attaches a streaming client mid-run and
// checks it receives records it did not miss: the replay starts at 0 even
// though iterations already happened, and ?from skips exactly as asked.
func TestHTTPStreamFollowsLiveJob(t *testing.T) {
	s := New(Config{MaxConcurrent: 1})
	defer closeSched(t, s)
	ts := httptest.NewServer(NewAPI(s))
	defer ts.Close()

	resp, st := postConfig(t, ts, testConfig(71, 4))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	j, _ := s.Get(st.ID)
	waitState(t, j, jobs.Succeeded, 60*time.Second)
	n := j.Status().Iterations

	streamResp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/stream?from=%d", ts.URL, st.ID, n-1))
	if err != nil {
		t.Fatal(err)
	}
	defer streamResp.Body.Close()
	var got []IterRecord
	sc := bufio.NewScanner(streamResp.Body)
	for sc.Scan() {
		var rec IterRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		got = append(got, rec)
	}
	if len(got) != 1 || got[0].Iter != n {
		t.Fatalf("stream from=%d returned %+v, want exactly iteration %d", n-1, got, n)
	}

	if code := getJSON(t, ts.URL+"/v1/jobs/"+st.ID+"/stream?from=-1", nil); code != http.StatusBadRequest {
		t.Errorf("negative from: %d, want 400", code)
	}
}

// TestHTTPWarmStartEnvelope drives the checkpoint round trip over HTTP: a
// finished job's /checkpoint seeds an envelope submission at an adjacent
// bias, which must report warm_start, converge in fewer Born iterations
// than the cold run, run under dist to the cold answer, and reject
// incompatible or corrupt checkpoints.
func TestHTTPWarmStartEnvelope(t *testing.T) {
	s := New(Config{MaxConcurrent: 1})
	defer closeSched(t, s)
	ts := httptest.NewServer(NewAPI(s))
	defer ts.Close()

	mkCfg := func(bias float64) core.RunConfig {
		cfg := testConfig(11, 40)
		cfg.Mixer = "anderson"
		cfg.Mixing = 0.8
		cfg.Tol = 1e-9
		cfg.Bias = bias
		return cfg
	}

	// Converge the seed point and collect its checkpoint.
	resp, st := postConfig(t, ts, mkCfg(0.40))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("seed submit: %d", resp.StatusCode)
	}
	j, _ := s.Get(st.ID)
	waitState(t, j, jobs.Succeeded, 120*time.Second)
	ckResp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	ck, err := io.ReadAll(ckResp.Body)
	ckResp.Body.Close()
	if err != nil || ckResp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint fetch: %d, %v", ckResp.StatusCode, err)
	}

	postEnvelope := func(cfg core.RunConfig, ck []byte) (*http.Response, jobs.Status) {
		t.Helper()
		cfgRaw, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(submitEnvelope{Config: cfgRaw, Checkpoint: ck})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var est jobs.Status
		if resp.StatusCode == http.StatusAccepted {
			if err := json.NewDecoder(resp.Body).Decode(&est); err != nil {
				t.Fatal(err)
			}
		} else {
			io.Copy(io.Discard, resp.Body)
		}
		return resp, est
	}

	// Cold baseline at the target bias.
	coldResp, coldSt := postConfig(t, ts, mkCfg(0.44))
	if coldResp.StatusCode != http.StatusAccepted {
		t.Fatalf("cold submit: %d", coldResp.StatusCode)
	}
	jc, _ := s.Get(coldSt.ID)
	waitState(t, jc, jobs.Succeeded, 120*time.Second)
	coldIters := jc.Status().Iterations

	// Warm envelope at the target bias.
	wResp, wSt := postEnvelope(mkCfg(0.44), ck)
	if wResp.StatusCode != http.StatusAccepted {
		t.Fatalf("warm submit: %d", wResp.StatusCode)
	}
	if !wSt.WarmStart {
		t.Error("envelope submission did not report warm_start")
	}
	jw, _ := s.Get(wSt.ID)
	waitState(t, jw, jobs.Succeeded, 120*time.Second)
	if got := jw.Status().Iterations; got >= coldIters {
		t.Errorf("warm run took %d iterations, cold took %d — no head start", got, coldIters)
	}
	rw, _ := jw.Result()
	rc, _ := jc.Result()
	if d := obsDiff(rw.Obs, rc.Obs); d > 1e-8 {
		t.Errorf("warm observables differ from cold by %g, want <= 1e-8", d)
	}

	// A checkpoint from a different device is rejected up front.
	other := mkCfg(0.44)
	og := other.Device.Grid()
	og.Seed = 99
	other.Device = device.WrapParams(og)
	if resp, _ := postEnvelope(other, ck); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("incompatible checkpoint: %d, want 400", resp.StatusCode)
	}

	// A seed composes with every placement: a warm envelope under dist
	// runs and lands on the cold run's answer.
	dist := mkCfg(0.44)
	dist.Dist = "2x1"
	dResp, dSt := postEnvelope(dist, ck)
	if dResp.StatusCode != http.StatusAccepted {
		t.Fatalf("distributed warm start: %d, want 202", dResp.StatusCode)
	}
	jd, _ := s.Get(dSt.ID)
	waitState(t, jd, jobs.Succeeded, 120*time.Second)
	rd, _ := jd.Result()
	if d := obsDiff(rd.Obs, rc.Obs); d > 1e-8 {
		t.Errorf("distributed warm observables differ from cold by %g, want <= 1e-8", d)
	}

	// A corrupt checkpoint is a 400, not a crash.
	if resp, _ := postEnvelope(mkCfg(0.44), []byte("not a gob")); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("corrupt checkpoint: %d, want 400", resp.StatusCode)
	}
}

// FuzzDecodeSubmission feeds arbitrary bodies through the submit handler's
// decoder: nothing may panic, and an accepted body's config passes
// Validate. Seeds are examples/run.json, an envelope carrying a checkpoint
// of that device after one iteration, and the envelope followed by a
// second document, which must be rejected.
func FuzzDecodeSubmission(f *testing.F) {
	raw, err := os.ReadFile("../../examples/run.json")
	if err != nil {
		f.Fatal(err)
	}
	cfg, err := core.ParseRunConfig(raw)
	if err != nil {
		f.Fatal(err)
	}
	cfg.MaxIter = 1
	sim, err := cfg.NewSimulator()
	if err != nil {
		f.Fatal(err)
	}
	res, err := sim.RunCtx(context.Background())
	if err != nil {
		f.Fatal(err)
	}
	var ck bytes.Buffer
	if err := core.CheckpointOf(cfg.Device, res).Save(&ck); err != nil {
		f.Fatal(err)
	}
	env, err := json.Marshal(submitEnvelope{Config: raw, Checkpoint: ck.Bytes()})
	if err != nil {
		f.Fatal(err)
	}
	trailing := append(append([]byte{}, env...), ` {"ne": 3} garbage`...)
	if _, _, err := decodeSubmission(trailing); err == nil {
		f.Fatal("an envelope followed by trailing content was accepted")
	}
	f.Add(raw)
	f.Add(env)
	f.Add(trailing)
	f.Fuzz(func(t *testing.T, body []byte) {
		cfg, _, err := decodeSubmission(body)
		if err != nil {
			return
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("accepted submission's config fails Validate: %v", err)
		}
	})
}
