package campaign

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// newCampaignServer wires the full service stack a qtsimd process runs:
// a scheduler, a campaign manager fanning points into it, and the HTTP
// surface. Cleanup drains everything.
func newCampaignServer(t *testing.T) (*httptest.Server, *Manager) {
	t.Helper()
	m := scheduledManager(t, 2)
	srv := httptest.NewServer(NewAPI(m).Handler())
	t.Cleanup(srv.Close)
	return srv, m
}

// postCampaign submits a request and decodes the accepted status.
func postCampaign(t *testing.T, base string, req Request) (int, StatusDoc) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatusDoc
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, st
}

// getStatus fetches one campaign's status document.
func getStatus(t *testing.T, base, id string) StatusDoc {
	t.Helper()
	resp, err := http.Get(base + "/v1/campaigns/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s: HTTP %d", id, resp.StatusCode)
	}
	var st StatusDoc
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitCampaign polls the status endpoint until the campaign is terminal.
func waitCampaign(t *testing.T, base, id string, timeout time.Duration) StatusDoc {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := getStatus(t, base, id)
		if st.State != StateRunning {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s still %s after %v", id, st.State, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCampaignHTTPEndToEnd is the live acceptance path: a 5-point I–V
// campaign over the CNT device submitted to the service, executed through
// the scheduler with warm-started ladder points, and read back as CSV and
// JSON artifacts that match point-by-point direct runs to 1e-8.
func TestCampaignHTTPEndToEnd(t *testing.T) {
	srv, m := newCampaignServer(t)
	req := ivRequest()
	direct := directRuns(t, req)

	code, accepted := postCampaign(t, srv.URL, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	if accepted.State != StateRunning || len(accepted.Points) != 5 || !accepted.WarmStart {
		t.Fatalf("accepted doc: state %s, %d points, warm %t", accepted.State, len(accepted.Points), accepted.WarmStart)
	}

	fin := waitCampaign(t, srv.URL, accepted.ID, 120*time.Second)
	if fin.State != StateSucceeded {
		t.Fatalf("campaign finished %s: %s", fin.State, fin.Error)
	}
	if fin.Finished == nil {
		t.Fatal("succeeded campaign has no finished timestamp")
	}
	warmSaved := 0
	for i, p := range fin.Points {
		if p.State != PointDone || !p.Converged {
			t.Fatalf("point %d state %s converged=%t: %s", i, p.State, p.Converged, p.Error)
		}
		if p.JobID == "" {
			t.Errorf("point %d has no scheduler job id", i)
		}
		seeded := !chainHead(i, len(fin.Points), m.maxParallel)
		if got := p.WarmStarted; got != seeded {
			t.Fatalf("point %d warm_started = %t, want %t", i, got, seeded)
		}
		if seeded && p.Iterations < direct[i].Iterations {
			warmSaved++
		}
	}
	if warmSaved == 0 {
		t.Error("no warm point converged in fewer iterations than its cold direct run")
	}

	// JSON artifact: the curve agrees with the direct baselines to 1e-8.
	resp, err := http.Get(srv.URL + "/v1/campaigns/" + accepted.ID + "/artifact.json")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("artifact.json: HTTP %d %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	var doc ArtifactDoc
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if doc.ID != accepted.ID || doc.Kind != IV || len(doc.IV) != 5 {
		t.Fatalf("artifact doc: id %s kind %s rows %d", doc.ID, doc.Kind, len(doc.IV))
	}
	for i, row := range doc.IV {
		if d := relDiff(row.CurrentL, direct[i].Obs.CurrentL); d > 1e-8 {
			t.Errorf("artifact row %d current_l differs from direct run by %g", i, d)
		}
		if d := relDiff(row.CurrentR, direct[i].Obs.CurrentR); d > 1e-8 {
			t.Errorf("artifact row %d current_r differs from direct run by %g", i, d)
		}
	}

	// CSV artifact: same rows, plotting-ready.
	resp, err = http.Get(srv.URL + "/v1/campaigns/" + accepted.ID + "/artifact.csv")
	if err != nil {
		t.Fatal(err)
	}
	csv, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "text/csv" {
		t.Fatalf("artifact.csv: HTTP %d %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	lines := strings.Split(strings.TrimSpace(string(csv)), "\n")
	if len(lines) != 6 || lines[0] != "bias,current_l,current_r,iterations,converged,warm_started" {
		t.Fatalf("artifact.csv: %d lines, header %q", len(lines), lines[0])
	}

	// The campaign list contains it.
	resp, err = http.Get(srv.URL + "/v1/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	var list []StatusDoc
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != accepted.ID {
		t.Fatalf("campaign list = %+v", list)
	}
}

// TestCampaignHTTPErrors covers the failure surface: malformed and
// invalid submissions, unknown ids, artifacts of unfinished campaigns,
// and cancellation over HTTP.
func TestCampaignHTTPErrors(t *testing.T) {
	srv, _ := newCampaignServer(t)

	resp, err := http.Post(srv.URL+"/v1/campaigns", "application/json", strings.NewReader(`{"kind": [}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: HTTP %d, want 400", resp.StatusCode)
	}

	bad := ivRequest()
	bad.Config.Dist = "2x2"
	if code, _ := postCampaign(t, srv.URL, bad); code != http.StatusBadRequest {
		t.Fatalf("dist campaign: HTTP %d, want 400", code)
	}

	for _, path := range []string{"/v1/campaigns/nope", "/v1/campaigns/nope/artifact.csv"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: HTTP %d, want 404", path, resp.StatusCode)
		}
	}

	// A running campaign has no artifact yet (409), and cancel stops it.
	long := ivRequest()
	long.Config.MaxIter = 100_000
	long.Config.Tol = 1e-300
	code, st := postCampaign(t, srv.URL, long)
	if code != http.StatusAccepted {
		t.Fatalf("submit long campaign: HTTP %d", code)
	}
	resp, err = http.Get(srv.URL + "/v1/campaigns/" + st.ID + "/artifact.json")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("artifact of running campaign: HTTP %d, want 409", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/v1/campaigns/"+st.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: HTTP %d", resp.StatusCode)
	}
	if fin := waitCampaign(t, srv.URL, st.ID, 60*time.Second); fin.State != StateCancelled {
		t.Fatalf("cancelled campaign finished %s", fin.State)
	}
}
