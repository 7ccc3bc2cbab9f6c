package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"negfsim/internal/core"
)

// TestServeSmoke is the end-to-end daemon exercise behind `make serve-test`:
// it builds the real qtsimd binary, starts it on an ephemeral port, submits
// a job over HTTP, streams its iterations, cancels it, runs a second job to
// completion, and shuts the daemon down cleanly with SIGTERM.
func TestServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke test builds and execs the daemon binary")
	}
	bin := filepath.Join(t.TempDir(), "qtsimd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building qtsimd: %v\n%s", err, out)
	}

	d := startDaemon(t, bin, "-addr", "127.0.0.1:0", "-max-concurrent", "2", "-drain-timeout", "30s")
	base := d.base

	// A job that cannot finish on its own: the cancel below must stop it.
	long := core.DefaultRunConfig()
	long.MaxIter = 100_000
	long.Tol = 1e-300
	longID := submit(t, base, long)

	// Stream until the first iteration record proves the job is running.
	streamResp, err := http.Get(base + "/v1/jobs/" + longID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	lineSc := bufio.NewScanner(streamResp.Body)
	if !lineSc.Scan() {
		streamResp.Body.Close()
		t.Fatalf("stream of %s delivered no records", longID)
	}
	var rec struct {
		Iter int `json:"iter"`
	}
	if err := json.Unmarshal(lineSc.Bytes(), &rec); err != nil || rec.Iter != 1 {
		streamResp.Body.Close()
		t.Fatalf("first stream record %q (err %v), want iter 1", lineSc.Text(), err)
	}
	streamResp.Body.Close()

	resp, err := http.Post(base+"/v1/jobs/"+longID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}
	waitJobState(t, base, longID, "cancelled")

	// A short job must run to completion and serve a result after the
	// cancel freed the slot.
	short := core.DefaultRunConfig()
	short.MaxIter = 2
	shortID := submit(t, base, short)
	waitJobState(t, base, shortID, "succeeded")
	resp, err = http.Get(base + "/v1/jobs/" + shortID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "observables") {
		t.Fatalf("result: status %d body %s", resp.StatusCode, body)
	}

	// Clean shutdown: SIGTERM must drain and exit 0.
	d.stop(t)
}

// submit POSTs a config and returns the accepted job id.
func submit(t *testing.T, base string, cfg core.RunConfig) string {
	t.Helper()
	raw, err := cfg.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d body %s", resp.StatusCode, body)
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &st); err != nil || st.ID == "" {
		t.Fatalf("submit response %s (err %v)", body, err)
	}
	return st.ID
}

// waitJobState polls a job until it reports the wanted state.
func waitJobState(t *testing.T, base, id, want string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return
		}
		if st.State == "failed" || (st.State == "succeeded" && want != "succeeded") || (st.State == "cancelled" && want != "cancelled") {
			t.Fatalf("job %s reached %q (err %q), want %q", id, st.State, st.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q, want %q", id, st.State, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFrontRoleSmoke exercises the front role end to end: one worker
// daemon and one `qtsimd -fleet` front, both on ephemeral ports. A small
// run submitted to the front streams to EOF and serves its result; the
// identical resubmission is answered from the front's cache; SIGTERM
// drains both processes cleanly.
func TestFrontRoleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke test builds and execs the daemon binary")
	}
	bin := filepath.Join(t.TempDir(), "qtsimd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building qtsimd: %v\n%s", err, out)
	}

	worker := startDaemon(t, bin, "-addr", "127.0.0.1:0", "-max-concurrent", "2")
	fleet, err := json.Marshal(map[string]any{
		"listen":  "127.0.0.1:0",
		"workers": []string{worker.base},
	})
	if err != nil {
		t.Fatal(err)
	}
	fleetPath := filepath.Join(t.TempDir(), "fleet.json")
	if err := os.WriteFile(fleetPath, fleet, 0o644); err != nil {
		t.Fatal(err)
	}
	fr := startDaemon(t, bin, "-fleet", fleetPath)

	cfg := core.DefaultRunConfig()
	cfg.MaxIter = 2
	id := submit(t, fr.base, cfg)

	resp, err := http.Get(fr.base + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	records := 0
	for sc := bufio.NewScanner(resp.Body); sc.Scan(); records++ {
	}
	resp.Body.Close()
	if records != cfg.MaxIter {
		t.Fatalf("front stream of %s delivered %d records, want %d", id, records, cfg.MaxIter)
	}
	waitJobState(t, fr.base, id, "succeeded")
	resp, err = http.Get(fr.base + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "observables") {
		t.Fatalf("front result: status %d body %s", resp.StatusCode, body)
	}

	raw, err := cfg.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(fr.base+"/v1/jobs", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || !strings.Contains(string(body), `"source":"cache"`) {
		t.Fatalf("resubmission: status %d body %s, want a cache hit", resp.StatusCode, body)
	}

	// The front drains first, so it never routes to a closed worker.
	fr.stop(t)
	worker.stop(t)
}

// daemon is a running qtsimd process serving on base.
type daemon struct {
	base   string
	cmd    *exec.Cmd
	stderr *bytes.Buffer
	exited chan struct{}
	err    error
}

// startDaemon starts bin with args, reads the bound address from its
// startup line, and kills the process when the test ends if stop has not
// run.
func startDaemon(t *testing.T, bin string, args ...string) *daemon {
	t.Helper()
	d := &daemon{cmd: exec.Command(bin, args...), stderr: new(bytes.Buffer), exited: make(chan struct{})}
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	d.cmd.Stderr = d.stderr
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { d.err = d.cmd.Wait(); close(d.exited) }()
	t.Cleanup(func() {
		select {
		case <-d.exited:
		default:
			d.cmd.Process.Kill()
			<-d.exited
		}
	})
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		<-d.exited
		t.Fatalf("qtsimd %v produced no output; stderr:\n%s", args, d.stderr)
	}
	m := regexp.MustCompile(`listening on (\S+)`).FindStringSubmatch(sc.Text())
	if m == nil {
		t.Fatalf("unexpected startup line %q", sc.Text())
	}
	d.base = "http://" + m[1]
	go io.Copy(io.Discard, stdout) // keep the pipe drained
	return d
}

// stop sends SIGTERM and requires a clean exit that logs "drained".
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-d.exited:
	case <-time.After(60 * time.Second):
		t.Fatalf("%v did not exit after SIGTERM; stderr:\n%s", d.cmd.Args, d.stderr)
	}
	if d.err != nil {
		t.Fatalf("%v exited dirty: %v\nstderr:\n%s", d.cmd.Args, d.err, d.stderr)
	}
	if !strings.Contains(d.stderr.String(), "drained") {
		t.Errorf("%v does not report a drained shutdown:\n%s", d.cmd.Args, d.stderr)
	}
}
