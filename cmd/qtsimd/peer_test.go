package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"negfsim/internal/core"
)

// TestPeerModeEndToEnd is the multi-process acceptance drill behind
// `make peer-test`: two qtsimd peer processes carry a distributed
// fault-tolerant run over TCP loopback and must reproduce the
// single-process fault-free observables to 1e-8 — both in a clean run and
// after one peer SIGKILLs itself mid-run (checkpointed recovery on the
// survivor).
func TestPeerModeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("peer test builds and execs the daemon binary twice")
	}
	bin := filepath.Join(t.TempDir(), "qtsimd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building qtsimd: %v\n%s", err, out)
	}

	cfg := core.DefaultRunConfig()
	cfg.MaxIter = 3
	cfg.Dist = "2x1"
	raw, err := cfg.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	cfgPath := filepath.Join(t.TempDir(), "run.json")
	if err := os.WriteFile(cfgPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// The single-process fault-free baseline every peer must reproduce.
	distCfg, distributed, err := cfg.DistConfig()
	if err != nil || !distributed {
		t.Fatalf("config must be distributed (err %v)", err)
	}
	opts, err := cfg.Options()
	if err != nil {
		t.Fatal(err)
	}
	sim, err := cfg.NewSimulatorWith(opts)
	if err != nil {
		t.Fatal(err)
	}
	baseline, _, err := sim.RunDistributedFTCtx(context.Background(), distCfg)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("fault-free", func(t *testing.T) {
		results := runPeerProcs(t, bin, cfgPath, -1)
		for rank, pr := range results {
			if pr.Iterations != baseline.Iterations {
				t.Errorf("peer %d ran %d iterations, baseline ran %d", rank, pr.Iterations, baseline.Iterations)
			}
			if pr.Recoveries != 0 {
				t.Errorf("peer %d recovered %d times in a fault-free run", rank, pr.Recoveries)
			}
			if pr.Bytes == 0 {
				t.Errorf("peer %d reports zero exchange traffic", rank)
			}
			comparePeer(t, rank, pr, baseline)
			// A clean run's residual history must match iteration for
			// iteration (a recovered run legitimately loses the redone
			// iteration's residual — no previous G to difference against —
			// so only the fault-free case checks this).
			if len(pr.Residuals) != len(baseline.Residuals) {
				t.Errorf("peer %d has %d residuals, baseline %d", rank, len(pr.Residuals), len(baseline.Residuals))
				continue
			}
			for i, r := range baseline.Residuals {
				if d := math.Abs(pr.Residuals[i] - r); d > 1e-8*(1+math.Abs(r)) {
					t.Errorf("peer %d residual %d = %g, baseline %g", rank, i+1, pr.Residuals[i], r)
				}
			}
		}
	})

	t.Run("peer-killed-mid-run", func(t *testing.T) {
		// Rank 1 SIGKILLs itself after one completed Born iteration — a hard
		// crash mid-exchange. Rank 0 must detect the dead connection,
		// restore its checkpoint, finish locally, and still land on the
		// fault-free observables.
		results := runPeerProcs(t, bin, cfgPath, 1)
		pr := results[0]
		if pr.Recoveries != 1 {
			t.Errorf("survivor recovered %d times, want 1", pr.Recoveries)
		}
		if pr.Iterations != baseline.Iterations {
			t.Errorf("survivor ran %d iterations, baseline ran %d", pr.Iterations, baseline.Iterations)
		}
		comparePeer(t, 0, pr, baseline)
	})
}

// comparePeer checks one peer's scalar observables against the baseline to
// the 1e-8 relative tolerance of the acceptance criteria.
func comparePeer(t *testing.T, rank int, pr peerResult, baseline *core.Result) {
	t.Helper()
	for _, c := range []struct {
		name     string
		got, ref float64
	}{
		{"current_l", pr.CurrentL, baseline.Obs.CurrentL},
		{"current_r", pr.CurrentR, baseline.Obs.CurrentR},
		{"heat_l", pr.HeatL, baseline.Obs.HeatL},
		{"heat_r", pr.HeatR, baseline.Obs.HeatR},
	} {
		if d := math.Abs(c.got - c.ref); d > 1e-8*(1+math.Abs(c.ref)) {
			t.Errorf("peer %d %s = %g, baseline %g (Δ %g)", rank, c.name, c.got, c.ref, d)
		}
	}
}

// runPeerProcs launches a 2-peer SPMD run over loopback and returns the
// decoded result of every peer that was expected to survive. killRank,
// when ≥ 0, makes that peer SIGKILL itself after one completed iteration
// (and its exit status plus missing result are then expected).
func runPeerProcs(t *testing.T, bin, cfgPath string, killRank int) map[int]peerResult {
	t.Helper()
	const n = 2
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close() // released for the peer process; lazy dial retries cover the window
	}
	peersCSV := addrs[0] + "," + addrs[1]

	dir := t.TempDir()
	cmds := make([]*exec.Cmd, n)
	outs := make([]*bytes.Buffer, n)
	resultPaths := make([]string, n)
	for rank := 0; rank < n; rank++ {
		resultPaths[rank] = filepath.Join(dir, fmt.Sprintf("r%d.json", rank))
		args := []string{
			"-peer-rank", fmt.Sprint(rank), "-peers", peersCSV,
			"-peer-config", cfgPath, "-result-out", resultPaths[rank],
		}
		if rank == killRank {
			args = append(args, "-die-after-iter", "1")
		}
		cmds[rank] = exec.Command(bin, args...)
		outs[rank] = &bytes.Buffer{}
		cmds[rank].Stdout = outs[rank]
		cmds[rank].Stderr = outs[rank]
		if err := cmds[rank].Start(); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, cmd := range cmds {
			if cmd.Process != nil {
				cmd.Process.Kill()
			}
		}
	})

	type exit struct {
		rank int
		err  error
	}
	done := make(chan exit, n)
	for rank, cmd := range cmds {
		go func(rank int, cmd *exec.Cmd) { done <- exit{rank, cmd.Wait()} }(rank, cmd)
	}
	deadline := time.After(180 * time.Second)
	results := make(map[int]peerResult, n)
	for i := 0; i < n; i++ {
		select {
		case e := <-done:
			if e.rank == killRank {
				if e.err == nil {
					t.Errorf("peer %d was told to die but exited cleanly", e.rank)
				}
				continue
			}
			if e.err != nil {
				t.Fatalf("peer %d failed: %v\n%s", e.rank, e.err, outs[e.rank].String())
			}
			raw, err := os.ReadFile(resultPaths[e.rank])
			if err != nil {
				t.Fatalf("peer %d wrote no result: %v\n%s", e.rank, err, outs[e.rank].String())
			}
			var pr peerResult
			if err := json.Unmarshal(raw, &pr); err != nil {
				t.Fatalf("peer %d result: %v\n%s", e.rank, err, raw)
			}
			results[e.rank] = pr
		case <-deadline:
			for rank, out := range outs {
				t.Logf("peer %d output:\n%s", rank, out.String())
			}
			t.Fatal("peers did not finish within the deadline")
		}
	}
	return results
}
