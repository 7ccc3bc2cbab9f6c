package main

import (
	"context"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"negfsim/internal/core"
)

// TestPeerModeEndToEndSpatial is the spatial-split half of the multi-process
// acceptance drill: two qtsimd peers carry the device-partitioned GF phase
// over TCP loopback (config "space": 2, no energy grid) and must reproduce
// the single-process baseline observables to 1e-8 — both in a clean run and
// after one peer SIGKILLs itself mid-run, leaving the survivor to restore
// its checkpoint and finish the solve fully locally.
func TestPeerModeEndToEndSpatial(t *testing.T) {
	if testing.Short() {
		t.Skip("peer test builds and execs the daemon binary twice")
	}
	bin := filepath.Join(t.TempDir(), "qtsimd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building qtsimd: %v\n%s", err, out)
	}

	cfg := core.DefaultRunConfig()
	cfg.MaxIter = 3
	cfg.Space = 2
	raw, err := cfg.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	cfgPath := filepath.Join(t.TempDir(), "run.json")
	if err := os.WriteFile(cfgPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// The single-process baseline: the same spatial split on an in-process
	// cluster (pinned elsewhere against the fully serial run).
	distCfg, distributed, err := cfg.DistConfig()
	if err != nil || !distributed {
		t.Fatalf("config must be distributed (err %v)", err)
	}
	if distCfg.Space != 2 || distCfg.TE != 0 {
		t.Fatalf("DistConfig = %+v, want spatial-only", distCfg)
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
		// Rank 1 SIGKILLs itself after one completed Born iteration. The
		// cluster is persistent and multi-process, so the survivor cannot
		// re-partition: it drops to a fully local solve from its checkpoint
		// and must still land on the baseline observables.
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
