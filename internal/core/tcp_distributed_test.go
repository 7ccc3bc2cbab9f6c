package core

import (
	"context"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"negfsim/internal/comm"
	"negfsim/internal/transport"
)

// tcpPeers reserves n loopback listeners up front so the peer clusters can
// be built without port races, returning the address list and the per-rank
// transport configs carrying the pre-bound listeners.
func tcpPeers(t *testing.T, n int) ([]string, []transport.TCPConfig) {
	t.Helper()
	addrs := make([]string, n)
	cfgs := make([]transport.TCPConfig, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		cfgs[i] = transport.TCPConfig{Listener: ln}
	}
	return addrs, cfgs
}

// runTCPPeers executes one RunDistributedFTCtx per rank of a 2-peer TCP
// cluster, each on its own simulator (the SPMD layout: replicated GF phase,
// distributed SSE), and returns the per-rank results, byte totals and
// errors.
func runTCPPeers(t *testing.T, opts Options, mutate func(rank int, cfg *DistConfig)) ([]*Result, []int64, []error) {
	t.Helper()
	const n = 2
	addrs, cfgs := tcpPeers(t, n)
	sims := make([]*Simulator, n)
	for rank := range sims {
		sims[rank] = miniSim(t, opts)
	}
	results := make([]*Result, n)
	bytes := make([]int64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for rank := 0; rank < n; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			cl, err := comm.NewClusterTCPWith(context.Background(), rank, addrs, cfgs[rank])
			if err != nil {
				errs[rank] = err
				return
			}
			defer cl.Close()
			cfg := DistConfig{TE: n, TA: 1, Cluster: cl,
				CommTimeout: 5 * time.Second, RetryBackoff: time.Millisecond}
			if mutate != nil {
				mutate(rank, &cfg)
			}
			results[rank], bytes[rank], errs[rank] = sims[rank].RunDistributedFTCtx(context.Background(), cfg)
		}(rank)
	}
	wg.Wait()
	return results, bytes, errs
}

func TestRunDistributedFTOverTCPMatchesInproc(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxIter = 3
	clean, _, err := miniSim(t, opts).RunDistributedFTCtx(context.Background(), DistConfig{TE: 2, TA: 1})
	if err != nil {
		t.Fatal(err)
	}

	results, bytes, errs := runTCPPeers(t, opts, nil)
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("peer %d: %v", rank, err)
		}
	}
	for rank, res := range results {
		if d := clean.GLess.MaxAbsDiff(res.GLess); d > 1e-8 {
			t.Errorf("peer %d GLess diverged from in-process run: %g", rank, d)
		}
		if d := math.Abs(clean.Obs.CurrentL - res.Obs.CurrentL); d > 1e-8*(1+math.Abs(clean.Obs.CurrentL)) {
			t.Errorf("peer %d current differs: %g vs %g", rank, res.Obs.CurrentL, clean.Obs.CurrentL)
		}
		if res.Iterations != clean.Iterations {
			t.Errorf("peer %d ran %d iterations, in-process ran %d", rank, res.Iterations, clean.Iterations)
		}
		if bytes[rank] == 0 {
			t.Errorf("peer %d reports zero exchange traffic", rank)
		}
	}
}

func TestRunDistributedFTOverTCPSurvivesPeerRankDeath(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxIter = 4
	clean, _, err := miniSim(t, opts).RunDistributedFTCtx(context.Background(), DistConfig{TE: 2, TA: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Rank 1's cluster kills its own (local) rank mid-iteration 1. Its
	// transport tears down, so peer 0 observes the death as a connection
	// loss → ErrRankDead; both survivors restore the last checkpoint,
	// degrade to the local shared-memory SSE kernels, and must still land
	// on the fault-free observables.
	results, _, errs := runTCPPeers(t, opts, func(rank int, cfg *DistConfig) {
		if rank == 1 {
			cfg.Fault = &comm.FaultPlan{Kill: true, KillRank: 1, KillAtOp: 3}
			cfg.FaultIter = 1
		}
	})
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("peer %d: %v", rank, err)
		}
	}
	for rank, res := range results {
		if res.Recoveries != 1 {
			t.Errorf("peer %d Recoveries = %d, want 1", rank, res.Recoveries)
		}
		if d := clean.GLess.MaxAbsDiff(res.GLess); d > 1e-8 {
			t.Errorf("peer %d recovered trajectory diverged: %g", rank, d)
		}
		if d := math.Abs(clean.Obs.CurrentL - res.Obs.CurrentL); d > 1e-8*(1+math.Abs(clean.Obs.CurrentL)) {
			t.Errorf("peer %d recovered current differs: %g vs %g", rank, res.Obs.CurrentL, clean.Obs.CurrentL)
		}
	}
}

func TestRunDistributedFTRejectsMismatchedCluster(t *testing.T) {
	cl := comm.NewCluster(4)
	defer cl.Close()
	cfg := DistConfig{TE: 2, TA: 1, Cluster: cl}
	if _, _, err := miniSim(t, DefaultOptions()).RunDistributedFTCtx(context.Background(), cfg); err == nil {
		t.Fatal("a 4-rank cluster must not carry a 2×1 grid")
	}
}
