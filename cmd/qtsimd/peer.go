package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"strings"
	"syscall"

	"negfsim/internal/comm"
	"negfsim/internal/core"
)

// Peer mode: instead of serving the HTTP job API, the process hosts ONE
// rank of a multi-process TCP cluster and executes a single distributed
// fault-tolerant run SPMD-style — every peer runs the replicated GF phase
// and the cluster carries the communication-avoiding SSE exchanges over
// loopback or the network. The run config (the same document qtsim and the
// job API consume) must carry a "dist" grid whose TE·TA equals the peer
// count.
//
//	qtsimd -peer-rank 0 -peers 127.0.0.1:9000,127.0.0.1:9001 -peer-config run.json -result-out r0.json &
//	qtsimd -peer-rank 1 -peers 127.0.0.1:9000,127.0.0.1:9001 -peer-config run.json -result-out r1.json
//
// Links are dialed lazily with retries, so peers may start in any order.
// If a peer process dies mid-run (crash, OOM, kill -9), the survivors
// detect the connection loss promptly, restore the last checkpoint, and
// finish the run on their local shared-memory kernels with the same
// observables — the drill behind -die-after-iter, which makes a peer
// SIGKILL itself after N completed Born iterations.

// peerResult is the JSON document a peer writes to -result-out: the
// scalar observables and run bookkeeping used to compare peers against a
// single-process baseline.
type peerResult struct {
	Rank       int       `json:"rank"`
	Iterations int       `json:"iterations"`
	Converged  bool      `json:"converged"`
	Recoveries int       `json:"recoveries"`
	Bytes      int64     `json:"bytes"`
	CurrentL   float64   `json:"current_l"`
	CurrentR   float64   `json:"current_r"`
	HeatL      float64   `json:"heat_l"`
	HeatR      float64   `json:"heat_r"`
	Residuals  []float64 `json:"residuals"`
}

// runPeer executes the one-shot SPMD peer run and returns the process's
// exit error.
func runPeer(rank int, peersCSV, cfgPath, resultOut string, dieAfter int) error {
	peers := strings.Split(peersCSV, ",")
	if rank < 0 || rank >= len(peers) {
		return fmt.Errorf("-peer-rank %d outside the %d-entry peer list", rank, len(peers))
	}
	cfg := core.DefaultRunConfig()
	if cfgPath != "" {
		loaded, err := core.LoadRunConfig(cfgPath)
		if err != nil {
			return err
		}
		cfg = *loaded
	}
	distCfg, distributed, err := cfg.DistConfig()
	if err != nil {
		return err
	}
	if !distributed {
		return fmt.Errorf("peer mode needs a distributed run: set \"dist\" (e.g. \"2x1\") or \"space\" in %s", cfgPath)
	}
	// Reject what Execute would before dialling anyone.
	if cfg.AdaptEnabled() {
		return fmt.Errorf("peer mode does not run \"adapt\" configs (the grid controller must run in a single process): %s", cfgPath)
	}
	if err := distCfg.CheckRanks(len(peers)); err != nil {
		return err
	}
	opts, err := cfg.Options()
	if err != nil {
		return err
	}
	if dieAfter > 0 {
		// The fault drill: a hard self-kill after N completed iterations, so
		// the death looks exactly like a crashed peer (no graceful teardown,
		// no FIN before the checkpointed state diverges).
		opts.OnIteration = func(st core.IterStats) {
			if st.Iter >= dieAfter {
				log.Printf("peer %d: -die-after-iter %d reached, self-killing", rank, dieAfter)
				syscall.Kill(os.Getpid(), syscall.SIGKILL)
			}
		}
	}
	sim, err := cfg.NewSimulatorWith(opts)
	if err != nil {
		return err
	}
	cluster, err := comm.NewClusterTCP(context.Background(), rank, peers)
	if err != nil {
		return err
	}
	defer cluster.Close()

	if distCfg.TE > 0 {
		log.Printf("peer %d/%d up, dist %dx%d, peers %s", rank, len(peers), distCfg.TE, distCfg.TA, peersCSV)
	} else {
		log.Printf("peer %d/%d up, spatial split over %d ranks, peers %s", rank, len(peers), distCfg.Space, peersCSV)
	}
	if cfg.MixerOverridden() {
		log.Printf("peer %d: mixer %q is ignored under dist/space — distributed placements currently mix linearly (docs/API.md)", rank, cfg.Mixer)
	}
	run, err := sim.Execute(context.Background(), core.Plan{Config: cfg, Place: core.DistConfig{Cluster: cluster}})
	if err != nil {
		return err
	}
	res, bytes := run.Result, run.WireBytes
	log.Printf("peer %d done: %d iterations (converged %v), %.2f MiB exchanged locally, %d recoveries",
		rank, res.Iterations, res.Converged, float64(bytes)/(1<<20), res.Recoveries)
	out := peerResult{
		Rank: rank, Iterations: res.Iterations, Converged: res.Converged,
		Recoveries: res.Recoveries, Bytes: bytes,
		CurrentL: res.Obs.CurrentL, CurrentR: res.Obs.CurrentR,
		HeatL: res.Obs.HeatL, HeatR: res.Obs.HeatR,
		Residuals: res.Residuals,
	}
	if resultOut != "" {
		f, err := os.Create(resultOut)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		if err := enc.Encode(out); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}
