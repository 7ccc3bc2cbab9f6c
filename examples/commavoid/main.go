// Communication avoidance demo: runs the SSE data exchange both ways on the
// in-process simulated cluster — OMEN's original momentum-energy rounds and
// the paper's communication-avoiding atom×energy decomposition — measuring
// every byte, then executes the CA decomposition END-TO-END with real
// Green's function tensors and verifies the distributed self-energies
// against the serial kernel.
//
//	go run ./examples/commavoid
package main

import (
	"context"
	"fmt"
	"log"

	"negfsim/internal/comm"
	"negfsim/internal/core"
	"negfsim/internal/device"
	"negfsim/internal/sse"
)

func main() {
	log.SetFlags(0)

	dev, err := device.New(device.Mini())
	if err != nil {
		log.Fatal(err)
	}
	p := dev.P
	const procs = 4

	// --- pattern-level comparison (sized buffers, measured bytes) --------
	fmt.Printf("SSE exchange on a %d-rank simulated cluster (NA=%d, Nkz=%d, NE=%d):\n\n",
		procs, p.NA, p.Nkz, p.NE)

	cOmen := comm.NewCluster(procs)
	if err := cOmen.Run(func(r *comm.Rank) error { return comm.OMENExchangeSSE(r, p) }); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  OMEN scheme (Nqz·Nω rounds of bcast + ring + reduce): %8d bytes\n", cOmen.TotalBytes())

	best, _ := comm.SearchTiles(p, procs, 0)
	cDace := comm.NewCluster(procs)
	if err := cDace.Run(func(r *comm.Rank) error {
		return comm.DaCeExchangeSSE(r, p, best.TE, best.TA)
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  DaCe scheme (one alltoallv, TE=%d × TA=%d tiling):    %8d bytes\n",
		best.TE, best.TA, cDace.TotalBytes())
	fmt.Printf("  reduction: %.1f×\n\n", float64(cOmen.TotalBytes())/float64(cDace.TotalBytes()))

	// --- end-to-end CA execution with real data --------------------------
	fmt.Println("end-to-end communication-avoiding SSE with real tensors:")
	sim := core.New(dev, core.DefaultOptions())
	ballistic, err := sim.RunCtx(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	in := sse.PhaseInput{
		GLess: ballistic.GLess, GGtr: ballistic.GGtr,
		DLess: ballistic.DLess, DGtr: ballistic.DGtr,
	}
	serial := sim.Kernel.ComputePhase(in, sse.DaCe)
	dist, err := sim.DistributedSSE(in, best.TE, best.TA)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  measured traffic: %d bytes (closed-form model: %.0f bytes)\n",
		dist.MeasuredBytes, dist.ModelBytes)
	fmt.Printf("  max |Σ_serial − Σ_distributed| = %.2e\n",
		serial.SigmaLess.MaxAbsDiff(dist.SigmaLess))
	fmt.Printf("  max |Π_serial − Π_distributed| = %.2e\n",
		serial.PiLess.MaxAbsDiff(dist.PiLess))
	fmt.Println("\nthe distributed tiles reproduce the serial self-energies to rounding,")
	fmt.Println("while moving orders of magnitude less data than the original scheme —")
	fmt.Println("the paper's communication-avoiding result at laptop scale.")
}
