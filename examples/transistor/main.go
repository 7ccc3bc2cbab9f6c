// Transistor: the full TCAD loop on a synthetic fin — the coupled
// NEGF–Poisson (Gummel) solver sweeps the gate voltage at fixed drain bias
// and prints the transfer characteristic I_D(V_G), plus the converged
// electrostatic potential across the device cross-section. This is the
// workload class (gate-controlled FinFETs, Fig. 1) whose electro-thermal
// analysis motivates the paper.
//
//	go run ./examples/transistor
package main

import (
	"context"
	"fmt"
	"log"

	"negfsim/internal/core"
	"negfsim/internal/device"
)

func main() {
	log.SetFlags(0)
	dev, err := device.New(device.Mini())
	if err != nil {
		log.Fatal(err)
	}
	const vd = 0.2
	fmt.Printf("fin: %d atoms (%d×%d), drain bias %.2f V\n\n", dev.P.NA, dev.P.Cols(), dev.P.Rows, vd)
	fmt.Println("transfer characteristic (coupled NEGF–Poisson):")
	fmt.Printf("%-10s %-14s %-8s %-10s\n", "V_G [V]", "I_D", "Gummel", "max φ [V]")

	var last *core.ElectrostaticResult
	for _, vg := range []float64{0.0, 0.1, 0.2, 0.3} {
		opts := core.DefaultOptions()
		opts.MaxIter = 3
		opts.Contacts.MuL = vd / 2
		opts.Contacts.MuR = -vd / 2
		sim := core.New(dev, opts)
		gate := core.DefaultGate(vg, 0)
		gate.MaxOuter = 5
		res, err := sim.RunWithPoissonCtx(context.Background(), gate)
		if err != nil {
			log.Fatal(err)
		}
		var phiMax float64
		for _, v := range res.Potential {
			if v > phiMax {
				phiMax = v
			}
		}
		fmt.Printf("%-10.2f %+.6e %-8d %-10.4f\n", vg, res.Obs.CurrentL, res.OuterIterations, phiMax)
		last = res
	}

	fmt.Println("\nconverged potential at the last bias point (V, by grid position):")
	p := dev.P
	for r := p.Rows - 1; r >= 0; r-- {
		fmt.Printf("  y=%d |", r)
		for c := 0; c < p.Cols(); c++ {
			fmt.Printf(" %+0.3f", last.Potential[c*p.Rows+r])
		}
		fmt.Println(" |")
	}
	fmt.Println("        source → drain  (top row gated)")
}
