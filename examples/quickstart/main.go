// Quickstart: build a small synthetic nano-device, run the self-consistent
// dissipative quantum transport solver with the DaCe-transformed SSE
// kernel, and print the transport observables.
//
//	go run ./examples/quickstart
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

	// A 24-atom 2-D slice (6 columns × 4 rows) — every code path of the
	// full simulator at laptop scale.
	dev, err := device.New(device.Mini())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("device: %d atoms, %d columns × %d rows, %d RGF blocks\n",
		dev.P.NA, dev.P.Cols(), dev.P.Rows, dev.P.Bnum)

	opts := core.DefaultOptions() // DaCe kernel, 0.4 eV bias, damped Born loop
	sim := core.New(dev, opts)
	res, err := sim.RunCtx(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nBorn iterations: %d (converged: %v)\n", res.Iterations, res.Converged)
	for i, r := range res.Residuals {
		fmt.Printf("  iteration %d: |ΔG|/|G| = %.2e\n", i+1, r)
	}
	fmt.Printf("\nelectron current  I_L = %+.4e, I_R = %+.4e (conservation gap %.1e)\n",
		res.Obs.CurrentL, res.Obs.CurrentR, res.Obs.CurrentL+res.Obs.CurrentR)
	fmt.Printf("phonon heat flow  Q_L = %+.4e, Q_R = %+.4e\n", res.Obs.HeatL, res.Obs.HeatR)

	fmt.Println("\nspectral current (left contact, kz-summed):")
	for e, c := range res.Obs.CurrentPerEnergy {
		fmt.Printf("  E = %+5.2f eV  %s %.3e\n", dev.P.Energy(e), bar(c, res.Obs.CurrentPerEnergy), c)
	}
}

// bar renders a proportional ASCII bar.
func bar(v float64, all []float64) string {
	var max float64
	for _, x := range all {
		if x > max {
			max = x
		}
	}
	if max == 0 {
		return ""
	}
	n := int(30 * v / max)
	if n < 0 {
		n = 0
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}
