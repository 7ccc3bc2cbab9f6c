// FinFET self-heating: the workload that motivates the paper (Fig. 1).
// A synthetic fin slice is driven with a source-drain bias sweep; for each
// bias point the self-consistent electron-phonon solver yields the I-V
// characteristic and the per-atom dissipated power, which is rendered as an
// atomically-resolved "temperature" map over the device cross-section —
// the analogue of the heat map in Fig. 1(d).
//
//	go run ./examples/finfet_selfheating
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

	p := device.Params{
		Nkz: 3, Nqz: 3, NE: 20, Nw: 4,
		NA: 40, NB: 4, Norb: 2, N3D: 3,
		Rows: 4, Bnum: 5,
		Emin: -1, Emax: 1, Seed: 42,
	}
	dev, err := device.New(p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fin slice: %d atoms (%d columns × %d rows), source at column 0, drain at column %d\n\n",
		p.NA, p.Cols(), p.Rows, p.Cols()-1)

	fmt.Println("I-V sweep (self-consistent with electron-phonon scattering):")
	fmt.Printf("%-12s %-14s %-14s %-12s\n", "V_DS [V]", "I_D", "dissipated", "iterations")
	var lastRes *core.Result
	for _, vds := range []float64{0.1, 0.2, 0.3, 0.4} {
		opts := core.DefaultOptions()
		opts.MaxIter = 5
		opts.Contacts.MuL = vds / 2
		opts.Contacts.MuR = -vds / 2
		sim := core.New(dev, opts)
		res, err := sim.RunCtx(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		var dissip float64
		for _, d := range res.Obs.DissipationPerAtom {
			dissip += d
		}
		fmt.Printf("%-12.2f %+.6e %+.6e %-12d\n", vds, res.Obs.CurrentL, dissip, res.Iterations)
		lastRes = res
	}

	fmt.Println("\natomically-resolved dissipation map at V_DS = 0.40 V")
	fmt.Println("(column = transport direction x, row = fin width y; hotter = more energy")
	fmt.Println("exchanged with the lattice, the self-heating picture of Fig. 1(d)):")
	printHeatMap(dev, lastRes.Obs.DissipationPerAtom)
}

// printHeatMap renders the per-atom dissipation on the 2-D slice.
func printHeatMap(dev *device.Device, dissip []float64) {
	shades := []byte(" .:-=+*#%@")
	var lo, hi float64
	for i, d := range dissip {
		if i == 0 || d < lo {
			lo = d
		}
		if i == 0 || d > hi {
			hi = d
		}
	}
	span := hi - lo
	if span == 0 {
		span = 1
	}
	for r := dev.P.Rows - 1; r >= 0; r-- {
		fmt.Printf("  y=%d |", r)
		for c := 0; c < dev.P.Cols(); c++ {
			a := c*dev.P.Rows + r
			level := int(float64(len(shades)-1) * (dissip[a] - lo) / span)
			fmt.Printf(" %c", shades[level])
		}
		fmt.Println(" |")
	}
	fmt.Print("       ")
	for c := 0; c < dev.P.Cols(); c++ {
		fmt.Print("--")
	}
	fmt.Println("\n        source" + pad(2*dev.P.Cols()-12) + "drain")
	fmt.Printf("  scale: ' ' = %.2e … '@' = %.2e\n", lo, hi)
}

func pad(n int) string {
	if n < 1 {
		n = 1
	}
	s := make([]byte, n)
	for i := range s {
		s[i] = ' '
	}
	return string(s)
}
