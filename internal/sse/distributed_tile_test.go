package sse_test

import (
	"math"
	"math/rand"
	"testing"

	"negfsim/internal/core"
	"negfsim/internal/device"
	"negfsim/internal/sse"
)

// TestDistributedTileMatchesReferenceOrder pins a 1×2 distributed SSE
// phase to the serial reference-order phase bit for bit: each rank runs the
// tile kernels on its atom half over the whole energy grid, and the
// exchange only moves and assembles the results.
func TestDistributedTileMatchesReferenceOrder(t *testing.T) {
	dev, err := device.New(device.Mini())
	if err != nil {
		t.Fatal(err)
	}
	s := core.New(dev, core.DefaultOptions())
	in := sse.RandomPhaseInput(rand.New(rand.NewSource(41)), dev.P)
	want := s.Kernel.ReferenceOrderPhase(in)
	got, err := s.DistributedSSE(in, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		want, got []complex128
	}{
		{"Σ^<", want.SigmaLess.Data, got.SigmaLess.Data},
		{"Σ^>", want.SigmaGtr.Data, got.SigmaGtr.Data},
		{"Π^<", want.PiLess.Data, got.PiLess.Data},
		{"Π^>", want.PiGtr.Data, got.PiGtr.Data},
	} {
		if len(c.want) != len(c.got) {
			t.Fatalf("%s: %d elements, reference order %d", c.name, len(c.got), len(c.want))
		}
		for i := range c.want {
			w, g := c.want[i], c.got[i]
			if math.Float64bits(real(w)) != math.Float64bits(real(g)) || math.Float64bits(imag(w)) != math.Float64bits(imag(g)) {
				t.Errorf("%s differs from the reference order at element %d: %v, want %v", c.name, i, g, w)
				break
			}
		}
	}
}
