package core

import (
	"context"

	"negfsim/internal/comm"
	"negfsim/internal/sse"
	"negfsim/internal/tensor"
)

// phaseInputOf extracts the SSE inputs from a run's final Green's functions.
func phaseInputOf(r *Result) sse.PhaseInput {
	return sse.PhaseInput{GLess: r.GLess, GGtr: r.GGtr, DLess: r.DLess, DGtr: r.DGtr}
}

// gfPhaseFresh runs one GF phase into fresh storage and returns it.
func (s *Simulator) gfPhaseFresh(ctx context.Context, spatial *comm.Cluster, se selfEnergy) (
	gl, gg *tensor.GTensor, dl, dg *tensor.DTensor, o Observables, err error) {
	var gf greens
	s.readyGreens(&gf, greens{})
	if o, err = s.gfPhase(ctx, spatial, se, gf, &gfScratch{}); err != nil {
		return nil, nil, nil, nil, o, err
	}
	return gf.gl, gf.gg, gf.dl, gf.dg, o, nil
}
