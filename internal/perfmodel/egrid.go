package perfmodel

import (
	"math"

	"negfsim/internal/device"
)

// Adaptive energy-grid model: the refinement loop (internal/egrid) solves
// RGF only at active energy points, so its saving over the uniform grid
// is the fraction of fine-grid points it never activates, discounted by
// the extra Born rounds the controller spends converging the grid. The
// model below predicts that saving from the spectral structure a device
// kind implies — used to decide whether an "adapt" block is worth it
// before running, and pinned against measured AdaptReports in the tests.

// Spectral-concentration fractions per device kind: the fraction of the
// energy window carrying structure the controller must resolve at
// tolerance (resonances plus the bias-window edges). Calibrated against
// the adaptive-vs-uniform runs recorded in EXPERIMENTS.md:
// quasi-1D kinds with few propagating modes (chain, cnt) concentrate
// current in narrow resonances; wider structures (nanowire, gnr) spread
// it over more of the window.
var spectralFraction = map[string]float64{
	"chain":    0.20,
	"cnt":      0.25,
	"nanowire": 0.35,
	"gnr":      0.35,
}

// defaultSpectralFraction covers unknown kinds conservatively.
const defaultSpectralFraction = 0.5

// adaptRoundOverhead is the Born-solve multiplier of the refinement loop
// relative to a single uniform solve: early rounds run on small grids,
// so the round ladder costs roughly this factor in re-solved points
// (measured ≈1.3–1.6 across the EXPERIMENTS.md devices; Σ-chained rounds
// converge in fewer Born iterations, landing at the low end).
const adaptRoundOverhead = 1.45

// AdaptPointsSaved predicts the active-point saving of an adaptive run:
// the expected final active count and the fraction of per-round RGF
// solves avoided relative to the uniform grid (0 when the model predicts
// adaptation would not pay, e.g. tiny grids that seed near-full).
func AdaptPointsSaved(p device.Params, kind string) (activePoints int, savedFrac float64) {
	frac, ok := spectralFraction[kind]
	if !ok {
		frac = defaultSpectralFraction
	}
	// The controller's floor: the coarse seed (~NE/8, at least 9) plus
	// the structured fraction resolved to full fine-grid density.
	seed := float64(p.NE)/8 + 1
	if seed < 9 {
		seed = 9
	}
	active := math.Ceil(seed + frac*float64(p.NE))
	if active > float64(p.NE) {
		active = float64(p.NE)
	}
	saved := 1 - active/float64(p.NE)
	if saved < 0 {
		saved = 0
	}
	return int(active), saved
}

// AdaptSpeedup predicts the wall-time ratio uniform/adaptive for the GF
// phase (the phase adaptation accelerates; the SSE phase still runs on
// the full commensurate grid). >1 means adaptation pays. The prediction
// folds the refinement ladder's re-solve overhead into the saving.
func AdaptSpeedup(p device.Params, kind string) float64 {
	_, saved := AdaptPointsSaved(p, kind)
	cost := (1 - saved) * adaptRoundOverhead
	if cost <= 0 {
		return 1
	}
	s := 1 / cost
	if s < 1 {
		return 1
	}
	return s
}

// AdaptRGFFlops returns the predicted per-iteration RGF flops of an
// adaptive run — RGFFlops scaled to the predicted active point count.
func AdaptRGFFlops(p device.Params, kind string) float64 {
	active, _ := AdaptPointsSaved(p, kind)
	return RGFFlops(p) * float64(active) / float64(p.NE)
}
