// Package campaign turns parameter sweeps into first-class requests: an
// I–V curve or a T(E) spectrum is submitted once and executed as a ladder
// of bias points, each point an ordinary job of its host: a qtsimd
// scheduler (in-process for qtsim -campaign) or the sharded front.
//
// The physics motivation is the same data-movement argument the rest of
// the service stack follows: adjacent bias points share almost all of
// their converged self-energy structure, so a campaign chains them —
// point k+1 is warm-started from point k's Σ≷/Π≷ checkpoint through its
// host's seeded submit, and the Born loop starts near the fixed point
// instead of at zero. The chain is the only source of a point's seed. The ladder runs as a few such chains side by side,
// each headed by a cold point, so the backend's parallelism is not traded
// for the iterations a seed saves.
//
// A campaign's artifacts are served in two formats: CSV for plotting and
// JSON for programmatic diffing against point-by-point direct runs.
package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"negfsim/internal/core"
)

// MaxLadder caps a request's bias points: a ladder is allocated from the
// request before any point runs, so the request size must not choose it.
const MaxLadder = 1024

// Kind selects what a campaign computes.
type Kind string

// The two campaign kinds.
const (
	// IV sweeps the bias ladder and reports the terminal current at every
	// point — the I–V curve.
	IV Kind = "iv"
	// TE sweeps the bias ladder (a single point by default) and reports
	// the per-energy spectral current and effective transmission at each
	// point — the T(E) spectrum.
	TE Kind = "te"
)

// Request describes one campaign: the base run configuration plus the
// bias ladder swept over it. The JSON schema is strict; exactly one of
// the ladder spellings (biases, or bias_start/bias_stop/bias_points) may
// be used, and a TE request may omit both to mean "one spectrum at the
// config's own bias".
type Request struct {
	// Kind is "iv" or "te".
	Kind Kind `json:"kind"`
	// Config is the base run configuration; its Bias field is overridden
	// per ladder point. Campaign points are plain serial runs — Dist,
	// Space and Gate are rejected.
	Config core.RunConfig `json:"config"`

	// BiasStart/BiasStop/BiasPoints describe an evenly spaced ladder
	// inclusive of both ends.
	BiasStart  float64 `json:"bias_start,omitempty"`
	BiasStop   float64 `json:"bias_stop,omitempty"`
	BiasPoints int     `json:"bias_points,omitempty"`
	// Biases is the explicit ladder alternative.
	Biases []float64 `json:"biases,omitempty"`

	// WarmStart seeds each point from an adjacent finished point's
	// checkpoint — its predecessor in the point's chain — and nil means
	// true. False runs every point cold. Either way the manager's
	// maxParallel bounds the points in flight.
	WarmStart *bool `json:"warm_start,omitempty"`
}

// DecodeRequest reads one request with the strict schema: an unknown
// field is an error.
func DecodeRequest(r io.Reader) (Request, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var req Request
	err := dec.Decode(&req)
	return req, err
}

// Warm reports the effective warm-start mode (default true).
func (r *Request) Warm() bool { return r.WarmStart == nil || *r.WarmStart }

// Validate checks the request: kind, base config, and ladder shape.
// Errors name the offending JSON field.
func (r *Request) Validate() error {
	switch r.Kind {
	case IV, TE:
	default:
		return fmt.Errorf("campaign: kind must be %q or %q, got %q", IV, TE, r.Kind)
	}
	if err := r.Config.Validate(); err != nil {
		return fmt.Errorf("campaign: config: %w", err)
	}
	if !r.Config.PlainSerial() {
		return fmt.Errorf("campaign: config: campaign points are plain serial runs (no dist, no space, no gate)")
	}
	explicit := len(r.Biases) > 0
	ranged := r.BiasStart != 0 || r.BiasStop != 0 || r.BiasPoints != 0
	if explicit && ranged {
		return fmt.Errorf("campaign: biases and bias_start/bias_stop/bias_points are mutually exclusive")
	}
	if len(r.Biases) > MaxLadder {
		return fmt.Errorf("campaign: biases: at most %d ladder points, got %d", MaxLadder, len(r.Biases))
	}
	if ranged {
		if r.BiasPoints < 2 || r.BiasPoints > MaxLadder {
			return fmt.Errorf("campaign: bias_points: need 2 to %d ladder points, got %d", MaxLadder, r.BiasPoints)
		}
		// Endpoints that coincide, overflow or lie too close for the
		// point count would repeat or corrupt ladder points.
		l := r.Ladder()
		for i := 1; i < len(l); i++ {
			if !((l[i]-l[i-1])*(r.BiasStop-r.BiasStart) > 0) || math.IsInf(l[i], 0) {
				return fmt.Errorf("campaign: bias_stop: %d points from %g to %g are not strictly monotone", r.BiasPoints, r.BiasStart, r.BiasStop)
			}
		}
	}
	if !explicit && !ranged && r.Kind == IV {
		return fmt.Errorf("campaign: iv needs a ladder: biases, or bias_start/bias_stop/bias_points")
	}
	return nil
}

// Ladder expands the request's bias ladder. A TE request without one
// yields the single point at the base config's bias.
func (r *Request) Ladder() []float64 {
	if len(r.Biases) > 0 {
		return append([]float64(nil), r.Biases...)
	}
	if r.BiasPoints < 2 {
		return []float64{r.Config.Bias}
	}
	out := make([]float64, r.BiasPoints)
	step := (r.BiasStop - r.BiasStart) / float64(r.BiasPoints-1)
	for i := range out {
		out[i] = r.BiasStart + float64(i)*step
	}
	return out
}

// pointConfig is the run configuration of ladder point i.
func (r *Request) pointConfig(bias float64) core.RunConfig {
	cfg := r.Config
	cfg.Bias = bias
	return cfg
}
