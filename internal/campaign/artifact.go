package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
)

// Artifacts: a succeeded campaign's results rendered for consumption —
// CSV for plotting, JSON for programmatic diffing. Values print with
// %.17g so a round-trip through the artifact preserves every float64 bit
// (the acceptance bar is 1e-8 agreement against direct runs; the
// artifact itself must not be the lossy step).

// IVRow is one I–V curve point in the JSON artifact.
type IVRow struct {
	// Bias is the rung's source-drain bias [eV]; CurrentL/R the terminal
	// contact currents.
	Bias     float64 `json:"bias"`
	CurrentL float64 `json:"current_l"`
	CurrentR float64 `json:"current_r"`
	// Iterations/Converged/WarmStarted describe the run that produced it.
	Iterations  int  `json:"iterations"`
	Converged   bool `json:"converged"`
	WarmStarted bool `json:"warm_started"`
}

// TERow is one (bias, energy) sample of a T(E) spectrum.
type TERow struct {
	// Bias and Energy locate the sample; Current is the kz-summed
	// spectral current I(E) at the left contact.
	Bias    float64 `json:"bias"`
	Energy  float64 `json:"energy"`
	Current float64 `json:"current"`
	// Transmission is the effective transmission I(E)/(f_L − f_R) — the
	// Landauer reading of the spectral current, zero where the Fermi
	// window closes and the quotient would be ill-conditioned.
	Transmission float64 `json:"transmission"`
}

// ArtifactDoc is the JSON artifact body.
type ArtifactDoc struct {
	// ID and Kind identify the campaign the artifact belongs to.
	ID   string `json:"id"`
	Kind Kind   `json:"kind"`
	// IV holds the curve for kind "iv"; TE the spectra for kind "te".
	IV []IVRow `json:"iv,omitempty"`
	TE []TERow `json:"te,omitempty"`
}

// fermi is the Fermi–Dirac occupation at energy e for chemical potential
// mu and thermal energy kt.
func fermi(e, mu, kt float64) float64 {
	return 1 / (1 + math.Exp((e-mu)/kt))
}

// Artifact assembles the campaign's artifact document. It is only
// available once the campaign has succeeded — a partial curve would be
// indistinguishable from a complete one downstream.
func (c *Campaign) Artifact() (*ArtifactDoc, error) {
	if s := c.Snapshot(); s.State != StateSucceeded {
		return nil, fmt.Errorf("campaign: %s has no artifact (state %s)", c.id, s.State)
	}
	c.Lock()
	defer c.Unlock()
	doc := &ArtifactDoc{ID: c.id, Kind: c.req.Kind}
	switch c.req.Kind {
	case IV:
		for i := range c.points {
			p, out := &c.points[i], c.outcomes[i]
			doc.IV = append(doc.IV, IVRow{
				Bias:        p.Bias,
				CurrentL:    out.Obs.CurrentL,
				CurrentR:    out.Obs.CurrentR,
				Iterations:  out.Iterations,
				Converged:   out.Converged,
				WarmStarted: out.WarmStarted,
			})
		}
	case TE:
		grid := c.req.Config.Device.Grid()
		for i := range c.points {
			p, out := &c.points[i], c.outcomes[i]
			for e, cur := range out.Obs.CurrentPerEnergy {
				en := grid.Energy(e)
				// The Fermi window f_L − f_R at this energy; outside it
				// the spectral current vanishes and T = I/(f_L−f_R)
				// would divide ~0 by ~0.
				win := fermi(en, p.Bias/2, c.req.Config.KT) - fermi(en, -p.Bias/2, c.req.Config.KT)
				t := 0.0
				if math.Abs(win) > 1e-12 {
					t = cur / win
				}
				doc.TE = append(doc.TE, TERow{Bias: p.Bias, Energy: en, Current: cur, Transmission: t})
			}
		}
	}
	return doc, nil
}

// CSV renders the artifact as a CSV table:
//
//	iv: bias,current_l,current_r,iterations,converged,warm_started
//	te: bias,energy,current,transmission
func (c *Campaign) CSV() ([]byte, error) {
	doc, err := c.Artifact()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	switch doc.Kind {
	case IV:
		buf.WriteString("bias,current_l,current_r,iterations,converged,warm_started\n")
		for _, r := range doc.IV {
			fmt.Fprintf(&buf, "%.17g,%.17g,%.17g,%d,%t,%t\n",
				r.Bias, r.CurrentL, r.CurrentR, r.Iterations, r.Converged, r.WarmStarted)
		}
	case TE:
		buf.WriteString("bias,energy,current,transmission\n")
		for _, r := range doc.TE {
			fmt.Fprintf(&buf, "%.17g,%.17g,%.17g,%.17g\n", r.Bias, r.Energy, r.Current, r.Transmission)
		}
	}
	return buf.Bytes(), nil
}

// JSON renders the artifact as indented JSON.
func (c *Campaign) JSON() ([]byte, error) {
	doc, err := c.Artifact()
	if err != nil {
		return nil, err
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
