package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"negfsim/internal/device"
	"negfsim/internal/obs"
	"negfsim/internal/poisson"
)

// Timers of the electrostatic coupling: one core.gummel span per outer
// iteration (NEGF run + charge integration + Poisson solve + damping) and
// one core.poisson span per Poisson solve inside it.
var (
	obsSpanGummel  = obs.GetTimer("core.gummel")
	obsSpanPoisson = obs.GetTimer("core.poisson")
)

// NEGF–Poisson (Gummel) coupling: the gate/drain biases of the FinFET in
// Fig. 1 enter the quantum solver through the electrostatic potential. The
// outer loop alternates (i) a self-consistent NEGF run under the current
// potential, (ii) the electron density it implies, (iii) a Poisson solve
// with the charge imbalance as source, damped back into the potential —
// the standard TCAD construction OMEN embeds its transport kernel in.
//
// The charge model is the δn convention: the first NEGF run under the flat
// potential defines the neutral reference density, so the equilibrium
// device is charge-neutral by construction and the first potential is the
// pure Laplace (geometry) solution.

// GateSpec drives the electrostatic boundary and the Gummel iteration. The
// JSON tags are the schema of the optional "gate" section of RunConfig.
type GateSpec struct {
	// VG is the gate voltage (top row between the contacts).
	VG float64 `json:"vg"`
	// VS, VD are the source/drain contact potentials.
	VS float64 `json:"vs"`
	VD float64 `json:"vd"`

	// Coupling converts charge imbalance to Poisson source strength
	// (absorbs q²/ε into one synthetic constant).
	Coupling float64 `json:"coupling"`
	// Damping is the Gummel potential update factor in (0, 1].
	Damping float64 `json:"damping"`
	// MaxOuter bounds the Gummel iterations.
	MaxOuter int `json:"max_outer"`
	// Tol is the convergence threshold on max |Δφ| (volts).
	Tol float64 `json:"tol"`
}

// DefaultGate returns a stable Gummel configuration.
func DefaultGate(vg, vd float64) GateSpec {
	return GateSpec{VG: vg, VD: vd, Coupling: 0.1, Damping: 0.6, MaxOuter: 8, Tol: 1e-4}
}

// ElectrostaticResult is the outcome of a coupled run.
type ElectrostaticResult struct {
	*Result
	// Potential is the converged per-atom electrostatic potential.
	Potential []float64
	// ChargePerAtom is the final electron density (relative to the neutral
	// reference).
	ChargePerAtom []float64
	// OuterIterations and PhiResiduals trace the Gummel loop.
	OuterIterations int
	PhiResiduals    []float64
	GummelConverged bool
}

// chargePerAtom integrates the electron density from G^<:
// n_a = Σ_{kz,E} Im tr G^<[kz,E,a] · w_E/(2π·Nkz), with w_E the active
// grid's quadrature weight (bitwise ΔE on the full grid; inactive energies
// carry zero weight and are skipped).
func (s *Simulator) chargePerAtom(r *Result) []float64 {
	p := s.Dev.P
	out := make([]float64, p.NA)
	for kz := 0; kz < p.Nkz; kz++ {
		for e := 0; e < p.NE; e++ {
			w := s.grid.Weight(e) / (2 * math.Pi * float64(p.Nkz))
			if w == 0 {
				continue
			}
			for a := 0; a < p.NA; a++ {
				out[a] += imag(r.GLess.Block(kz, e, a).Trace()) * w
			}
		}
	}
	return out
}

// applyPotential rebuilds the cached Hamiltonians with the onsite shift
// −φ_a on every orbital of atom a (electron potential energy in natural
// units q = 1).
func (s *Simulator) applyPotential(phi []float64) {
	p := s.Dev.P
	apb := p.AtomsPerBlock()
	for kz := 0; kz < p.Nkz; kz++ {
		h := s.Dev.Hamiltonian(kz)
		for a := 0; a < p.NA; a++ {
			blk := s.Dev.BlockOf(a)
			off := (a - blk*apb) * p.Norb
			for o := 0; o < p.Norb; o++ {
				h.Diag[blk].Set(off+o, off+o, h.Diag[blk].At(off+o, off+o)-complex(phi[a], 0))
			}
		}
		s.h[kz] = h
	}
	s.resetElectronBoundaries()
}

// RunWithPoissonCtx executes the coupled NEGF–Poisson loop around the
// serial Born loop from Σ = Π = 0. It stays for the benchmark's adapter;
// frontends call Execute, which wraps the loop around any placement and
// grid policy.
func (s *Simulator) RunWithPoissonCtx(ctx context.Context, g GateSpec) (*ElectrostaticResult, error) {
	es, _, err := s.gummel(ctx, g, func() (*Result, int64, error) { return s.born(ctx, DistConfig{}) })
	return es, err
}

// gummel runs the coupled NEGF–Poisson loop: every outer step applies the
// current potential and calls solve, the inner self-consistent run (the
// Born loop under the plan's placement, or the adaptive rounds under it),
// which starts afresh from the plan's seed each time. Cancellation is
// observed at every outer iteration boundary and, through solve, inside
// each inner run, so cancel latency stays bounded by one Born iteration
// even mid-Gummel. The returned bytes sum the inner runs' exchange traffic.
func (s *Simulator) gummel(ctx context.Context, g GateSpec, solve func() (*Result, int64, error)) (*ElectrostaticResult, int64, error) {
	p := s.Dev.P
	if g.MaxOuter <= 0 {
		return nil, 0, errors.New("core: GateSpec.MaxOuter must be positive")
	}
	if g.Damping <= 0 || g.Damping > 1 {
		return nil, 0, fmt.Errorf("core: GateSpec.Damping %g outside (0, 1]", g.Damping)
	}
	dirichlet := poisson.GateStack(p.Cols(), p.Rows, g.VS, g.VD, g.VG)
	phi := make([]float64, p.NA)
	var reference []float64
	var bytes int64
	out := &ElectrostaticResult{Potential: phi}
	// The pristine Hamiltonians come back for later uses of the simulator,
	// whether the loop finishes or fails.
	defer func() {
		for kz := 0; kz < p.Nkz; kz++ {
			s.h[kz] = s.Dev.Hamiltonian(kz)
		}
		s.resetElectronBoundaries()
	}()

	for outer := 0; outer < g.MaxOuter; outer++ {
		if cerr := ctx.Err(); cerr != nil {
			return nil, bytes, fmt.Errorf("core: Gummel loop cancelled before outer %d: %w", outer, cerr)
		}
		outerStart := time.Now()
		s.applyPotential(phi)
		res, b, err := solve()
		bytes += b
		if err != nil {
			return nil, bytes, fmt.Errorf("core: Gummel outer %d: %w", outer, err)
		}
		out.Result = res
		out.OuterIterations = outer + 1
		n := s.chargePerAtom(res)
		if reference == nil {
			reference = n // neutral reference: the flat-potential density
		}
		charge := make([]float64, p.NA)
		for a := range charge {
			// Electrons carry negative charge: an excess of density lowers
			// the potential.
			charge[a] = -g.Coupling * (n[a] - reference[a])
			out.ChargePerAtom = charge
		}
		spp := obsSpanPoisson.Start()
		next, err := poisson.Solve(poisson.Problem{
			Cols: p.Cols(), Rows: p.Rows, H: device.LatticeConst,
			Dirichlet: dirichlet, Charge: charge,
		}, 1e-10, 0)
		spp.End()
		if err != nil {
			return nil, bytes, fmt.Errorf("core: Gummel outer %d Poisson: %w", outer, err)
		}
		var dmax float64
		for a := range phi {
			updated := (1-g.Damping)*phi[a] + g.Damping*next[a]
			if d := math.Abs(updated - phi[a]); d > dmax {
				dmax = d
			}
			phi[a] = updated
		}
		out.PhiResiduals = append(out.PhiResiduals, dmax)
		obsSpanGummel.Observe(time.Since(outerStart))
		if dmax < g.Tol {
			out.GummelConverged = true
			break
		}
	}
	return out, bytes, nil
}
