// Package core is the paper's primary contribution assembled into a
// runnable simulator: the self-consistent NEGF loop coupling the Green's
// function (GF) phase — RGF solves of Eqs. (1) and (2) over all momentum,
// energy and frequency points — with the scattering self-energy (SSE)
// phase of Eqs. (3)–(5), in any of the three kernel variants (naive
// reference, OMEN-style, DaCe-transformed), plus the communication-avoiding
// distributed execution of the SSE phase on the simulated cluster.
//
// There is one Born loop (born, in born.go) and one dispatch onto it,
// Simulator.Execute(ctx, Plan). Every way of running the physics is that
// loop under a placement (DistConfig: SSE phase shared-memory or on a TE×TA
// cluster, GF electron solves local or on a spatial split, per-iteration or
// persistent fabric, cold or checkpoint seed, fault policy), optionally
// inside the adaptive energy-grid rounds (RunAdaptiveCtx), and either one
// optionally inside the Gummel NEGF–Poisson iteration (gummel). Frontends
// call Execute; the four Run*Ctx methods (RunCtx, RunAdaptiveCtx,
// RunDistributedFTCtx, RunWithPoissonCtx) are argument-translating callers
// of the same loop, kept because the benchmark's adapter, a separate
// module, calls them.
package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"negfsim/internal/cmat"
	"negfsim/internal/comm"
	"negfsim/internal/device"
	"negfsim/internal/egrid"
	"negfsim/internal/obs"
	"negfsim/internal/pool"
	"negfsim/internal/rgf"
	"negfsim/internal/sse"
	"negfsim/internal/tensor"
)

// Top-level phase timers of the Born loop. core measures the phases with
// its own clock (the durations also feed Result.Timings and the
// OnIteration hook) and mirrors them onto the observability registry, so
// a scrape of /metrics sees the same breakdown the trace reports.
var (
	obsSpanGF  = obs.GetTimer("core.gf")
	obsSpanSSE = obs.GetTimer("core.sse")
	obsSpanMix = obs.GetTimer("core.mix")
)

// Options configures the self-consistent solver.
type Options struct {
	// Variant selects the SSE kernel formulation.
	Variant sse.Variant
	// MaxIter bounds the Born (GF↔SSE) iteration count.
	MaxIter int
	// Tol is the convergence threshold on the relative change of G^≷.
	Tol float64
	// Mixing linearly mixes new self-energies into the previous ones
	// (1 = full update). Values below 1 damp the Born iteration.
	Mixing float64
	// Contacts sets the electron reservoir occupations.
	Contacts rgf.Contacts
	// PhononKTL/R set the contact lattice temperatures (thermal energies).
	PhononKTL, PhononKTR float64
	// Eta is the numerical broadening of the retarded solves.
	Eta float64
	// Workers bounds the shared-memory parallelism over grid points;
	// 0 means GOMAXPROCS.
	Workers int
	// Mixer selects the self-consistency update rule (Linear or Anderson).
	Mixer MixerKind
	// AndersonHistory is the Anderson mixer's history depth (default 3).
	AndersonHistory int
	// OnIteration, when non-nil, is called after every Born iteration with
	// that iteration's phase breakdown — the hook behind cmd/qtsim's
	// -trace-out JSON trace. It runs on the solver goroutine; keep it
	// cheap (write a line, update a gauge) or the iteration time it
	// reports next will include itself.
	OnIteration func(IterStats)
}

// IterStats is one Born iteration's Table 7-style breakdown, delivered to
// Options.OnIteration. GF + SSE + Mix cover the phase work; Wall − (GF +
// SSE + Mix) is loop overhead (convergence norms, tensor bookkeeping).
type IterStats struct {
	// Iter is the 1-based Born iteration index within this run.
	Iter int
	// Wall is the full iteration wall time.
	Wall time.Duration
	// GF is the Green's-function phase: every (kz, E) electron and
	// (qz, ω) phonon RGF solve of the iteration.
	GF time.Duration
	// SSE is the scattering self-energy phase (Σ^≷ and Π^≷ kernels).
	// Zero on a final iteration that converged before the SSE phase ran.
	SSE time.Duration
	// Mix is self-energy mixing plus the retarded reconstruction.
	Mix time.Duration
	// Residual is the relative G change versus the previous iteration;
	// NaN on the first iteration, where no previous G exists.
	Residual float64
	// Converged reports whether this iteration met the tolerance.
	Converged bool
	// Spans holds the observability-timer activity recorded during the
	// iteration (rgf.electron, sse.sigma, comm.alltoallv, …). Nil unless
	// obs recording is enabled. Parallel phases accumulate worker time,
	// so span totals may exceed Wall.
	Spans []obs.TimerStat
}

// DefaultOptions returns a stable configuration for the synthetic devices.
func DefaultOptions() Options {
	return Options{
		Variant: sse.DaCe,
		MaxIter: 10,
		Tol:     1e-5,
		Mixing:  0.8,
		Contacts: rgf.Contacts{
			MuL: 0.2, MuR: -0.2, KT: 0.025,
		},
		PhononKTL: 0.026, PhononKTR: 0.025,
		Eta: 1e-6,
	}
}

// Observables are the physical outputs of a converged run.
type Observables struct {
	// CurrentL/R are the energy-integrated electron contact currents
	// (natural units; positive = into the device).
	CurrentL, CurrentR float64
	// EnergyCurrentL/R are the energy-weighted contact currents
	// ∫E·I(E)dE — the electronic heat injection that self-heating studies
	// track (§1).
	EnergyCurrentL, EnergyCurrentR float64
	// HeatL/R are the integrated phonon energy currents at the contacts.
	HeatL, HeatR float64
	// CurrentPerEnergy is the kz-summed spectral current at the left
	// contact, one entry per energy grid point.
	CurrentPerEnergy []float64
	// DissipationPerAtom is the per-atom electron-phonon particle
	// exchange, the quantity behind the self-heating map of Fig. 1(d).
	DissipationPerAtom []float64
	// EnergyDissipationPerAtom is the energy-weighted exchange
	// (Joule heat delivered to the lattice per atom).
	EnergyDissipationPerAtom []float64
}

// Timings records where a run's wall time went — the per-phase breakdown
// the paper reports in Tables 7 and 8.
type Timings struct {
	GF, SSE time.Duration
}

// Result is the outcome of a self-consistent run.
type Result struct {
	Iterations int
	Converged  bool
	// Recoveries counts the rank failures a fault-tolerant distributed run
	// survived by rebuilding the cluster and resuming from a checkpoint
	// (always zero for serial runs; see RunDistributedFTCtx).
	Recoveries int
	// Residuals[i] is the relative G change after iteration i.
	Residuals []float64
	// Timings is the accumulated per-phase wall time.
	Timings Timings

	GLess, GGtr         *tensor.GTensor
	DLess, DGtr         *tensor.DTensor
	SigmaLess, SigmaGtr *tensor.GTensor
	PiLess, PiGtr       *tensor.DTensor

	Obs Observables

	// EGrid is the active energy grid the result was solved on (nil for
	// plain uniform-grid runs). CheckpointOf copies it into checkpoints
	// so a converged adaptive grid travels with the Σ≷ it produced.
	EGrid *egrid.State
	// Adapt summarizes the adaptive refinement loop that produced the
	// result (nil unless RunAdaptiveCtx ran it).
	Adapt *AdaptReport
}

// Simulator couples a device with solver options and cached operators.
type Simulator struct {
	Dev    *device.Device
	Kernel *sse.Kernel
	Opts   Options

	h, s []*cmat.BlockTri // per kz
	phi  []*cmat.BlockTri // per qz

	// grid is the active energy grid the GF phase solves on: the full
	// fine grid unless the adaptive runner installed a subset (SetGrid).
	grid *egrid.Grid

	// bounds holds one open-boundary slot per fine-grid point: the
	// electron points (kz, E) at kz·NE+E, then the phonon points (qz, ω).
	// A slot filled by one GF phase is reused by every later one; it is
	// valid for the H(kz) or Φ(qz) and the η (boundsEta) it was built
	// from, so changing either empties it. Allocated by the first GF phase.
	bounds    []rgf.Boundary
	boundsEta float64
}

// New builds a simulator, generating and caching H(kz), S(kz), Φ(qz).
func New(dev *device.Device, opts Options) *Simulator {
	if opts.MaxIter <= 0 {
		opts.MaxIter = 1
	}
	if opts.Mixing <= 0 || opts.Mixing > 1 {
		opts.Mixing = 1
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	s := &Simulator{Dev: dev, Kernel: sse.NewKernel(dev), Opts: opts}
	p := dev.P
	s.h = make([]*cmat.BlockTri, p.Nkz)
	s.s = make([]*cmat.BlockTri, p.Nkz)
	for kz := 0; kz < p.Nkz; kz++ {
		s.h[kz] = dev.Hamiltonian(kz)
		s.s[kz] = dev.Overlap(kz)
	}
	s.phi = make([]*cmat.BlockTri, p.Nqz)
	for qz := 0; qz < p.Nqz; qz++ {
		s.phi[qz] = dev.Dynamical(qz)
	}
	s.grid = egrid.Uniform(p.NE, p.Emin, p.Emax)
	return s
}

// SetGrid installs an active energy grid: subsequent GF phases solve the
// electron points only at its active energies (with its quadrature
// weights) and fill the skipped energies by interpolation. The grid must
// live on the device's fine grid. The adaptive runner calls this between
// refinement rounds; a nil grid restores the full uniform grid.
func (s *Simulator) SetGrid(g *egrid.Grid) error {
	p := s.Dev.P
	if g == nil {
		s.grid = egrid.Uniform(p.NE, p.Emin, p.Emax)
		return nil
	}
	if g.NE() != p.NE || g.Emin() != p.Emin || g.Emax() != p.Emax {
		return fmt.Errorf("core: grid over %d points on [%g, %g] does not match device (%d points on [%g, %g])",
			g.NE(), g.Emin(), g.Emax(), p.NE, p.Emin, p.Emax)
	}
	s.grid = g
	return nil
}

// EnergyGrid returns the active energy grid the GF phase currently
// solves on (the full uniform grid unless SetGrid installed a subset).
func (s *Simulator) EnergyGrid() *egrid.Grid { return s.grid }

// readyBoundaries allocates the per-point boundary slots on the first GF
// phase, and empties every slot when Opts.Eta has moved since they were
// filled.
func (s *Simulator) readyBoundaries() {
	p := s.Dev.P
	if s.bounds == nil || s.boundsEta != s.Opts.Eta {
		s.bounds = make([]rgf.Boundary, p.Nkz*p.NE+p.Nqz*p.Nw)
		s.boundsEta = s.Opts.Eta
	}
}

// resetElectronBoundaries empties the electron slots after H(kz) changed.
// The phonon slots depend on Φ(qz) and η only, and stay.
func (s *Simulator) resetElectronBoundaries() {
	p := s.Dev.P
	if s.bounds != nil {
		clear(s.bounds[:p.Nkz*p.NE])
	}
}

// electronBound returns the boundary slot of electron point (kz, E).
func (s *Simulator) electronBound(kz, e int) *rgf.Boundary {
	return &s.bounds[kz*s.Dev.P.NE+e]
}

// phononBound returns the boundary slot of phonon point (qz, ω).
func (s *Simulator) phononBound(qz, w int) *rgf.Boundary {
	p := s.Dev.P
	return &s.bounds[p.Nkz*p.NE+qz*p.Nw+w]
}

// pointBlocks is one GF pool task's reused storage for a point's
// per-RGF-block scattering matrices: three slices of block pointers, which
// every point the task solves refills.
type pointBlocks [3][]*cmat.Dense

// slices returns the three slices at length n, allocating them on first use.
func (b *pointBlocks) slices(n int) (r, less, gtr []*cmat.Dense) {
	for i := range b {
		if cap(b[i]) < n {
			b[i] = make([]*cmat.Dense, n)
		}
		b[i] = b[i][:n]
	}
	return b[0], b[1], b[2]
}

// gfScratch is what a GF phase rewrites besides the Green's functions: the
// point list, every point's contact terms, the pool tasks and each task's
// scattering slices. A Born run owns one and hands it to every phase.
type gfScratch struct {
	jobs   []gfJob
	terms  [][2]float64 // contact terms (left, right) per job
	tasks  []pool.Task
	blocks []pointBlocks // one per task
}

// gfJob is one grid point of a GF phase; e < 0 marks a phonon point.
type gfJob struct{ kz, e, qz, w int }

// scatteringBlocks assembles the per-RGF-block electron scattering matrices
// for one (kz, E) point from the per-atom self-energy tensors (diagonal
// atom blocks only, as in the paper), into the slices of buf.
func (s *Simulator) scatteringBlocks(buf *pointBlocks, kz, e int, sigR, sigL, sigG *tensor.GTensor) rgf.Scattering {
	p := s.Dev.P
	if sigR == nil {
		return rgf.Scattering{}
	}
	bs := p.ElectronBlockSize()
	apb := p.AtomsPerBlock()
	var out rgf.Scattering
	out.R, out.Less, out.Gtr = buf.slices(p.Bnum)
	var v cmat.Dense
	for blk := 0; blk < p.Bnum; blk++ {
		r := cmat.GetDense(bs, bs)
		l := cmat.GetDense(bs, bs)
		g := cmat.GetDense(bs, bs)
		for la := 0; la < apb; la++ {
			a := blk*apb + la
			off := la * p.Norb
			sigR.BlockInto(&v, kz, e, a)
			r.SetSubmatrix(off, off, &v)
			sigL.BlockInto(&v, kz, e, a)
			l.SetSubmatrix(off, off, &v)
			sigG.BlockInto(&v, kz, e, a)
			g.SetSubmatrix(off, off, &v)
		}
		out.R[blk], out.Less[blk], out.Gtr[blk] = r, l, g
	}
	return out
}

// phononScatteringBlocks assembles the per-RGF-block phonon self-energy
// matrices for one (qz, ω) point. Neighbor couplings within an RGF block
// are kept; the few couplings that straddle block boundaries are dropped
// (a truncation the block-tridiagonal Keldysh recursion requires; the full
// couplings still travel through the SSE data path). The slices are buf's.
func (s *Simulator) phononScatteringBlocks(buf *pointBlocks, qz, w int, piR, piL, piG *tensor.DTensor) rgf.PhononScattering {
	p := s.Dev.P
	if piR == nil {
		return rgf.PhononScattering{}
	}
	bs := p.PhononBlockSize()
	apb := p.AtomsPerBlock()
	var out rgf.PhononScattering
	out.R, out.Less, out.Gtr = buf.slices(p.Bnum)
	for blk := 0; blk < p.Bnum; blk++ {
		out.R[blk] = cmat.GetDense(bs, bs)
		out.Less[blk] = cmat.GetDense(bs, bs)
		out.Gtr[blk] = cmat.GetDense(bs, bs)
	}
	var v cmat.Dense
	place := func(dst []*cmat.Dense, t *tensor.DTensor, a, f, slot int) {
		blk := s.Dev.BlockOf(a)
		if s.Dev.BlockOf(f) != blk {
			return
		}
		ra := (a - blk*apb) * p.N3D
		rf := (f - blk*apb) * p.N3D
		t.BlockInto(&v, qz, w, a, slot)
		dst[blk].SetSubmatrix(ra, rf, &v)
	}
	for a := 0; a < p.NA; a++ {
		place(out.R, piR, a, a, p.NB)
		place(out.Less, piL, a, a, p.NB)
		place(out.Gtr, piG, a, a, p.NB)
		for b := 0; b < p.NB; b++ {
			f := s.Dev.Neigh[a][b]
			if f < 0 {
				continue
			}
			place(out.R, piR, a, f, b)
			place(out.Less, piL, a, f, b)
			place(out.Gtr, piG, a, f, b)
		}
	}
	return out
}

// extractElectron copies the per-atom diagonal blocks of an RGF solution
// into the 5-D tensors at (kz, e), straight from the RGF blocks into tensor
// storage.
func (s *Simulator) extractElectron(kz, e int, res *rgf.ElectronResult, gl, gg *tensor.GTensor) {
	p := s.Dev.P
	apb := p.AtomsPerBlock()
	var dst cmat.Dense
	for blk := 0; blk < p.Bnum; blk++ {
		for la := 0; la < apb; la++ {
			a := blk*apb + la
			off := la * p.Norb
			gl.BlockInto(&dst, kz, e, a)
			res.GLess[blk].SubmatrixInto(&dst, off, off)
			gg.BlockInto(&dst, kz, e, a)
			res.GGtr[blk].SubmatrixInto(&dst, off, off)
		}
	}
}

// extractPhonon copies the per-atom self blocks and in-block neighbor
// couplings of a phonon RGF solution into the 6-D tensors at (qz, w).
func (s *Simulator) extractPhonon(qz, w int, res *rgf.PhononResult, dl, dg *tensor.DTensor) {
	p := s.Dev.P
	apb := p.AtomsPerBlock()
	var v cmat.Dense
	grab := func(src []*cmat.Dense, dst *tensor.DTensor, a, f, slot int) {
		blk := s.Dev.BlockOf(a)
		if s.Dev.BlockOf(f) != blk {
			return // cross-block coupling: not available from diagonal RGF blocks
		}
		ra := (a - blk*apb) * p.N3D
		rf := (f - blk*apb) * p.N3D
		dst.BlockInto(&v, qz, w, a, slot)
		src[blk].SubmatrixInto(&v, ra, rf)
	}
	for a := 0; a < p.NA; a++ {
		grab(res.DLess, dl, a, a, p.NB)
		grab(res.DGtr, dg, a, a, p.NB)
		for b := 0; b < p.NB; b++ {
			f := s.Dev.Neigh[a][b]
			if f < 0 {
				continue
			}
			grab(res.DLess, dl, a, f, b)
			grab(res.DGtr, dg, a, f, b)
		}
	}
}

// gfPhase runs the full GF phase: all (kz, E) electron points and all
// (qz, ω) phonon points. The electron-point solver is the only part that
// varies with the placement: with a nil cluster every point is one local
// RGF solve and electron and phonon points share the persistent worker
// pool (at most Workers concurrent points); with a spatial cluster every
// electron retarded solve is partitioned across its ranks
// (solveElectronOn), so the electron points run one at a time — each
// already spreads its block elimination over every rank — and only the
// phonon points, whose small systems are not worth the exchange latency,
// use the pool. It writes the Green's functions into gf, overwriting every
// element a solve produces; the slots of D^≷ no solve produces (cross-block
// couplings, missing neighbours) are never written, so they keep the zeros
// they were allocated with. It returns the accumulated contact observables;
// a failed point surfaces its error (including comm.ErrRankDead from the
// cluster) wrapped with its grid coordinates.
//
// Every point solve hands the point's boundary slot to rgf (Scattering.Bound),
// so the Sancho-Rubio boundary self-energies of a point are computed by the
// first phase that solves it and reused by every later one. The point list,
// the contact terms and the scattering slices live in the run's sc.
func (s *Simulator) gfPhase(ctx context.Context, spatial *comm.Cluster, se selfEnergy, gf greens, sc *gfScratch) (o Observables, err error) {
	p := s.Dev.P
	s.readyBoundaries()
	gl, gg, dl, dg := gf.gl, gf.gg, gf.dl, gf.dg
	o.CurrentPerEnergy = make([]float64, p.NE)

	solveElectron := func(kz, e int, scat rgf.Scattering) (*rgf.ElectronResult, error) {
		scat.Bound = s.electronBound(kz, e)
		return rgf.SolveElectron(s.h[kz], s.s[kz], p.Energy(e), scat, s.Opts.Contacts, s.Opts.Eta)
	}
	if spatial != nil {
		solveElectron = s.solveElectronOn(spatial)
	}

	// The electron points come from the active energy grid — the full
	// fine grid unless the adaptive runner installed a subset — with
	// each point's quadrature weight carried explicitly. On the full
	// grid every weight is bitwise the uniform ΔE (the egrid weight
	// pin), so this accumulation reproduces the historical uniform
	// numbers exactly.
	grid := s.grid
	activeE := grid.Active()
	nElectron := p.Nkz * len(activeE)
	jobs := sc.jobs[:0]
	for kz := 0; kz < p.Nkz; kz++ {
		for _, e := range activeE {
			jobs = append(jobs, gfJob{kz: kz, e: e})
		}
	}
	for qz := 0; qz < p.Nqz; qz++ {
		for w := 0; w < p.Nw; w++ {
			jobs = append(jobs, gfJob{kz: 0, e: -1, qz: qz, w: w})
		}
	}
	sc.jobs = jobs
	var once sync.Once
	var firstErr error
	var failed atomic.Bool // set with firstErr; stops every sweep task
	fail := func(e error) {
		once.Do(func() { firstErr = e })
		failed.Store(true)
	}
	// Every point leaves its contact terms (left, right) in its own slot;
	// they are summed in job order after the sweep, so the observables do not
	// depend on the order the pool completes the points in.
	terms := slices.Grow(sc.terms[:0], len(jobs))[:len(jobs)]
	clear(terms)
	sc.terms = terms
	// run solves job idx on pool task task, whose scattering slices it
	// refills.
	run := func(idx, task int) {
		buf := &sc.blocks[task]
		if j := jobs[idx]; j.e >= 0 {
			scat := s.scatteringBlocks(buf, j.kz, j.e, se.sigR, se.sigL, se.sigG)
			res, e := solveElectron(j.kz, j.e, scat)
			scat.Release()
			if e != nil {
				fail(fmt.Errorf("electron point (kz=%d, E=%d): %w", j.kz, j.e, e))
				return
			}
			s.extractElectron(j.kz, j.e, res, gl, gg)
			res.Release()
			terms[idx] = [2]float64{res.CurrentL, res.CurrentR}
		} else {
			scat := s.phononScatteringBlocks(buf, j.qz, j.w, se.piR, se.piL, se.piG)
			scat.Bound = s.phononBound(j.qz, j.w)
			hw := float64(p.PhononShift(j.w)) * p.EStep()
			res, e := rgf.SolvePhonon(s.phi[j.qz], hw, scat,
				rgf.PhononContacts{KTL: s.Opts.PhononKTL, KTR: s.Opts.PhononKTR}, s.Opts.Eta)
			scat.Release()
			if e != nil {
				fail(fmt.Errorf("phonon point (qz=%d, ω=%d): %w", j.qz, j.w, e))
				return
			}
			s.extractPhonon(j.qz, j.w, res, dl, dg)
			res.Release()
			terms[idx] = [2]float64{res.HeatL, res.HeatR}
		}
	}
	// sweep runs jobs[lo:hi] dynamically scheduled over at most workers pool
	// tasks and reports whether every one of them succeeded.
	sweep := func(lo, hi, workers int) bool {
		if workers > hi-lo {
			workers = hi - lo
		}
		if len(sc.blocks) < workers {
			sc.blocks = append(sc.blocks, make([]pointBlocks, workers-len(sc.blocks))...)
		}
		var next atomic.Int64
		next.Store(int64(lo))
		tasks := slices.Grow(sc.tasks[:0], workers)[:workers]
		sc.tasks = tasks
		for i := range tasks {
			tasks[i] = func() {
				for {
					idx := int(next.Add(1)) - 1
					if idx >= hi || failed.Load() {
						return
					}
					// Cancellation is checked per grid point, so a cancelled run
					// drains within one RGF solve rather than one full phase.
					if cerr := ctx.Err(); cerr != nil {
						fail(fmt.Errorf("core: GF phase cancelled: %w", cerr))
						return
					}
					run(idx, i)
				}
			}
		}
		pool.Do(tasks...)
		return !failed.Load()
	}
	if spatial == nil {
		sweep(0, len(jobs), s.Opts.Workers)
	} else if sweep(0, nElectron, 1) {
		sweep(nElectron, len(jobs), s.Opts.Workers)
	}
	if firstErr != nil {
		return o, firstErr
	}
	eWeight := p.EStep() / float64(p.Nkz)
	for idx, j := range jobs {
		if t := terms[idx]; j.e >= 0 {
			we := grid.Weight(j.e) / float64(p.Nkz)
			o.CurrentL += t[0] * we
			o.CurrentR += t[1] * we
			o.EnergyCurrentL += p.Energy(j.e) * t[0] * we
			o.EnergyCurrentR += p.Energy(j.e) * t[1] * we
			o.CurrentPerEnergy[j.e] += t[0]
		} else {
			o.HeatL += t[0] * eWeight
			o.HeatR += t[1] * eWeight
		}
	}
	// On a partial grid, fill the skipped energies of G^≷ (and of the
	// spectral current, for reporting) by linear interpolation between
	// the nearest solved neighbors: the SSE convolution consumes every
	// fine-grid energy, so the tensors must be dense even when the
	// solves are not.
	if !grid.Full() {
		interpolateInactiveG(gl, grid)
		interpolateInactiveG(gg, grid)
		grid.InterpolateValues(o.CurrentPerEnergy)
	}
	return o, nil
}

// solveElectronOn returns the GF phase's electron-point solver for a
// spatial cluster: the retarded solve of the point is partitioned across
// the cluster's ranks (rgf.DistributedRetarded) — the device-dimension
// split of OMEN's momentum/energy/space hierarchy — and rank 0 runs the
// Keldysh closure on the replicated diagonal, so each point's observables
// and tensors are accumulated exactly once. The point's boundary slot is
// filled on the calling goroutine before the ranks start, so the ranks only
// read it. The caller reads the cluster's byte counters after the phase.
func (s *Simulator) solveElectronOn(cluster *comm.Cluster) func(kz, e int, scat rgf.Scattering) (*rgf.ElectronResult, error) {
	return func(kz, e int, scat rgf.Scattering) (*rgf.ElectronResult, error) {
		scat.Bound = s.electronBound(kz, e)
		if err := scat.Bound.FillElectron(s.h[kz], s.s[kz], s.Dev.P.Energy(e), s.Opts.Eta); err != nil {
			return nil, err
		}
		var res *rgf.ElectronResult
		err := cluster.Run(func(r *comm.Rank) error {
			pt, err := rgf.SolveElectronSpatial(r, s.h[kz], s.s[kz],
				s.Dev.P.Energy(e), scat, s.Opts.Contacts, s.Opts.Eta)
			if pt != nil {
				res = pt
			}
			return err
		})
		return res, err
	}
}

// relChange returns max|a−b| / (1 + max|b|).
func relChange(a, b *tensor.GTensor) float64 {
	return a.MaxAbsDiff(b) / (1 + maxAbsG(b))
}

func maxAbsG(g *tensor.GTensor) float64 {
	var m float64
	for _, v := range g.Data {
		if a := math.Hypot(real(v), imag(v)); a > m {
			m = a
		}
	}
	return m
}

// mixInto damps fresh self-energy data into dst: dst ← (1−mix)·dst + mix·fresh.
func mixInto(dst, fresh []complex128, mix float64) {
	c := complex(mix, 0)
	for i := range dst {
		dst[i] = (1-c)*dst[i] + c*fresh[i]
	}
}

// dissipationPerAtom evaluates Tr[Σ^<_S·G^> − Σ^>_S·G^<] per atom, summed
// over the (kz, E) grid — the local electron-phonon exchange that paints
// the self-heating map — both unweighted (particle) and energy-weighted
// (Joule heat).
func (s *Simulator) dissipationPerAtom(r *Result) (particle, energy []float64) {
	p := s.Dev.P
	particle = make([]float64, p.NA)
	energy = make([]float64, p.NA)
	if r.SigmaLess == nil || r.GLess == nil {
		return particle, energy
	}
	// Quadrature weights come from the active grid (bitwise ΔE on the
	// full grid); inactive energies carry zero weight and are skipped.
	for kz := 0; kz < p.Nkz; kz++ {
		for e := 0; e < p.NE; e++ {
			w := s.grid.Weight(e) / float64(p.Nkz)
			if w == 0 {
				continue
			}
			for a := 0; a < p.NA; a++ {
				t := r.SigmaLess.Block(kz, e, a).TraceMul(r.GGtr.Block(kz, e, a)) -
					r.SigmaGtr.Block(kz, e, a).TraceMul(r.GLess.Block(kz, e, a))
				particle[a] += real(t) * w
				energy[a] += real(t) * w * p.Energy(e)
			}
		}
	}
	return particle, energy
}
