package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"negfsim/internal/comm"
	"negfsim/internal/obs"
	"negfsim/internal/sse"
	"negfsim/internal/tensor"
)

// Fault-tolerance telemetry of the Born loop (see docs/OBSERVABILITY.md):
// recovery events and latency, and checkpoint traffic. The counters are
// global and cumulative, like every obs instrument.
var (
	obsRecoveries   = obs.GetCounter("core.recoveries")
	obsCkptSaves    = obs.GetCounter("core.checkpoint_saves")
	obsCkptRestores = obs.GetCounter("core.checkpoint_restores")
	obsSpanRecovery = obs.GetTimer("core.recovery")
)

// ErrDiverged is the terminal error of a Born loop whose iterate stopped
// being a number: a non-finite residual of G^≷ or a non-finite contact
// current. It is returned wrapped with the iteration (and the refinement
// round, for adaptive runs); test for it with errors.Is.
var ErrDiverged = errors.New("core: Born iteration diverged")

// selfEnergy is the state the Born loop carries from one iteration to the
// next: the mixed Σ^≷/Π^≷ and the retarded components derived from them.
// The zero value is the ballistic start Σ = Π = 0.
type selfEnergy struct {
	sigR, sigL, sigG *tensor.GTensor
	piR, piL, piG    *tensor.DTensor
}

// seedOf returns loop state seeded with deep copies of a checkpoint's
// Σ^≷/Π^≷ — the checkpoint stays pristine, so it can seed again — or the
// ballistic start for a nil checkpoint.
func seedOf(ck *Checkpoint) selfEnergy {
	if ck == nil {
		return selfEnergy{}
	}
	se := selfEnergy{sigL: ck.SigmaLess.Clone(), sigG: ck.SigmaGtr.Clone(), piL: ck.PiLess.Clone(), piG: ck.PiGtr.Clone()}
	se.sigR = sse.Retarded(nil, se.sigL, se.sigG)
	se.piR = sse.RetardedD(nil, se.piL, se.piG)
	return se
}

// zeroSelfEnergy returns Σ^≷ = Π^≷ = 0 in tensors shaped like a phase
// output.
func zeroSelfEnergy(out sse.PhaseOutput) selfEnergy {
	g, d := out.SigmaLess, out.PiLess
	return selfEnergy{
		sigL: tensor.NewGTensor(g.Nkz, g.NE, g.NA, g.Norb), sigG: tensor.NewGTensor(g.Nkz, g.NE, g.NA, g.Norb),
		piL: tensor.NewDTensor(d.Nqz, d.Nw, d.NA, d.NB, d.N3D), piG: tensor.NewDTensor(d.Nqz, d.Nw, d.NA, d.NB, d.N3D),
	}
}

// copyFrom overwrites se's Σ^≷/Π^≷ with the given tensors, allocating them
// on first use: the Born loop's run-owned copies of a phase output, whose
// storage the next phase may reuse, and of its restart snapshot.
func (se *selfEnergy) copyFrom(sigL, sigG *tensor.GTensor, piL, piG *tensor.DTensor) {
	if se.sigL == nil {
		se.sigL, se.sigG = sigL.Clone(), sigG.Clone()
		se.piL, se.piG = piL.Clone(), piG.Clone()
		return
	}
	copy(se.sigL.Data, sigL.Data)
	copy(se.sigG.Data, sigG.Data)
	copy(se.piL.Data, piL.Data)
	copy(se.piG.Data, piG.Data)
}

// checkpointOf wraps self-energies as a checkpoint of this simulator's
// device and active grid after the given number of iterations. The tensors
// are shared, not copied.
func (s *Simulator) checkpointOf(iterations int, sigL, sigG *tensor.GTensor, piL, piG *tensor.DTensor) *Checkpoint {
	ck := &Checkpoint{
		Params: s.Dev.P, Kind: s.Dev.Kind, DevFP: s.Dev.Fingerprint(),
		Iterations: iterations,
		SigmaLess:  sigL, SigmaGtr: sigG, PiLess: piL, PiGtr: piG,
	}
	if !s.grid.Full() {
		ck.EGrid = s.grid.State()
	}
	return ck
}

// RunCtx runs the self-consistent Born loop serially from Σ = Π = 0 (§2):
// GF phase, SSE phase, mix, until the Green's functions stop changing.
// Cancellation is observed at every iteration boundary and per GF grid
// point, so a cancelled run returns an error wrapping ctx.Err() within one
// Born iteration and discards the partial result. It stays for the
// benchmark's adapter; frontends call Execute.
func (s *Simulator) RunCtx(ctx context.Context) (*Result, error) {
	res, _, err := s.born(ctx, DistConfig{})
	return res, err
}

// born is the Born loop — the only one. Every way of running the physics
// is this loop under a placement: pl's zero value is the shared-memory
// serial run from Σ = Π = 0, and each field moves one choice (SSE phase
// onto a TE×TA cluster, GF electron solves onto a spatial cluster, seed,
// fault policy); every collective runs on a fresh in-process cluster. A
// placement changes data movement, not values, with three exceptions the
// two historical loops differed in and the benchmark's golden trajectories
// pin, all hanging off pl.clustered():
//
//   - a clustered placement mixes linearly (DistConfig.mixesLinearly);
//   - only a clustered placement snapshots a restart checkpoint (a copy of
//     the four tensors into run-owned storage) per iteration — the serial
//     run has no rank to lose and must not pay the copy;
//   - a clustered placement's shared-memory SSE phase (spatial-only, or
//     degraded after a recovery) runs sse.DaCe, the variant the tiles
//     compute, where the serial run honours Options.Variant.
//
// The returned bytes are the exchange traffic of every collective the run
// attempted, failed ones included.
func (s *Simulator) born(ctx context.Context, pl DistConfig) (*Result, int64, error) {
	te, ta, space := pl.TE, pl.TA, pl.Space // space < 2: no spatial split
	// The spatial split needs an interior block per rank, the SSE grid two
	// ranks and an energy point each.
	if space >= 2 && s.Dev.P.Bnum < 2*space-1 {
		return nil, 0, fmt.Errorf("core: %d device blocks cannot be partitioned across %d spatial ranks", s.Dev.P.Bnum, space)
	}
	if te > 0 {
		if err := s.checkGrid(te, ta); err != nil {
			return nil, 0, err
		}
	}
	if pl.Resume != nil {
		if err := pl.Resume.CompatibleDevice(s.Dev); err != nil {
			return nil, 0, err
		}
	}
	clustered := pl.clustered()
	localVariant := s.Opts.Variant
	if clustered {
		localVariant = sse.DaCe
	}
	var anderson *andersonState
	if s.Opts.Mixer == Anderson && !pl.mixesLinearly() {
		h := s.Opts.AndersonHistory
		if h <= 0 {
			h = 3
		}
		anderson = newAndersonState(h)
	}
	maxRec := pl.MaxRecoveries
	if maxRec == 0 {
		maxRec = 2
	}
	backoff := pl.RetryBackoff
	if backoff == 0 {
		backoff = 10 * time.Millisecond
	}

	res := &Result{}
	se := seedOf(pl.Resume)
	var prevL, prevG *tensor.GTensor
	var bytes int64
	// ck is what a recovery rewinds to: the seed, then (clustered placements
	// only) ckSnap, a copy of the mixed self-energies after iteration ckIter,
	// when the residual history held ckResiduals entries. ckSnap is run-owned
	// storage, never the seed's, so a caller's checkpoint stays pristine.
	ck, ckIter, ckResiduals := pl.Resume, 0, 0
	var ckSnap selfEnergy
	// ws is the distributed SSE phase's storage, allocated on the first
	// clustered phase and reused by every later one of this run; a
	// recovery that regrids replaces it. It never outlives the run, so a
	// Result or Checkpoint of an earlier run is never overwritten.
	var ws *sseWorkspace
	faultArmed := pl.Fault != nil
	// last is the most recent per-iteration cluster, owner of the per-rank
	// byte gauges. Every cancelled return unregisters it so scrapes stop
	// reporting the abandoned run; completions keep the series live.
	var last *comm.Cluster
	unregister := func() {
		if last != nil {
			last.Unregister()
		}
	}
	// open readies the fresh in-process cluster, bound to ctx, that carries
	// one collective phase of iteration iter over n ranks. The fault plan
	// arms on the first collective of FaultIter — the spatial GF phase when
	// there is one, else the SSE phase — and fires exactly once.
	open := func(iter, n int) *comm.Cluster {
		cl := comm.NewClusterCtx(ctx, n)
		last = cl
		if pl.CommTimeout > 0 {
			cl.SetTimeout(pl.CommTimeout)
		}
		if faultArmed && iter == pl.FaultIter {
			cl.InjectFaults(pl.Fault)
			faultArmed = false
		}
		return cl
	}
	// recoverFrom is the one answer to a failed phase, local or collective. A
	// cancelled context is terminal — never a rank failure — and so is any
	// error but a dead rank, and a dead rank past the recovery budget.
	// Otherwise it backs off, shrinks the placement over the survivors
	// (regrid), rewinds to ck and returns the loop index to continue from.
	recoverFrom := func(iter int, err error, regrid func()) (int, error) {
		if cerr := ctx.Err(); cerr != nil {
			unregister()
			return 0, fmt.Errorf("core: run cancelled during iteration %d: %w", iter+1, cerr)
		}
		if !errors.Is(err, comm.ErrRankDead) {
			return 0, err
		}
		if res.Recoveries >= maxRec {
			return 0, fmt.Errorf("core: giving up after %d recoveries: %w", res.Recoveries, err)
		}
		res.Recoveries++
		obsRecoveries.Inc()
		sp := obsSpanRecovery.Start()
		defer sp.End()
		time.Sleep(backoff * time.Duration(res.Recoveries))
		regrid()
		obsCkptRestores.Inc()
		se = seedOf(ck)
		prevL, prevG = nil, nil
		res.Residuals = res.Residuals[:ckResiduals]
		return ckIter - 1, nil // the loop increment lands on the first unfinished iteration
	}

	for iter := 0; iter < s.Opts.MaxIter; iter++ {
		if cerr := ctx.Err(); cerr != nil {
			unregister()
			return nil, bytes, fmt.Errorf("core: run cancelled before iteration %d: %w", iter+1, cerr)
		}
		st := IterStats{Iter: iter + 1, Residual: math.NaN()}
		var snap []obs.TimerStat
		if s.Opts.OnIteration != nil && obs.Enabled() {
			snap = obs.TimerStats()
		}
		t0 := time.Now()
		var gfCluster *comm.Cluster
		if space >= 2 {
			gfCluster = open(iter, space)
		}
		gl, gg, dl, dg, o, err := s.gfPhase(ctx, gfCluster, se)
		if gfCluster != nil {
			bytes += gfCluster.TotalBytes()
		}
		if err != nil {
			iter, err = recoverFrom(iter, err, func() { space-- })
			if err != nil {
				return nil, bytes, err
			}
			continue
		}
		st.GF = time.Since(t0)
		res.Timings.GF += st.GF
		obsSpanGF.Observe(st.GF)
		res.GLess, res.GGtr, res.DLess, res.DGtr = gl, gg, dl, dg
		res.Obs = o
		res.Iterations = iter + 1
		if !finite(o.CurrentL) || !finite(o.CurrentR) || !finite(o.HeatL) {
			return res, bytes, fmt.Errorf("core: iteration %d: non-finite contact current: %w", iter+1, ErrDiverged)
		}

		if prevL != nil {
			r := relChange(prevL, gl)
			if rg := relChange(prevG, gg); rg > r {
				r = rg
			}
			if !finite(r) {
				return res, bytes, fmt.Errorf("core: iteration %d: non-finite Green's functions: %w", iter+1, ErrDiverged)
			}
			res.Residuals = append(res.Residuals, r)
			st.Residual = r
			if r < s.Opts.Tol {
				res.Converged = true
				st.Converged = true
				s.emitIterStats(&st, t0, snap)
				break
			}
		}
		prevL, prevG = gl, gg

		t1 := time.Now()
		in := sse.PhaseInput{GLess: gl, GGtr: gg, DLess: dl, DGtr: dg}
		var out sse.PhaseOutput
		if te > 0 {
			if ws == nil || ws.te != te || ws.ta != ta {
				ws = s.newSSEWorkspace(te, ta)
			}
			cl := open(iter, te*ta)
			dist, err := s.distributedSSEOn(cl, ws, in)
			bytes += cl.TotalBytes()
			if err != nil {
				iter, err = recoverFrom(iter, err, func() { te, ta = s.deriveGrid(te*ta - 1) })
				if err != nil {
					return nil, bytes, err
				}
				continue
			}
			out = sse.PhaseOutput{SigmaLess: dist.SigmaLess, SigmaGtr: dist.SigmaGtr, PiLess: dist.PiLess, PiGtr: dist.PiGtr}
		} else {
			out = s.Kernel.ComputePhaseParallel(in, localVariant, s.Opts.Workers)
		}
		st.SSE = time.Since(t1)
		res.Timings.SSE += st.SSE
		obsSpanSSE.Observe(st.SSE)
		t2 := time.Now()
		sse.AntiHermitize(out.SigmaLess)
		sse.AntiHermitize(out.SigmaGtr)
		// The loop owns se and mixes into it in place. Its first value is
		// the first phase output: kept as is from the shared-memory kernels,
		// which return fresh tensors, copied from the distributed
		// workspace, whose result the next phase overwrites.
		switch {
		case anderson != nil:
			if se.sigL == nil {
				se = zeroSelfEnergy(out)
			}
			anderson.mix(se, out, s.Opts.Mixing)
		case se.sigL == nil && te == 0:
			se.sigL, se.sigG, se.piL, se.piG = out.SigmaLess, out.SigmaGtr, out.PiLess, out.PiGtr
		case se.sigL == nil:
			se.copyFrom(out.SigmaLess, out.SigmaGtr, out.PiLess, out.PiGtr)
		default:
			mixInto(se.sigL.Data, out.SigmaLess.Data, s.Opts.Mixing)
			mixInto(se.sigG.Data, out.SigmaGtr.Data, s.Opts.Mixing)
			mixInto(se.piL.Data, out.PiLess.Data, s.Opts.Mixing)
			mixInto(se.piG.Data, out.PiGtr.Data, s.Opts.Mixing)
		}
		se.sigR = sse.Retarded(se.sigR, se.sigL, se.sigG)
		se.piR = sse.RetardedD(se.piR, se.piL, se.piG)
		st.Mix = time.Since(t2)
		obsSpanMix.Observe(st.Mix)
		res.SigmaLess, res.SigmaGtr = se.sigL, se.sigG
		res.PiLess, res.PiGtr = se.piL, se.piG

		if clustered {
			ckSnap.copyFrom(se.sigL, se.sigG, se.piL, se.piG)
			ck = s.checkpointOf(iter+1, ckSnap.sigL, ckSnap.sigG, ckSnap.piL, ckSnap.piG)
			ckIter, ckResiduals = iter+1, len(res.Residuals)
			obsCkptSaves.Inc()
			if pl.CheckpointPath != "" {
				if err := ck.SaveFile(pl.CheckpointPath); err != nil {
					return nil, bytes, err
				}
			}
		}
		s.emitIterStats(&st, t0, snap)
	}
	res.Obs.DissipationPerAtom, res.Obs.EnergyDissipationPerAtom = s.dissipationPerAtom(res)
	return res, bytes, nil
}

// finite reports whether x is an ordinary number.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// emitIterStats completes an iteration's stats (wall time, span deltas) and
// delivers them to the OnIteration hook, if any. iterStart is the instant
// the iteration began; snap is the obs timer snapshot taken then (nil when
// obs recording was off or no hook is set).
func (s *Simulator) emitIterStats(st *IterStats, iterStart time.Time, snap []obs.TimerStat) {
	if s.Opts.OnIteration == nil {
		return
	}
	st.Wall = time.Since(iterStart)
	if snap != nil {
		st.Spans = obs.TimerDelta(snap)
	}
	s.Opts.OnIteration(*st)
}
