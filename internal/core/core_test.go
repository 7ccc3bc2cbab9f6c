package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"negfsim/internal/cmat"
	"negfsim/internal/comm"
	"negfsim/internal/device"
	"negfsim/internal/sse"
)

func miniSim(t *testing.T, opts Options) *Simulator {
	t.Helper()
	dev, err := device.New(device.Mini())
	if err != nil {
		t.Fatal(err)
	}
	return New(dev, opts)
}

func TestBallisticFirstIteration(t *testing.T) {
	// One iteration with Σ = Π = 0 is the ballistic solve: current flows,
	// is conserved, and all tensors are finite.
	opts := DefaultOptions()
	opts.MaxIter = 1
	s := miniSim(t, opts)
	res, err := s.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 1 {
		t.Fatalf("iterations = %d", res.Iterations)
	}
	if res.Obs.CurrentL == 0 {
		t.Fatal("bias must drive current")
	}
	if rel := math.Abs(res.Obs.CurrentL+res.Obs.CurrentR) / math.Abs(res.Obs.CurrentL); rel > 1e-3 {
		t.Fatalf("ballistic current not conserved: %g vs %g", res.Obs.CurrentL, res.Obs.CurrentR)
	}
	for _, v := range res.GLess.Data {
		if math.IsNaN(real(v)) || math.IsNaN(imag(v)) {
			t.Fatal("NaN in G^<")
		}
	}
	if len(res.Obs.CurrentPerEnergy) != s.Dev.P.NE {
		t.Fatal("per-energy current length")
	}
}

func TestBornIterationConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("long self-consistent run; skipped under -short (race gate)")
	}
	opts := DefaultOptions()
	opts.MaxIter = 10
	opts.Tol = 1e-4
	s := miniSim(t, opts)
	res, err := s.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Residuals) == 0 {
		t.Fatal("no residual history")
	}
	// Residuals must decrease overall (damped Born iteration).
	first, last := res.Residuals[0], res.Residuals[len(res.Residuals)-1]
	if last > first {
		t.Fatalf("residuals grew: %v", res.Residuals)
	}
	if !res.Converged && res.Iterations == opts.MaxIter && last > 10*opts.Tol {
		t.Fatalf("iteration made no progress: %v", res.Residuals)
	}
	// Scattering redistributes energy: the dissipation map is nonzero and
	// sums to (minus) the net energy the contacts inject.
	var dissip float64
	for _, d := range res.Obs.DissipationPerAtom {
		dissip += math.Abs(d)
	}
	if dissip == 0 {
		t.Fatal("electron-phonon coupling should dissipate energy")
	}
	if len(res.Obs.DissipationPerAtom) != s.Dev.P.NA {
		t.Fatal("dissipation map length")
	}
}

func TestVariantsGiveSameSelfConsistentResult(t *testing.T) {
	if testing.Short() {
		t.Skip("long self-consistent run; skipped under -short (race gate)")
	}
	// The three SSE formulations must drive the Born loop to the same
	// fixed point trajectory.
	run := func(v sse.Variant) *Result {
		opts := DefaultOptions()
		opts.MaxIter = 3
		opts.Variant = v
		res, err := miniSim(t, opts).RunCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(sse.Reference)
	for _, v := range []sse.Variant{sse.OMEN, sse.DaCe} {
		got := run(v)
		if d := ref.GLess.MaxAbsDiff(got.GLess); d > 1e-8 {
			t.Fatalf("%v: G^< differs from reference trajectory by %g", v, d)
		}
		if rel := math.Abs(ref.Obs.CurrentL-got.Obs.CurrentL) / (1 + math.Abs(ref.Obs.CurrentL)); rel > 1e-8 {
			t.Fatalf("%v: current differs: %g vs %g", v, got.Obs.CurrentL, ref.Obs.CurrentL)
		}
	}
}

func TestHeatCurrentsFlowFromHotContact(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxIter = 1
	opts.PhononKTL = 0.040
	opts.PhononKTR = 0.020
	s := miniSim(t, opts)
	res, err := s.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Obs.HeatL == 0 || res.Obs.HeatR == 0 {
		t.Fatal("temperature difference should drive heat current")
	}
	// Ballistic phonons: conservation.
	if rel := math.Abs(res.Obs.HeatL+res.Obs.HeatR) / math.Abs(res.Obs.HeatL); rel > 1e-3 {
		t.Fatalf("heat current not conserved: %g vs %g", res.Obs.HeatL, res.Obs.HeatR)
	}
}

func TestDistributedSSEMatchesSerial(t *testing.T) {
	opts := DefaultOptions()
	s := miniSim(t, opts)
	gl, gg, dl, dg, _, err := s.gfPhase(context.Background(), nil, selfEnergy{})
	if err != nil {
		t.Fatal(err)
	}
	in := sse.PhaseInput{GLess: gl, GGtr: gg, DLess: dl, DGtr: dg}
	serial := s.Kernel.ComputePhase(in, sse.DaCe)

	dist, err := s.DistributedSSE(in, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	scale := 1e-9 * (1 + maxAbsG(serial.SigmaLess))
	if d := serial.SigmaLess.MaxAbsDiff(dist.SigmaLess); d > scale {
		t.Fatalf("distributed Σ^< differs from serial by %g", d)
	}
	if d := serial.SigmaGtr.MaxAbsDiff(dist.SigmaGtr); d > scale {
		t.Fatalf("distributed Σ^> differs from serial by %g", d)
	}
	if d := serial.PiLess.MaxAbsDiff(dist.PiLess); d > 1e-9 {
		t.Fatalf("distributed Π^< differs from serial by %g", d)
	}
	if d := serial.PiGtr.MaxAbsDiff(dist.PiGtr); d > 1e-9 {
		t.Fatalf("distributed Π^> differs from serial by %g", d)
	}
}

// TestDistributedSSEFlopsMatchSerial pins exact flop accounting across
// ranks: on a 1×2 grid the two atom tiles do exactly the serial phase's
// products, and each rank's tiles publish their local tally to cmat.Counter
// on return, so the counter delta of one distributed phase equals the serial
// DaCe phase's. A rank whose tally is never published comes up short. The
// count depends on the structure only; sse's
// TestComputePhaseParallelMatchesSerial pins the same Mini figure.
func TestDistributedSSEFlopsMatchSerial(t *testing.T) {
	const daceFlops = 44305920
	s := miniSim(t, DefaultOptions())
	gl, gg, dl, dg, _, err := s.gfPhase(context.Background(), nil, selfEnergy{})
	if err != nil {
		t.Fatal(err)
	}
	in := sse.PhaseInput{GLess: gl, GGtr: gg, DLess: dl, DGtr: dg}
	start := cmat.Counter.Flops()
	s.Kernel.ComputePhase(in, sse.DaCe)
	mid := cmat.Counter.Flops()
	if _, err := s.DistributedSSE(in, 1, 2); err != nil {
		t.Fatal(err)
	}
	serial, dist := mid-start, cmat.Counter.Flops()-mid
	if serial != daceFlops {
		t.Errorf("serial DaCe phase counted %d flops, want %d", serial, daceFlops)
	}
	if dist != serial {
		t.Errorf("distributed 1×2 phase counted %d flops, serial DaCe phase %d", dist, serial)
	}
}

func TestDistributedSSETrafficNearModel(t *testing.T) {
	opts := DefaultOptions()
	s := miniSim(t, opts)
	gl, gg, dl, dg, _, err := s.gfPhase(context.Background(), nil, selfEnergy{})
	if err != nil {
		t.Fatal(err)
	}
	in := sse.PhaseInput{GLess: gl, GGtr: gg, DLess: dl, DGtr: dg}
	dist, err := s.DistributedSSE(in, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if dist.MeasuredBytes == 0 {
		t.Fatal("no traffic measured")
	}
	// The closed-form model uses the contiguous-range halo approximation of
	// §4.1; the real neighbor-set halo at mini scale differs by a bounded
	// factor.
	ratio := float64(dist.MeasuredBytes) / dist.ModelBytes
	if ratio < 0.2 || ratio > 3 {
		t.Fatalf("measured/model traffic ratio %.2f (measured %d, model %.0f)",
			ratio, dist.MeasuredBytes, dist.ModelBytes)
	}
}

func TestDistributedSSEErrors(t *testing.T) {
	s := miniSim(t, DefaultOptions())
	gl, gg, dl, dg, _, err := s.gfPhase(context.Background(), nil, selfEnergy{})
	if err != nil {
		t.Fatal(err)
	}
	in := sse.PhaseInput{GLess: gl, GGtr: gg, DLess: dl, DGtr: dg}
	if _, err := s.DistributedSSE(in, 1, 1); err == nil {
		t.Fatal("single rank must be rejected")
	}
	if _, err := s.DistributedSSE(in, 17, 17); err == nil {
		t.Fatal("more ranks than energies must be rejected")
	}
}

func TestSearchTilesIntegration(t *testing.T) {
	// The decomposition the tile search picks must be runnable end-to-end.
	s := miniSim(t, DefaultOptions())
	best, _ := comm.SearchTiles(s.Dev.P, 4, 0)
	if best.TE*best.TA != 4 {
		t.Fatalf("search returned %d×%d", best.TE, best.TA)
	}
	gl, gg, dl, dg, _, err := s.gfPhase(context.Background(), nil, selfEnergy{})
	if err != nil {
		t.Fatal(err)
	}
	in := sse.PhaseInput{GLess: gl, GGtr: gg, DLess: dl, DGtr: dg}
	if _, err := s.DistributedSSE(in, best.TE, best.TA); err != nil {
		t.Fatal(err)
	}
}

// TestDivergedRunReturnsErrDiverged poisons the loop with a NaN and requires
// the one typed terminal error from every way into the one loop: a NaN
// reservoir temperature makes the first contact currents non-finite on the
// serial, clustered and adaptive paths alike.
func TestDivergedRunReturnsErrDiverged(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxIter = 3
	opts.Contacts.KT = math.NaN()
	for name, run := range map[string]func(*Simulator) error{
		"serial": func(s *Simulator) error { _, err := s.RunCtx(context.Background()); return err },
		"dist": func(s *Simulator) error {
			_, _, err := s.RunDistributedFTCtx(context.Background(), DistConfig{TE: 2, TA: 1})
			return err
		},
		"adaptive": func(s *Simulator) error {
			_, _, err := s.RunAdaptiveCtx(context.Background(), AdaptConfig{})
			return err
		},
	} {
		err := run(miniSim(t, opts))
		if !errors.Is(err, ErrDiverged) {
			t.Errorf("%s: err = %v, want ErrDiverged", name, err)
		}
		if name == "adaptive" && (err == nil || !strings.Contains(err.Error(), "round 1")) {
			t.Errorf("adaptive: err = %v, want the refinement round named", err)
		}
	}
}

// The GF phase sums its observables in grid-point order, not in the order
// the pool completes the points: every worker count gives the Workers=1
// numbers bit for bit.
func TestGFPhaseScheduleIndependent(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = 1
	_, _, _, _, want, err := miniSim(t, opts).gfPhase(context.Background(), nil, selfEnergy{})
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 4
	s := miniSim(t, opts)
	for rep := 0; rep < 20; rep++ {
		_, _, _, _, got, err := s.gfPhase(context.Background(), nil, selfEnergy{})
		if err != nil {
			t.Fatal(err)
		}
		if got.CurrentL != want.CurrentL || got.CurrentR != want.CurrentR ||
			got.EnergyCurrentL != want.EnergyCurrentL || got.EnergyCurrentR != want.EnergyCurrentR ||
			got.HeatL != want.HeatL || got.HeatR != want.HeatR {
			t.Fatalf("rep %d: 4-worker observables %+v differ from the 1-worker %+v", rep, got, want)
		}
	}
}
