package main

// adapter.go is the benchmark's whole dependency surface on the program:
// every call into negfsim/internal/* is made from this file and nowhere
// else, so an API refactor of the program sees what the benchmark needs in
// one place. The rest of the harness works with the plain types declared
// here and with the JSON documents the services speak over HTTP.
//
// Nothing here loads or probes a tune schedule: the kernels stay at
// cmat.DefaultBlocking, so the numbers do not depend on ~/.cache/negfsim.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"negfsim/internal/campaign"
	"negfsim/internal/cmat"
	"negfsim/internal/comm"
	"negfsim/internal/core"
	"negfsim/internal/device"
	"negfsim/internal/egrid"
	"negfsim/internal/front"
	"negfsim/internal/obs"
	"negfsim/internal/perfmodel"
	"negfsim/internal/rgf"
	"negfsim/internal/serve"
	"negfsim/internal/sse"
	"negfsim/internal/transport"
)

// ---------------------------------------------------------------------------
// Run documents
// ---------------------------------------------------------------------------

// runDoc is one validated RunConfig document.
type runDoc struct{ cfg core.RunConfig }

// parseRunDoc strictly parses and validates a RunConfig JSON document.
func parseRunDoc(raw []byte) (*runDoc, error) {
	cfg, err := core.ParseRunConfig(raw)
	if err != nil {
		return nil, err
	}
	return &runDoc{cfg: *cfg}, nil
}

// validateCampaignDoc strictly parses and validates a campaign request.
func validateCampaignDoc(raw []byte) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var req campaign.Request
	if err := dec.Decode(&req); err != nil {
		return err
	}
	return req.Validate()
}

// with returns a copy of the document after edit.
func (d *runDoc) with(edit func(*core.RunConfig)) *runDoc {
	c := *d
	if c.cfg.Adapt != nil {
		a := *c.cfg.Adapt
		c.cfg.Adapt = &a
	}
	edit(&c.cfg)
	return &c
}

func (d *runDoc) withBias(b float64) *runDoc {
	return d.with(func(c *core.RunConfig) { c.Bias = b })
}

func (d *runDoc) withKT(kt float64) *runDoc {
	return d.with(func(c *core.RunConfig) { c.KT = kt })
}

func (d *runDoc) withDist(grid string) *runDoc {
	return d.with(func(c *core.RunConfig) { c.Dist = grid })
}

func (d *runDoc) withSpace(ranks int) *runDoc {
	return d.with(func(c *core.RunConfig) { c.Space = ranks })
}

func (d *runDoc) withMaxIter(n int) *runDoc {
	return d.with(func(c *core.RunConfig) { c.MaxIter = n })
}

// withWorkers pins the run's pool parallelism (an execution knob: it does
// not change the document's content address).
func (d *runDoc) withWorkers(n int) *runDoc {
	return d.with(func(c *core.RunConfig) { c.Workers = n })
}

// reference is the plain serial uniform-grid run of the same physics: the
// document every variant is verified against.
func (d *runDoc) reference() *runDoc {
	return d.with(func(c *core.RunConfig) { c.Dist, c.Space, c.Adapt = "", 0, nil })
}

// isReference reports whether the document already is its own reference.
func (d *runDoc) isReference() bool {
	return d.cfg.Dist == "" && d.cfg.Space < 2 && !d.cfg.AdaptEnabled()
}

func (d *runDoc) bias() float64 { return d.cfg.Bias }
func (d *runDoc) kt() float64   { return d.cfg.KT }

// checkTol is the tolerance a run's observables are held to against the
// reference run: factor times the convergence tolerance, or factor times
// the current tolerance when the run adapts its energy grid.
func (d *runDoc) checkTol(factor float64) float64 {
	if d.cfg.AdaptEnabled() {
		return factor * d.cfg.Canonical().Adapt.TolCurrent
	}
	return factor * d.cfg.Tol
}

// JSON renders the document as a submit body.
func (d *runDoc) JSON() []byte {
	raw, err := json.Marshal(d.cfg)
	if err != nil {
		panic(err) // a validated RunConfig always marshals
	}
	return raw
}

// fusedGEMMShape is the product the DaCe Σ kernel fuses the (kz, E) grid
// into at the document's device: (Nkz·NE·Norb)×Norb by Norb×Norb.
func (d *runDoc) fusedGEMMShape() (rows, inner, cols int) {
	p := d.cfg.Device.Grid()
	return p.Nkz * p.NE * p.Norb, p.Norb, p.Norb
}

// ---------------------------------------------------------------------------
// One op: a cold-constructed run
// ---------------------------------------------------------------------------

// iterSample is one Born iteration's phase breakdown.
type iterSample struct {
	Iter               int
	Wall, GF, SSE, Mix time.Duration
}

// adaptInfo summarizes an adaptive-grid run.
type adaptInfo struct {
	Rounds, BornIters, PointsFine, PointsActive, Solves, UniformSolves int
}

// outcome is what one op produced.
type outcome struct {
	Iterations int
	Converged  bool
	IL, IR, QL float64 // contact currents and left phonon heat current
	WireBytes  int64   // exchange traffic of a distributed run
	Adapt      *adaptInfo

	DeviceBuild time.Duration // Spec.Build
	New         time.Duration // core.New: H(kz), S(kz), Φ(qz), SSE kernel

	doc *runDoc
	res *core.Result
}

// solve builds the device and simulator of d from nothing and runs it in
// the execution mode the document selects — the dispatch every frontend of
// the program performs. hook, when non-nil, receives every Born iteration.
func solve(ctx context.Context, d *runDoc, hook func(iterSample)) (*outcome, error) {
	opts, err := d.cfg.Options()
	if err != nil {
		return nil, err
	}
	if hook != nil {
		opts.OnIteration = func(st core.IterStats) {
			hook(iterSample{Iter: st.Iter, Wall: st.Wall, GF: st.GF, SSE: st.SSE, Mix: st.Mix})
		}
	}
	out := &outcome{doc: d}
	t0 := time.Now()
	dev, err := d.cfg.Device.Build()
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	sim := core.New(dev, opts)
	out.DeviceBuild, out.New = t1.Sub(t0), time.Since(t1)

	var res *core.Result
	if ac, adaptive := d.cfg.AdaptConfig(); adaptive {
		res, out.WireBytes, err = sim.RunAdaptiveCtx(ctx, ac)
	} else if dc, distributed, derr := d.cfg.DistConfig(); derr != nil {
		return nil, derr
	} else if distributed {
		res, out.WireBytes, err = sim.RunDistributedFTCtx(ctx, dc)
	} else {
		res, err = sim.RunCtx(ctx)
	}
	if err != nil {
		return nil, err
	}
	out.res = res
	out.Iterations, out.Converged = res.Iterations, res.Converged
	out.IL, out.IR, out.QL = res.Obs.CurrentL, res.Obs.CurrentR, res.Obs.HeatL
	if a := res.Adapt; a != nil {
		out.Adapt = &adaptInfo{a.Rounds, a.Iterations, a.PointsFine, a.PointsActive, a.Solves, a.UniformSolves}
	}
	return out, nil
}

// modelWireBytes is the exchange volume the program's own models predict
// for a run of d that took the given number of Born iterations: the §4.1
// DaCe volume per SSE phase, the closed-form spatial volume per GF phase.
func modelWireBytes(d *runDoc, iterations int) float64 {
	p := d.cfg.Device.Grid()
	total := 0.0
	if te, ta, _ := d.cfg.DistGrid(); te > 0 {
		// The SSE phase is skipped on the iteration that converges.
		total += comm.DaCeVolume(p, te, ta) * float64(iterations-1)
	}
	if d.cfg.Space >= 2 {
		total += perfmodel.SpatialGFVolume(p, d.cfg.Space) * float64(iterations)
	}
	return total
}

// ---------------------------------------------------------------------------
// Counters the program keeps
// ---------------------------------------------------------------------------

// setObs switches the program's observability recording on or off.
func setObs(on bool) {
	if on {
		obs.Enable()
	} else {
		obs.Disable()
	}
}

// obsCounter reads a counter of the program's registry (it only advances
// while recording is on).
func obsCounter(name string) int64 { return obs.GetCounter(name).Value() }

// flopCount reads the kernels' always-on flop counter.
func flopCount() uint64 { return cmat.Counter.Flops() }

// ---------------------------------------------------------------------------
// The in-process fleet: one front, n serve workers, real HTTP between them
// ---------------------------------------------------------------------------

// fleet is a front tier over serve workers, each behind its own loopback
// HTTP server, plus the campaign API mounted next to the front's job API
// the way cmd/qtfront mounts it.
type fleet struct {
	URL        string   // the front
	WorkerURLs []string // the workers, for the layer rungs

	scheds  []*serve.Scheduler
	front   *front.Front
	mgr     *campaign.Manager
	servers []*httptest.Server
}

// fleetWorkers is the fleet's worker count: one per core.
const fleetWorkers = 2

// startFleet builds the fleet: every worker runs one job at a time on one
// pool worker, quotas are off.
func startFleet() *fleet {
	f := &fleet{}
	for i := 0; i < fleetWorkers; i++ {
		// Retain and QueueDepth are sized so a whole run stays queryable
		// and admission control never refuses a closed-loop client.
		s := serve.New(serve.Config{MaxConcurrent: 1, WorkerBudget: 1, QueueDepth: 64, Retain: 4096})
		srv := httptest.NewServer(serve.NewAPI(s))
		f.scheds = append(f.scheds, s)
		f.servers = append(f.servers, srv)
		f.WorkerURLs = append(f.WorkerURLs, srv.URL)
	}
	f.front = front.New(front.Config{Workers: f.WorkerURLs, Retain: 4096})
	f.mgr = campaign.NewManager(campaign.FrontBackend{F: f.front, Tenant: "campaign"}, 4)
	mux := http.NewServeMux()
	campaign.NewAPI(f.mgr).Register(mux)
	mux.Handle("/", front.NewAPI(f.front).Handler())
	srv := httptest.NewServer(mux)
	f.servers = append(f.servers, srv)
	f.URL = srv.URL
	return f
}

// close tears the fleet down and waits for its goroutines.
func (f *fleet) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = f.mgr.Close(ctx)   // best effort: the run is over
	_ = f.front.Close(ctx) // best effort
	for _, srv := range f.servers {
		srv.Close()
	}
	for _, s := range f.scheds {
		_ = s.Close(ctx) // best effort
	}
}

// queueWaits returns, per job a worker ran, how long it sat admitted
// before a runner started it.
func (f *fleet) queueWaits() []time.Duration {
	var out []time.Duration
	for _, s := range f.scheds {
		for _, j := range s.Jobs() {
			if st := j.Status(); st.Started != nil {
				out = append(out, st.Started.Sub(st.Queued))
			}
		}
	}
	return out
}

// schedulerRun submits d to the first worker's scheduler directly (no
// HTTP) and waits for it; submit is the time the Submit call took.
func (f *fleet) schedulerRun(ctx context.Context, d *runDoc) (submit time.Duration, err error) {
	t0 := time.Now()
	j, err := f.scheds[0].Submit(d.cfg)
	submit = time.Since(t0)
	if err != nil {
		return submit, err
	}
	for i := 0; ; i++ {
		if _, ok := j.WaitIter(ctx, i); !ok {
			break
		}
	}
	if _, ok := j.Result(); !ok {
		return submit, fmt.Errorf("scheduler job %s: %s", j.ID(), j.Status().Error)
	}
	return submit, nil
}

// keyOf computes the front tier's content address of d.
func keyOf(d *runDoc) error {
	_, err := front.KeyOf(d.cfg)
	return err
}

// parseCanonical is the admission path of a submission: strict parse,
// validation and canonicalization.
func parseCanonical(raw []byte) error {
	cfg, err := core.ParseRunConfig(raw)
	if err != nil {
		return err
	}
	_ = cfg.Canonical()
	return nil
}

// ---------------------------------------------------------------------------
// Layer rungs: each method is one call into one layer's public functions
// ---------------------------------------------------------------------------

// --- cmat ---

// gemmRung holds the operands of one dense product shape.
type gemmRung struct{ a, b, out *cmat.Dense }

func newGEMMRung(rows, inner, cols int) *gemmRung {
	rng := rand.New(rand.NewSource(1))
	return &gemmRung{cmat.RandomDense(rng, rows, inner), cmat.RandomDense(rng, inner, cols), cmat.NewDense(rows, cols)}
}

func (g *gemmRung) mul()               { g.a.MulInto(g.out, g.b) }
func (g *gemmRung) mulPar(workers int) { g.a.MulParInto(g.out, g.b, workers) }

// flops is the real flop count of one product (8 per complex MAC).
func (g *gemmRung) flops() float64 {
	return 8 * float64(g.a.Rows) * float64(g.a.Cols) * float64(g.b.Cols)
}

// inverseRung inverts one well-conditioned n×n matrix.
type inverseRung struct{ a, out *cmat.Dense }

func newInverseRung(n int) *inverseRung {
	return &inverseRung{cmat.RandomHermitian(rand.New(rand.NewSource(2)), n, float64(n)), cmat.NewDense(n, n)}
}

func (r *inverseRung) invert() error { return cmat.InverseInto(r.out, r.a) }

// --- rgf ---

// rgfRung is the electron operator A(E) of a document's device at
// mid-window energy with the contact self-energies folded in — the
// system every retarded solve of a GF phase inverts — plus its phonon
// counterpart.
type rgfRung struct {
	h, s, phi   *cmat.BlockTri
	a           *cmat.BlockTri
	energy, eta float64
	contacts    rgf.Contacts
	sigma       []*cmat.Dense // contact Σ^< blocks for the Keldysh pass
	params      device.Params
}

func newRGFRung(d *runDoc) (*rgfRung, error) {
	dev, err := d.cfg.Device.Build()
	if err != nil {
		return nil, err
	}
	opts, err := d.cfg.Options()
	if err != nil {
		return nil, err
	}
	p := dev.P
	r := &rgfRung{
		h: dev.Hamiltonian(0), s: dev.Overlap(0), phi: dev.Dynamical(0),
		energy: p.Energy(p.NE / 2), eta: opts.Eta, contacts: opts.Contacts, params: p,
	}
	r.a = cmat.NewBlockTri(r.h.N, r.h.Bs)
	sigL, sigR, err := r.contactSelfEnergies(r.a)
	if err != nil {
		return nil, err
	}
	r.a.Diag[0].SubInPlace(sigL)
	r.a.Diag[r.a.N-1].SubInPlace(sigR)
	r.sigma = make([]*cmat.Dense, r.a.N)
	for i := range r.sigma {
		r.sigma[i] = cmat.NewDense(r.a.Bs, r.a.Bs)
	}
	r.sigma[0].AddScaledInPlace(complex(0, 0.5), rgf.Broadening(sigL))
	r.sigma[r.a.N-1].AddScaledInPlace(complex(0, 0.5), rgf.Broadening(sigR))
	return r, nil
}

// contactSelfEnergies assembles the pristine operator (E+iη)·S − H into a
// and runs the two Sancho–Rubio contact solves on it.
func (r *rgfRung) contactSelfEnergies(a *cmat.BlockTri) (sigL, sigR *cmat.Dense, err error) {
	r.h.ShiftDiagInto(a, complex(r.energy, r.eta), r.s)
	return rgf.BoundarySelfEnergies(a, 1e-10)
}

// boundary is one contactSelfEnergies on arena buffers.
func (r *rgfRung) boundary() error {
	a := cmat.GetBlockTri(r.h.N, r.h.Bs)
	defer cmat.PutBlockTri(a)
	sigL, sigR, err := r.contactSelfEnergies(a)
	if err != nil {
		return err
	}
	cmat.PutAll(sigL, sigR)
	return nil
}

// retardedSeq is the sequential block recursion.
func (r *rgfRung) retardedSeq() error {
	ret, err := rgf.SolveRetarded(r.a)
	if err != nil {
		return err
	}
	ret.Release()
	return nil
}

// keldysh is one sequential retarded solve followed by one Keldysh pass;
// the rung reports the difference to retardedSeq.
func (r *rgfRung) keldysh() error {
	ret, err := rgf.SolveRetarded(r.a)
	if err != nil {
		return err
	}
	cmat.PutAll(ret.SolveKeldysh(r.sigma)...)
	ret.Release()
	return nil
}

// retardedPart2 is the Schur-complement solve over two segments on two
// workers.
func (r *rgfRung) retardedPart2() error {
	diag, err := rgf.PartitionedRetarded(r.a, 2, 2)
	if err != nil {
		return err
	}
	cmat.PutAll(diag...)
	return nil
}

// retardedDist2 is the distributed solve over a fresh 2-rank in-process
// cluster.
func (r *rgfRung) retardedDist2() error {
	cl := comm.NewCluster(2)
	defer cl.Unregister()
	return cl.Run(func(rk *comm.Rank) error {
		diag, err := rgf.DistributedRetarded(rk, r.a)
		if err != nil {
			return err
		}
		cmat.PutAll(diag...)
		return nil
	})
}

// electronPoint is one full (kz, E) solve: boundaries, retarded, two
// Keldysh passes, currents.
func (r *rgfRung) electronPoint() error {
	res, err := rgf.SolveElectron(r.h, r.s, r.energy, rgf.Scattering{}, r.contacts, r.eta)
	if err != nil {
		return err
	}
	res.Release()
	return nil
}

// phononPoint is one full (qz, ω) solve.
func (r *rgfRung) phononPoint() error {
	res, err := rgf.SolvePhonon(r.phi, r.params.EStep(), rgf.PhononScattering{},
		rgf.PhononContacts{KTL: 0.026, KTR: 0.025}, r.eta)
	if err != nil {
		return err
	}
	res.Release()
	return nil
}

// modelFlopsPerPoint is perfmodel's RGF flop count for one (kz, E) point.
func (r *rgfRung) modelFlopsPerPoint() float64 {
	p := r.params
	return perfmodel.RGFFlops(p) / float64(p.Nkz*p.NE)
}

// --- sse ---

// sseRung is the SSE kernel of a document's device with the Green's
// functions of a finished run of it as input.
type sseRung struct {
	k      *sse.Kernel
	in     sse.PhaseInput
	preL   *sse.PreD
	params device.Params
}

func newSSERung(o *outcome) (*sseRung, error) {
	dev, err := o.doc.cfg.Device.Build()
	if err != nil {
		return nil, err
	}
	r := &sseRung{k: sse.NewKernel(dev), params: dev.P,
		in: sse.PhaseInput{GLess: o.res.GLess, GGtr: o.res.GGtr, DLess: o.res.DLess, DGtr: o.res.DGtr}}
	r.preL = r.k.PreprocessD(r.in.DLess)
	return r, nil
}

func (r *sseRung) phaseDaCe(workers int) { r.k.ComputePhaseParallel(r.in, sse.DaCe, workers) }
func (r *sseRung) phaseOMEN(workers int) { r.k.ComputePhaseParallel(r.in, sse.OMEN, workers) }
func (r *sseRung) preprocess()           { r.k.PreprocessD(r.in.DLess) }
func (r *sseRung) sigma()                { r.k.SigmaDaCe(r.in.GLess, r.preL) }
func (r *sseRung) pi()                   { r.k.PiDaCe(r.in.GLess, r.in.GGtr) }

// tilePhase computes the (TE, TA) = (1, 2) tile of rank 0: both Σ tiles
// and the Π tile, the kernels a distributed SSE phase runs per rank.
func (r *sseRung) tilePhase() {
	p := r.params
	aHi := (p.NA + 1) / 2
	r.k.SigmaDaCeTile(r.in.GLess, r.preL, 0, p.NE, 0, aHi)
	r.k.SigmaDaCeTile(r.in.GGtr, r.preL, 0, p.NE, 0, aHi)
	r.k.PiDaCeTile(r.in.GLess, r.in.GGtr, 0, p.NE, 0, aHi)
}

// modelSigmaFlops is the program's prediction of the counted flops of one
// SigmaDaCe call.
func (r *sseRung) modelSigmaFlops() float64 {
	return sse.SigmaFlopsMeasuredModel(r.params, sse.DaCe)
}

// --- egrid ---

// egridPlanApply runs one controller round on a synthetic spectrum over
// the document's energy window: Plan, then Apply.
func egridPlanApply(d *runDoc) error {
	p := d.cfg.Device.Grid()
	ctrl, err := egrid.NewController(p.NE, p.Emin, p.Emax, egrid.Config{})
	if err != nil {
		return err
	}
	values := make([]float64, p.NE)
	for e := range values {
		x := p.Energy(e)
		values[e] = 1 / (1 + 50*x*x) // one resonance at mid-window
	}
	ctrl.Apply(ctrl.Plan(values))
	return nil
}

// --- comm / transport ---

// exchangeRung runs the two SSE exchange patterns of §4.1 on fresh 2-rank
// in-process clusters at a document's device shape.
type exchangeRung struct{ p device.Params }

func newExchangeRung(d *runDoc) *exchangeRung { return &exchangeRung{d.cfg.Device.Grid()} }

func (x *exchangeRung) run(fn func(*comm.Rank) error) (int64, error) {
	cl := comm.NewCluster(2)
	defer cl.Unregister()
	err := cl.Run(fn)
	return cl.TotalBytes(), err
}

// dace is the communication-avoiding exchange on a 1×2 grid.
func (x *exchangeRung) dace() (int64, error) {
	return x.run(func(r *comm.Rank) error { return comm.DaCeExchangeSSE(r, x.p, 1, 2) })
}

// omen is the original round-based exchange.
func (x *exchangeRung) omen() (int64, error) {
	return x.run(func(r *comm.Rank) error { return comm.OMENExchangeSSE(r, x.p) })
}

func (x *exchangeRung) daceModelBytes() int64 { return comm.ExpectedDaCeExchangeBytes(x.p, 1, 2) }

// alltoallv runs rounds all-to-alls of n elements per peer on one 2-rank
// cluster.
func (x *exchangeRung) alltoallv(rounds, n int) error {
	_, err := x.run(func(r *comm.Rank) error {
		send := [][]complex128{make([]complex128, n), make([]complex128, n)}
		for k := 0; k < rounds; k++ {
			if _, err := r.Alltoallv(send); err != nil {
				return err
			}
		}
		return nil
	})
	return err
}

// tcpPair is a 2-rank cluster whose ranks talk over loopback sockets: the
// other fabric, which no end-to-end workload crosses.
type tcpPair struct{ clusters [2]*comm.Cluster }

func newTCPPair(ctx context.Context) (*tcpPair, error) {
	var addrs [2]string
	var lns [2]net.Listener
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	t := &tcpPair{}
	for r := range t.clusters {
		cl, err := comm.NewClusterTCPWith(ctx, r, addrs[:], transport.TCPConfig{
			Listener: lns[r], RetryInterval: time.Millisecond,
		})
		if err != nil {
			return nil, err
		}
		t.clusters[r] = cl
	}
	return t, nil
}

// pingPong sends rounds messages of n elements from rank 0 to rank 1 and
// back.
func (t *tcpPair) pingPong(rounds, n int) error {
	buf := make([]complex128, n)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i, cl := range t.clusters {
		wg.Add(1)
		go func(i int, cl *comm.Cluster) {
			defer wg.Done()
			errs[i] = cl.Run(func(r *comm.Rank) error {
				for k := 0; k < rounds; k++ {
					if r.ID == 0 {
						if err := r.Send(1, buf); err != nil {
							return err
						}
						if _, err := r.Recv(1); err != nil {
							return err
						}
					} else {
						if _, err := r.Recv(0); err != nil {
							return err
						}
						if err := r.Send(0, buf); err != nil {
							return err
						}
					}
				}
				return nil
			})
		}(i, cl)
	}
	wg.Wait()
	if errs[0] != nil {
		return errs[0]
	}
	return errs[1]
}

func (t *tcpPair) close() {
	for _, cl := range t.clusters {
		_ = cl.Close() // best effort: the rung is over
	}
}

// --- core: checkpoint, config, Gummel ---

// checkpointRoundTrip gob-encodes the converged self-energies of o and
// decodes them again, returning both times and the encoded size.
func checkpointRoundTrip(o *outcome) (save, load time.Duration, size int, err error) {
	ck := core.CheckpointOf(o.doc.cfg.Device, o.res)
	var buf bytes.Buffer
	t0 := time.Now()
	if err = ck.Save(&buf); err != nil {
		return 0, 0, 0, err
	}
	save, size = time.Since(t0), buf.Len()
	t1 := time.Now()
	_, err = core.LoadCheckpoint(&buf)
	return save, time.Since(t1), size, err
}

// gummelOuter runs the coupled NEGF–Poisson loop on the laptop-scale
// nanowire for two outer iterations — the harness's only coverage of the
// poisson layer.
func gummelOuter(ctx context.Context) error {
	dev, err := device.New(device.Mini())
	if err != nil {
		return err
	}
	opts := core.DefaultOptions()
	opts.MaxIter = 3
	gate := core.DefaultGate(0.2, 0.1)
	gate.MaxOuter = 2
	_, err = core.New(dev, opts).RunWithPoissonCtx(ctx, gate)
	return err
}
