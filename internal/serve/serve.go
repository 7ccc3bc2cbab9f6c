// Package serve is the multi-tenant simulation service behind cmd/qtsimd:
// a bounded job queue with admission control and a scheduler that
// multiplexes N concurrent self-consistent simulations over the process's
// shared worker pool (internal/pool) and matrix arena (internal/cmat).
//
// The shape is an inference-serving frontend transplanted onto the NEGF
// solver. A job is one core.RunConfig — the same versioned document qtsim
// consumes — and its lifecycle is queued → running → succeeded | failed |
// cancelled. Running jobs execute under a per-job context.Context threaded
// through core's one dispatch (Simulator.Execute), so a cancel request
// lands within one Born iteration: the GF phase checks the context per grid
// point and the simulated cluster's Send/Recv unblock on it directly.
//
// Capacity discipline: the scheduler runs at most MaxConcurrent jobs at
// once and grants each a Workers share of the pool budget
// (WorkerBudget/MaxConcurrent), so the combined grid-point parallelism of
// all tenants never oversubscribes GOMAXPROCS — the pool's direct-handoff
// design degrades saturated submissions to inline execution rather than
// queueing oversubscribed goroutines. Admission control bounds the queue:
// past QueueDepth waiting jobs, Submit fails fast (HTTP 429) instead of
// accepting unbounded backlog.
//
// Every job is individually visible at /metrics: per-job labelled series
// (serve.job_state{job="..."}, serve.job_iterations{job="..."}) are
// registered while the job lives in the store and unregistered when the
// retention ring evicts it, keeping the registry bounded. See
// docs/OBSERVABILITY.md.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"negfsim/internal/core"
	"negfsim/internal/jobs"
	"negfsim/internal/obs"
)

// Service-level telemetry (see docs/OBSERVABILITY.md). Queue depth and
// running count are gauge funcs registered per scheduler in New.
var (
	obsSubmitted = obs.GetCounter("serve.jobs_submitted")
	obsRejected  = obs.GetCounter("serve.jobs_rejected")
	obsJobSpan   = obs.GetTimer("serve.job")
	// obsFinished counts jobs by terminal state.
	obsFinished = map[jobs.State]*obs.Counter{
		jobs.Succeeded: obs.GetCounter("serve.jobs_succeeded"),
		jobs.Failed:    obs.GetCounter("serve.jobs_failed"),
		jobs.Cancelled: obs.GetCounter("serve.jobs_cancelled"),
	}
)

// ErrQueueFull is returned by Submit when the waiting queue is at
// QueueDepth — the admission-control signal behind HTTP 429.
var ErrQueueFull = errors.New("serve: job queue full")

// ErrClosed is returned by Submit after Close has begun.
var ErrClosed = errors.New("serve: scheduler is shut down")

// Config sizes the scheduler.
type Config struct {
	// MaxConcurrent is the number of simulations run simultaneously
	// (default 2).
	MaxConcurrent int
	// QueueDepth bounds the jobs waiting beyond the running ones; a Submit
	// past it fails with ErrQueueFull (default 16).
	QueueDepth int
	// WorkerBudget is the total grid-point parallelism shared by all
	// running jobs (default GOMAXPROCS). Each job runs with
	// max(1, WorkerBudget/MaxConcurrent) workers unless its config pins
	// Workers explicitly.
	WorkerBudget int
	// Retain is how many finished jobs stay queryable before the oldest is
	// evicted, its per-job metrics unregistered with it (default 64).
	Retain int
}

// withDefaults fills the zero fields of a Config.
func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.WorkerBudget <= 0 {
		c.WorkerBudget = runtime.GOMAXPROCS(0)
	}
	if c.Retain <= 0 {
		c.Retain = 64
	}
	return c
}

// stateCode is the numeric encoding of the serve.job_state gauge.
var stateCode = map[jobs.State]int64{jobs.Queued: 0, jobs.Running: 1, jobs.Succeeded: 2, jobs.Failed: 3, jobs.Cancelled: 4}

// IterRecord is one Born iteration of a job as streamed to clients —
// the service-side shape of core.IterStats (qtsim's trace line schema).
type IterRecord struct {
	// Iter is the 1-based Born iteration index.
	Iter int `json:"iter"`
	// WallNs is the iteration wall time in nanoseconds; GFNs/SSENs/MixNs
	// are the phase breakdown.
	WallNs int64 `json:"wall_ns"`
	GFNs   int64 `json:"gf_ns"`
	SSENs  int64 `json:"sse_ns"`
	MixNs  int64 `json:"mix_ns"`
	// Residual is the relative G change; omitted on the first iteration.
	Residual *float64 `json:"residual,omitempty"`
	// Converged reports whether this iteration met the tolerance.
	Converged bool `json:"converged"`
}

// Job is one submitted simulation: its lifecycle record (whose log is the
// Born iteration stream) plus the run's inputs and outcome.
type Job struct {
	jobs.Record[IterRecord]

	id  string
	cfg core.RunConfig
	ck  *core.Checkpoint // warm-start seed, nil for cold runs
	// out is written once by the runner before the terminal transition and
	// read only by whoever has seen the job succeed.
	out *core.Outcome

	obsIters *obs.Counter // serve.job_iterations{job="id"}
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Status returns the job's current status document.
func (j *Job) Status() jobs.Status {
	s := j.Snapshot()
	st := s.Status(j.id)
	st.WarmStart = j.ck != nil
	if s.State == jobs.Succeeded {
		st.Converged = j.out.Result.Converged
	}
	return st
}

// Result returns the job's result once it has succeeded, and whether it is
// available.
func (j *Job) Result() (*core.Result, bool) {
	if j.Snapshot().State != jobs.Succeeded {
		return nil, false
	}
	return j.out.Result, true
}

// recordIteration is the job's core.Options.OnIteration hook. It runs on
// the solver goroutine: append, count, wake streamers — nothing heavier.
func (j *Job) recordIteration(st core.IterStats) {
	rec := IterRecord{
		Iter:      st.Iter,
		WallNs:    st.Wall.Nanoseconds(),
		GFNs:      st.GF.Nanoseconds(),
		SSENs:     st.SSE.Nanoseconds(),
		MixNs:     st.Mix.Nanoseconds(),
		Converged: st.Converged,
	}
	if !math.IsNaN(st.Residual) {
		r := st.Residual
		rec.Residual = &r
	}
	j.obsIters.Inc()
	j.Append(rec)
}

// metricNames returns the job's labelled series, registered at submit and
// unregistered at eviction.
func (j *Job) metricNames() (iters, state string) {
	return obs.Labeled("serve.job_iterations", "job", j.id),
		obs.Labeled("serve.job_state", "job", j.id)
}

// Scheduler owns the job store, the admission-controlled queue and the
// runner goroutines. Create one with New; it is safe for concurrent use.
type Scheduler struct {
	cfg   Config
	store *jobs.Store[*Job]

	mu      sync.Mutex
	cond    *sync.Cond // signals runners that pending has work (or shutdown)
	pending []*Job
	running int
}

// New builds a scheduler and starts its MaxConcurrent runner goroutines.
func New(cfg Config) *Scheduler {
	s := &Scheduler{cfg: cfg.withDefaults()}
	s.store = jobs.NewStore("j", s.cfg.Retain, func(j *Job) {
		itersName, stateName := j.metricNames()
		obs.Unregister(itersName)
		obs.Unregister(stateName)
	})
	s.cond = sync.NewCond(&s.mu)
	obs.RegisterGaugeFunc("serve.queue_depth", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return int64(len(s.pending))
	})
	obs.RegisterGaugeFunc("serve.jobs_running", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return int64(s.running)
	})
	for i := 0; i < s.cfg.MaxConcurrent; i++ {
		s.store.Go(s.runner)
	}
	return s
}

// PerJobWorkers is the grid-point parallelism granted to a job that does
// not pin Workers itself: the worker budget split evenly across the
// concurrency slots, never below one.
func (s *Scheduler) PerJobWorkers() int {
	w := s.cfg.WorkerBudget / s.cfg.MaxConcurrent
	if w < 1 {
		w = 1
	}
	return w
}

// Submit admits a validated job (see SubmitFrom). It fails fast with
// ErrQueueFull when QueueDepth jobs are already waiting, and with ErrClosed
// during shutdown.
func (s *Scheduler) Submit(cfg core.RunConfig) (*Job, error) {
	return s.SubmitFrom(cfg, nil)
}

// SubmitFrom is Submit with an optional warm-start checkpoint: a non-nil ck
// seeds the Born loop with the saved Σ≷/Π≷ instead of zeros (it becomes
// the core.Plan's seed), which lets a front tier or a campaign start a run
// from an adjacent bias point's converged state. The checkpoint must pass
// cfg.CheckSeed, under any placement or outer loop. cfg must be a
// validated document: this tier validates once, where a document enters it
// — core.ParseRunConfig in the HTTP submit — and in-process callers hand
// documents their own tier validated (campaign.Request.Validate, the
// benchmark's parsed documents).
func (s *Scheduler) SubmitFrom(cfg core.RunConfig, ck *core.Checkpoint) (*Job, error) {
	j, _, err := s.admit(cfg, ck)
	return j, err
}

// admit is SubmitFrom, also returning the job's status at admission: taken
// under s.mu, before a runner can pop the job, so its state is queued.
func (s *Scheduler) admit(cfg core.RunConfig, ck *core.Checkpoint) (*Job, jobs.Status, error) {
	if err := cfg.CheckSeed(ck); err != nil {
		return nil, jobs.Status{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pending) >= s.cfg.QueueDepth {
		obsRejected.Inc()
		return nil, jobs.Status{}, ErrQueueFull
	}
	j, ok := s.store.Add(func(id string) *Job {
		j := &Job{id: id, cfg: cfg, ck: ck}
		j.Begin()
		return j
	})
	if !ok {
		return nil, jobs.Status{}, ErrClosed
	}
	itersName, stateName := j.metricNames()
	j.obsIters = obs.GetCounter(itersName)
	obs.RegisterGaugeFunc(stateName, func() int64 { return stateCode[j.Snapshot().State] })
	s.pending = append(s.pending, j)
	obsSubmitted.Inc()
	st := j.Status()
	s.cond.Signal()
	return j, st, nil
}

// Get returns the job with the given id, if it is still in the store.
func (s *Scheduler) Get(id string) (*Job, bool) { return s.store.Get(id) }

// Jobs returns the stored jobs in submission order.
func (s *Scheduler) Jobs() []*Job { return s.store.List() }

// Cancel stops the job with the given id: a queued job leaves the queue
// immediately (freeing its admission slot), a running job has its context
// cancelled and drains within one Born iteration. Cancelling a finished job
// is a no-op. The returned state is the job's state after the request.
func (s *Scheduler) Cancel(id string) (jobs.State, error) {
	j, ok := s.store.Get(id)
	if !ok {
		return "", fmt.Errorf("serve: no such job %q", id)
	}
	// The queue removal happens under the scheduler lock, so a runner cannot
	// pick the job up concurrently; a runner that popped it already finds it
	// Cancelled and skips it.
	s.mu.Lock()
	for i, p := range s.pending {
		if p == j {
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
	if j.Cancel("cancelled while queued") {
		s.settled(j, jobs.Cancelled)
	}
	return j.Snapshot().State, nil
}

// Close shuts the scheduler down: no new admissions, running jobs have
// their contexts cancelled, queued jobs are cancelled, and Close blocks
// until every runner has drained or ctx expires.
func (s *Scheduler) Close(ctx context.Context) error {
	return s.store.Close(ctx, func() {
		s.mu.Lock()
		pending := s.pending
		s.pending = nil
		s.cond.Broadcast()
		s.mu.Unlock()
		for _, j := range pending {
			if j.Cancel("scheduler shut down") {
				s.settled(j, jobs.Cancelled)
			}
		}
	})
}

// runner is one concurrency slot: pop, execute, repeat until shutdown.
func (s *Scheduler) runner() {
	ctx := s.store.Context()
	for {
		s.mu.Lock()
		for len(s.pending) == 0 && ctx.Err() == nil {
			s.cond.Wait()
		}
		if ctx.Err() != nil {
			s.mu.Unlock()
			return
		}
		j := s.pending[0]
		s.pending = s.pending[1:]
		s.running++
		s.mu.Unlock()

		s.execute(j)

		s.mu.Lock()
		s.running--
		s.mu.Unlock()
	}
}

// execute runs one job start to finish on the calling runner goroutine.
func (s *Scheduler) execute(j *Job) {
	ctx, cancel := context.WithCancel(s.store.Context())
	defer cancel()
	if !j.Start(cancel) { // cancelled between pop and start
		return
	}
	t0 := time.Now()
	out, err := s.runConfigured(ctx, j)
	state, msg := jobs.Succeeded, ""
	switch {
	case err == nil:
		j.out = out
	case ctx.Err() != nil || errors.Is(err, context.Canceled):
		state, msg = jobs.Cancelled, err.Error()
	default:
		state, msg = jobs.Failed, err.Error()
	}
	j.Finish(state, msg)
	obsJobSpan.Observe(time.Since(t0))
	s.settled(j, state)
}

// settled does a job's accounting after its terminal transition, whichever
// path took it there: the outcome counter, then retirement into the
// store's ring, which evicts the oldest finished jobs past Retain and
// unregisters their per-job metrics.
func (s *Scheduler) settled(j *Job, state jobs.State) {
	obsFinished[state].Inc()
	s.store.Retire(j.id)
}

// runConfigured builds the job's simulator — its worker share and the
// iteration hook are what the scheduler adds to the config — and hands the
// job to core's one dispatch.
func (s *Scheduler) runConfigured(ctx context.Context, j *Job) (*core.Outcome, error) {
	opts, err := j.cfg.Options()
	if err != nil {
		return nil, err
	}
	if opts.Workers <= 0 || opts.Workers > s.cfg.WorkerBudget {
		opts.Workers = s.PerJobWorkers()
	}
	opts.OnIteration = j.recordIteration
	sim, err := j.cfg.NewSimulatorWith(opts)
	if err != nil {
		return nil, err
	}
	return sim.Execute(ctx, core.Plan{Config: j.cfg, Place: core.DistConfig{Resume: j.ck}})
}
