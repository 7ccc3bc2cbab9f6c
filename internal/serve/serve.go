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
	"strconv"
	"sync"
	"time"

	"negfsim/internal/core"
	"negfsim/internal/obs"
)

// Service-level telemetry (see docs/OBSERVABILITY.md). Queue depth and
// running count are gauge funcs registered per scheduler in New.
var (
	obsSubmitted = obs.GetCounter("serve.jobs_submitted")
	obsRejected  = obs.GetCounter("serve.jobs_rejected")
	obsSucceeded = obs.GetCounter("serve.jobs_succeeded")
	obsFailed    = obs.GetCounter("serve.jobs_failed")
	obsCancelled = obs.GetCounter("serve.jobs_cancelled")
	obsJobSpan   = obs.GetTimer("serve.job")
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
	// DefaultAdapt, when non-nil, is applied to every plain serial
	// submission that carries no adapt block of its own — the daemon-wide
	// adaptive-grid policy (qtsimd -adapt). Submissions with an explicit
	// block (including mode "off") keep theirs.
	DefaultAdapt *core.AdaptSpec
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

// JobState is a job's lifecycle phase.
type JobState string

// The job lifecycle: Queued → Running → one of the three terminal states.
const (
	// Queued: admitted, waiting for a runner slot.
	Queued JobState = "queued"
	// Running: executing on a runner.
	Running JobState = "running"
	// Succeeded: finished with a result.
	Succeeded JobState = "succeeded"
	// Failed: finished with an error that was not a cancellation.
	Failed JobState = "failed"
	// Cancelled: stopped by a cancel request (or scheduler shutdown).
	Cancelled JobState = "cancelled"
)

// stateCode is the numeric encoding of the serve.job_state gauge.
func stateCode(s JobState) int64 {
	switch s {
	case Queued:
		return 0
	case Running:
		return 1
	case Succeeded:
		return 2
	case Failed:
		return 3
	case Cancelled:
		return 4
	}
	return -1
}

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

// Job is one submitted simulation. All fields behind mu; accessors return
// snapshots.
type Job struct {
	id  string
	cfg core.RunConfig
	ck  *core.Checkpoint // warm-start seed, nil for cold runs

	mu   sync.Mutex
	cond *sync.Cond // broadcast on every iteration append and state change

	state    JobState
	err      string
	out      *core.Outcome // nil until the run succeeds
	iters    []IterRecord
	queued   time.Time
	started  time.Time
	finished time.Time
	cancel   context.CancelFunc // non-nil while running

	obsIters *obs.Counter // serve.job_iterations{job="id"}
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Config returns the job's run configuration.
func (j *Job) Config() core.RunConfig { return j.cfg }

// Status is a point-in-time public snapshot of a job.
type Status struct {
	// ID identifies the job; State is its lifecycle phase.
	ID    string   `json:"id"`
	State JobState `json:"state"`
	// Queued/Started/Finished are lifecycle timestamps (zero = not yet).
	Queued   time.Time  `json:"queued"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	// Iterations counts the Born iterations recorded so far.
	Iterations int `json:"iterations"`
	// Converged reports whether the run met its tolerance (terminal only).
	Converged bool `json:"converged"`
	// WarmStart reports whether the job was seeded with a Σ≷/Π≷ checkpoint
	// instead of starting the Born loop from zero self-energies.
	WarmStart bool `json:"warm_start,omitempty"`
	// Error carries the failure or cancellation message (terminal only).
	Error string `json:"error,omitempty"`
}

// Status returns the job's current snapshot.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:         j.id,
		State:      j.state,
		Queued:     j.queued,
		Iterations: len(j.iters),
		WarmStart:  j.ck != nil,
		Error:      j.err,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	if j.out != nil {
		st.Converged = j.out.Result.Converged
	}
	return st
}

// Result returns the job's result once it has succeeded, and whether it is
// available.
func (j *Job) Result() (*core.Result, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != Succeeded || j.out == nil {
		return nil, false
	}
	return j.out.Result, true
}

// Bytes returns the distributed exchange traffic of a finished distributed
// job (zero for serial jobs).
func (j *Job) Bytes() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.out == nil {
		return 0
	}
	return j.out.WireBytes
}

// Done reports whether the job has reached a terminal state.
func (j *Job) Done() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state == Succeeded || j.state == Failed || j.state == Cancelled
}

// WaitIter blocks until iteration record i exists, the job reaches a
// terminal state, or ctx is cancelled. It returns the record and true when
// available; false means no more records will come (terminal and i is past
// the end, or ctx fired). This is the pull side of the streaming endpoint:
// every consumer replays from any index with no per-subscriber buffers and
// no dropped records.
func (j *Job) WaitIter(ctx context.Context, i int) (IterRecord, bool) {
	// A cond has no context integration; a watcher goroutine per WaitIter
	// call would leak on abandoned streams, so poke the cond when ctx dies.
	stop := context.AfterFunc(ctx, func() {
		j.mu.Lock()
		j.cond.Broadcast()
		j.mu.Unlock()
	})
	defer stop()
	j.mu.Lock()
	defer j.mu.Unlock()
	for {
		if i < len(j.iters) {
			return j.iters[i], true
		}
		if ctx.Err() != nil || j.state == Succeeded || j.state == Failed || j.state == Cancelled {
			return IterRecord{}, false
		}
		j.cond.Wait()
	}
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
	j.mu.Lock()
	j.iters = append(j.iters, rec)
	j.cond.Broadcast()
	j.mu.Unlock()
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
	cfg     Config
	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup

	mu       sync.Mutex
	cond     *sync.Cond // signals runners that pending has work (or closed)
	pending  []*Job
	jobs     map[string]*Job
	order    []string // submission order, for listing
	doneRing []string // finished ids in completion order, for eviction
	running  int
	closed   bool
	nextID   int
}

// New builds a scheduler and starts its MaxConcurrent runner goroutines.
func New(cfg Config) *Scheduler {
	s := &Scheduler{cfg: cfg.withDefaults(), jobs: map[string]*Job{}}
	s.cond = sync.NewCond(&s.mu)
	s.baseCtx, s.stop = context.WithCancel(context.Background())
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
		s.wg.Add(1)
		go s.runner()
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

// Submit validates and admits a job. It fails fast with ErrQueueFull when
// QueueDepth jobs are already waiting, and with ErrClosed during shutdown.
func (s *Scheduler) Submit(cfg core.RunConfig) (*Job, error) {
	return s.SubmitFrom(cfg, nil)
}

// SubmitFrom is Submit with an optional warm-start checkpoint: a non-nil ck
// seeds the Born loop with the saved Σ≷/Π≷ instead of zeros (it becomes
// the core.Plan's Seed), which lets a front tier start a run from an
// adjacent bias point's converged state. The checkpoint must match
// the config's device exactly and the run must be a plain serial one —
// distributed and Gummel-coupled runs manage their own checkpointing.
func (s *Scheduler) SubmitFrom(cfg core.RunConfig, ck *core.Checkpoint) (*Job, error) {
	if s.cfg.DefaultAdapt != nil && cfg.Adapt == nil &&
		cfg.Dist == "" && cfg.Space < 2 && cfg.Gate == nil {
		a := *s.cfg.DefaultAdapt
		cfg.Adapt = &a
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ck != nil {
		if cfg.Dist != "" || cfg.Space >= 2 || cfg.Gate != nil {
			return nil, errors.New("serve: warm start applies to plain serial runs only (no dist, no space, no gate)")
		}
		if err := ck.Compatible(cfg.Device); err != nil {
			return nil, err
		}
		if err := ck.CompatibleGrid(cfg.AdaptEnabled()); err != nil {
			return nil, err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if len(s.pending) >= s.cfg.QueueDepth {
		obsRejected.Inc()
		return nil, ErrQueueFull
	}
	s.nextID++
	j := &Job{
		id:     "j" + strconv.Itoa(s.nextID),
		cfg:    cfg,
		ck:     ck,
		state:  Queued,
		queued: time.Now(),
	}
	j.cond = sync.NewCond(&j.mu)
	itersName, stateName := j.metricNames()
	j.obsIters = obs.GetCounter(itersName)
	obs.RegisterGaugeFunc(stateName, func() int64 {
		j.mu.Lock()
		defer j.mu.Unlock()
		return stateCode(j.state)
	})
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.pending = append(s.pending, j)
	obsSubmitted.Inc()
	s.cond.Signal()
	return j, nil
}

// Get returns the job with the given id, if it is still in the store.
func (s *Scheduler) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns the stored jobs in submission order.
func (s *Scheduler) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		if j, ok := s.jobs[id]; ok {
			out = append(out, j)
		}
	}
	return out
}

// Cancel stops the job with the given id: a queued job leaves the queue
// immediately (freeing its admission slot), a running job has its context
// cancelled and drains within one Born iteration. Cancelling a finished job
// is a no-op. The returned state is the job's state after the request.
func (s *Scheduler) Cancel(id string) (JobState, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return "", fmt.Errorf("serve: no such job %q", id)
	}
	// Remove from pending under the scheduler lock so a runner cannot pick
	// it up concurrently with the state change below. If a runner popped it
	// already (removed stays false), the runner owns the completion
	// accounting: its execute sees the Cancelled state and returns.
	removed := false
	for i, p := range s.pending {
		if p == j {
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			removed = true
			break
		}
	}
	s.mu.Unlock()

	j.mu.Lock()
	switch j.state {
	case Queued:
		j.state = Cancelled
		j.err = "cancelled while queued"
		j.finished = time.Now()
		j.cond.Broadcast()
		j.mu.Unlock()
		obsCancelled.Inc()
		if removed {
			s.noteFinished(j)
		}
		return Cancelled, nil
	case Running:
		cancel := j.cancel
		st := j.state
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return st, nil
	default:
		st := j.state
		j.mu.Unlock()
		return st, nil
	}
}

// Close shuts the scheduler down: no new admissions, queued jobs are
// cancelled, running jobs have their contexts cancelled, and Close blocks
// until every runner has drained or ctx expires.
func (s *Scheduler) Close(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	pending := s.pending
	s.pending = nil
	s.cond.Broadcast()
	s.mu.Unlock()

	for _, j := range pending {
		j.mu.Lock()
		j.state = Cancelled
		j.err = "scheduler shut down"
		j.finished = time.Now()
		j.cond.Broadcast()
		j.mu.Unlock()
		obsCancelled.Inc()
	}
	s.stop() // cancels every running job's context

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: shutdown timed out: %w", ctx.Err())
	}
}

// runner is one concurrency slot: pop, execute, account, repeat.
func (s *Scheduler) runner() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.pending) == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.closed {
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
		s.noteFinished(j)
	}
}

// execute runs one job start to finish on the calling runner goroutine.
func (s *Scheduler) execute(j *Job) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()

	j.mu.Lock()
	if j.state != Queued { // cancelled between pop and start
		j.mu.Unlock()
		return
	}
	j.state = Running
	j.started = time.Now()
	j.cancel = cancel
	j.cond.Broadcast()
	j.mu.Unlock()

	out, err := s.runConfigured(ctx, j)

	j.mu.Lock()
	j.cancel = nil
	j.finished = time.Now()
	j.out = out
	switch {
	case err == nil:
		j.state = Succeeded
	case ctx.Err() != nil || errors.Is(err, context.Canceled):
		j.state = Cancelled
		j.err = err.Error()
	default:
		j.state = Failed
		j.err = err.Error()
	}
	state := j.state
	obsJobSpan.Observe(j.finished.Sub(j.started))
	j.cond.Broadcast()
	j.mu.Unlock()

	switch state {
	case Succeeded:
		obsSucceeded.Inc()
	case Cancelled:
		obsCancelled.Inc()
	default:
		obsFailed.Inc()
	}
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

// noteFinished appends a terminal job to the retention ring and evicts the
// oldest finished jobs past Retain, unregistering their per-job metrics so
// the registry stays bounded in a long-lived daemon.
func (s *Scheduler) noteFinished(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.doneRing = append(s.doneRing, j.id)
	for len(s.doneRing) > s.cfg.Retain {
		id := s.doneRing[0]
		s.doneRing = s.doneRing[1:]
		old, ok := s.jobs[id]
		if !ok {
			continue
		}
		delete(s.jobs, id)
		for i, oid := range s.order {
			if oid == id {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
		itersName, stateName := old.metricNames()
		obs.Unregister(itersName)
		obs.Unregister(stateName)
	}
}
