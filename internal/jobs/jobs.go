// Package jobs is the one job lifecycle every service tier shares: the
// state enum, the record a job's state and iteration log live in, the store
// that mints ids and retains finished jobs, and the HTTP helpers of the
// lifecycle endpoints (http.go).
//
// The three tiers — the qtsimd scheduler (internal/serve), the sharded
// front (internal/front) and the campaign manager (internal/campaign) —
// embed a Record in their job type and keep one Store each. What stays in
// the tiers is what differs between them: serve's run queue and worker
// budget, front's cache/dedup/placement, campaign's bias ladder.
package jobs

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"
)

// State is a job's lifecycle phase.
type State string

// The lifecycle: Queued → Running → one of the three terminal states.
// Tiers without a queue begin at Running.
const (
	// Queued: admitted, waiting for a runner.
	Queued State = "queued"
	// Running: executing.
	Running State = "running"
	// Succeeded: finished with a result.
	Succeeded State = "succeeded"
	// Failed: finished with an error that was not a cancellation.
	Failed State = "failed"
	// Cancelled: stopped by a cancel request or shutdown.
	Cancelled State = "cancelled"
)

// Terminal reports whether s is one of the three final states.
func (s State) Terminal() bool { return s == Succeeded || s == Failed || s == Cancelled }

// Record is one job's lifecycle: its state, error and timestamps, the
// running context's CancelFunc and an append-only log of T. Tiers embed it
// and may guard their own fields with its mutex; its methods take the mutex
// themselves, so never call them while holding it. Every append and state
// change broadcasts, which is what WaitIter and Wait block on.
type Record[T any] struct {
	sync.Mutex
	cond   sync.Cond
	snap   Snapshot           // lifecycle fields; Iters is filled on read
	cancel context.CancelFunc // non-nil while running, if cancellable
	log    []T
}

// Snapshot is a point-in-time copy of a record's lifecycle fields.
type Snapshot struct {
	// State is the lifecycle phase; Err the failure or cancellation
	// message of a terminal job.
	State State
	Err   string
	// Queued is the submission time; Started and Finished are nil until
	// the job gets there.
	Queued   time.Time
	Started  *time.Time
	Finished *time.Time
	// Iters is the length of the log.
	Iters int
}

// Status is the one status document of a job, the body of
// GET /v1/jobs/{id} on the worker and on the front. The worker fills the
// lifecycle fields; the front fills the same ones from the shared run
// behind a submission and adds its own, which a worker leaves empty and
// the JSON omits — so the front's field set is a superset of the
// worker's.
type Status struct {
	// ID identifies the job; State is its lifecycle phase.
	ID    string `json:"id"`
	State State  `json:"state"`
	// Queued/Started/Finished are lifecycle timestamps (nil = not yet).
	Queued   time.Time  `json:"queued"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	// Iterations counts the Born iterations recorded so far.
	Iterations int `json:"iterations"`
	// Converged reports whether the run met its tolerance (terminal only).
	Converged bool `json:"converged"`
	// WarmStart reports whether the run was seeded with a Σ≷/Π≷
	// checkpoint instead of starting the Born loop from zero self-energies.
	WarmStart bool `json:"warm_start,omitempty"`
	// Error carries the failure or cancellation message (terminal only).
	Error string `json:"error,omitempty"`

	// The front's fields. Tenant submitted the job; Source says how the
	// submission resolved ("run", "joined" or "cache"); Key is the
	// content address every deduplicated submission shares.
	Tenant string `json:"tenant,omitempty"`
	Source string `json:"source,omitempty"`
	Key    string `json:"key,omitempty"`
	// Worker is the backend executing (or last executing) the run.
	Worker string `json:"worker,omitempty"`
	// WarmStartBias is the bias of the run whose checkpoint seeded it.
	WarmStartBias *float64 `json:"warm_start_bias,omitempty"`
	// Reroutes counts worker deaths the run survived by re-placement.
	Reroutes int `json:"reroutes,omitempty"`
}

// Status renders the snapshot as job id's status document, lifecycle
// fields only.
func (s Snapshot) Status(id string) Status {
	return Status{
		ID:         id,
		State:      s.State,
		Queued:     s.Queued,
		Started:    s.Started,
		Finished:   s.Finished,
		Iterations: s.Iters,
		Error:      s.Err,
	}
}

// Begin initialises the record as Queued and stamps the submission time.
func (r *Record[T]) Begin() {
	r.cond.L = &r.Mutex
	r.snap = Snapshot{State: Queued, Queued: time.Now()}
}

// Start moves a queued job to Running under cancel. It returns false when
// the job is no longer queued (cancelled before a runner reached it).
func (r *Record[T]) Start(cancel context.CancelFunc) bool {
	r.Lock()
	defer r.Unlock()
	if r.snap.State != Queued {
		return false
	}
	now := time.Now()
	r.snap.State, r.snap.Started, r.cancel = Running, &now, cancel
	r.cond.Broadcast()
	return true
}

// Append adds one record to the log and wakes every waiter.
func (r *Record[T]) Append(rec T) {
	r.Lock()
	r.log = append(r.log, rec)
	r.cond.Broadcast()
	r.Unlock()
}

// Finish is the one terminal transition: it sets state and err, stamps the
// finish time, drops the CancelFunc and wakes every waiter. It returns false
// (and changes nothing) when the job is already terminal.
func (r *Record[T]) Finish(state State, err string) bool {
	r.Lock()
	defer r.Unlock()
	return r.finishLocked(state, err)
}

func (r *Record[T]) finishLocked(state State, err string) bool {
	if r.snap.State.Terminal() {
		return false
	}
	now := time.Now()
	r.snap.State, r.snap.Err, r.snap.Finished, r.cancel = state, err, &now, nil
	r.cond.Broadcast()
	return true
}

// Cancel asks the job to stop. A queued job finishes Cancelled with reason
// at once and Cancel returns true; a running job has its context cancelled
// and reaches its terminal state through whoever runs it; a finished job is
// left alone.
func (r *Record[T]) Cancel(reason string) bool {
	r.Lock()
	queued, cancel := r.snap.State == Queued, r.cancel
	if queued {
		r.finishLocked(Cancelled, reason)
	}
	r.Unlock()
	if cancel != nil {
		cancel()
	}
	return queued
}

// WaitIter blocks until log record i exists, the job is terminal, or ctx
// is cancelled. It returns the record and true when available; false means
// no more records will come. Every consumer replays from any index, with no
// per-subscriber buffer and no dropped records.
func (r *Record[T]) WaitIter(ctx context.Context, i int) (T, bool) {
	// A cond has no context integration, and a watcher goroutine per wait
	// would leak on abandoned streams: poke the cond when ctx dies.
	defer context.AfterFunc(ctx, func() {
		r.Lock()
		r.cond.Broadcast()
		r.Unlock()
	})()
	r.Lock()
	defer r.Unlock()
	for {
		if i < len(r.log) {
			return r.log[i], true
		}
		if ctx.Err() != nil || r.snap.State.Terminal() {
			var zero T
			return zero, false
		}
		r.cond.Wait()
	}
}

// Wait blocks until the job is terminal or ctx fires, returning the state
// it saw (and ctx's error in the second case).
func (r *Record[T]) Wait(ctx context.Context) (State, error) {
	r.WaitIter(ctx, math.MaxInt) // no record has that index: returns at the end
	s := r.Snapshot().State
	if s.Terminal() {
		return s, nil
	}
	return s, ctx.Err()
}

// Snapshot returns the record's lifecycle fields under one lock.
func (r *Record[T]) Snapshot() Snapshot {
	r.Lock()
	defer r.Unlock()
	s := r.snap
	s.Iters = len(r.log)
	return s
}

// Store holds one tier's jobs: it mints ids from a prefix, lists them in
// submission order, keeps the newest Retain finished ones in a ring (the
// eviction hook runs for each one it drops), and owns the base context and
// goroutines that Close cancels and drains. It is safe for concurrent use.
type Store[J any] struct {
	prefix  string
	retain  int
	onEvict func(J)

	ctx  context.Context
	stop context.CancelFunc
	wg   sync.WaitGroup

	mu     sync.Mutex
	items  map[string]J
	order  []string // submission order, for listing
	done   []string // retired ids in completion order, for eviction
	next   int
	closed bool
}

// NewStore builds a store minting ids prefix1, prefix2, … and retaining
// retain finished jobs; onEvict (may be nil) runs for each evicted job,
// under the store's lock (see Retire).
func NewStore[J any](prefix string, retain int, onEvict func(J)) *Store[J] {
	s := &Store[J]{prefix: prefix, retain: retain, onEvict: onEvict, items: map[string]J{}}
	s.ctx, s.stop = context.WithCancel(context.Background())
	return s
}

// Context is the parent of every job context; Close cancels it.
func (s *Store[J]) Context() context.Context { return s.ctx }

// Add mints the next id, stores the job build returns for it and returns
// that job. It returns false, without calling build, once Close has begun.
func (s *Store[J]) Add(build func(id string) J) (J, bool) {
	s.mu.Lock()
	closed := s.closed
	s.next++
	id := s.prefix + strconv.Itoa(s.next)
	s.mu.Unlock()
	if closed {
		var zero J
		return zero, false
	}
	j := build(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.items[id] = j
	s.order = append(s.order, id)
	return j, true
}

// Get returns the job with the given id, if it is still stored.
func (s *Store[J]) Get(id string) (J, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.items[id]
	return j, ok
}

// List returns the stored jobs in submission order.
func (s *Store[J]) List() []J {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]J, len(s.order))
	for i, id := range s.order {
		out[i] = s.items[id]
	}
	return out
}

// Retire enters a finished job into the retention ring and evicts the
// oldest retired jobs past Retain. The eviction hook runs for each under
// the store's lock, before the job leaves Get and List, so no caller sees
// a job gone whose hook has not finished (serve's per-job metrics are
// unregistered by then). The hook must not call back into the store.
func (s *Store[J]) Retire(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.done = append(s.done, id)
	for len(s.done) > s.retain {
		victim := s.done[0]
		s.done = s.done[1:]
		j, ok := s.items[victim]
		if !ok {
			continue
		}
		if s.onEvict != nil {
			s.onEvict(j)
		}
		delete(s.items, victim)
		for i, oid := range s.order {
			if oid == victim {
				s.order = append(s.order[:i:i], s.order[i+1:]...)
				break
			}
		}
	}
}

// Go runs f on a goroutine that Close waits for. After Close has begun f
// still runs — the store's context is cancelled by then or moments later,
// so it stops at once — but Close does not wait for it.
func (s *Store[J]) Go(f func()) {
	s.mu.Lock()
	tracked := !s.closed
	if tracked {
		s.wg.Add(1)
	}
	s.mu.Unlock()
	go func() {
		if tracked {
			defer s.wg.Done()
		}
		f()
	}()
}

// Close shuts the store down: Add fails from now on, the base context is
// cancelled, drain (may be nil) runs, and Close blocks until every Go
// goroutine has returned or ctx expires. A second Close is a no-op.
func (s *Store[J]) Close(ctx context.Context, drain func()) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.stop()
	if drain != nil {
		drain()
	}
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("jobs: shutdown timed out: %w", ctx.Err())
	}
}
