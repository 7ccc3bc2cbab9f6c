package campaign

import (
	"context"
	"fmt"
	"sync"
	"time"

	"negfsim/internal/jobs"
)

// PointState is one ladder point's lifecycle phase.
type PointState string

// The point lifecycle mirrors the campaign's, per rung.
const (
	PointPending   PointState = "pending"
	PointRunning   PointState = "running"
	PointDone      PointState = "done"
	PointFailed    PointState = "failed"
	PointCancelled PointState = "cancelled"
)

// Point is the public per-rung progress record.
type Point struct {
	// Bias is the rung's source-drain bias [eV].
	Bias float64 `json:"bias"`
	// State is the rung's lifecycle phase.
	State PointState `json:"state"`
	// JobID names the underlying tier's job, when one exists.
	JobID string `json:"job_id,omitempty"`
	// Iterations counts Born iterations observed so far (live updates
	// while running, the final count once done).
	Iterations int `json:"iterations"`
	// Converged and WarmStarted describe the finished run.
	Converged   bool `json:"converged"`
	WarmStarted bool `json:"warm_started"`
	// CurrentL/R are the terminal contact currents of a done point.
	CurrentL float64 `json:"current_l"`
	CurrentR float64 `json:"current_r"`
	// Error carries the failure message (failed points only).
	Error string `json:"error,omitempty"`
}

// Campaign is one accepted sweep: its lifecycle record plus the per-rung
// progress, which lives behind the record's mutex.
type Campaign struct {
	jobs.Record[struct{}]

	id  string
	req Request

	points   []Point
	outcomes []*PointOutcome // parallel to points, nil until done
	failMsg  string          // the first point failure, "" while none
}

// ID returns the campaign's identifier.
func (c *Campaign) ID() string { return c.id }

// StatusDoc is the point-in-time public snapshot of a campaign — the
// JSON body of the status endpoint.
type StatusDoc struct {
	// ID identifies the campaign; Kind and State classify it. State is
	// running until every point is terminal, then succeeded (every point
	// converged), failed (a point failed; no point starts after it) or
	// cancelled (cancel or shutdown).
	ID    string     `json:"id"`
	Kind  Kind       `json:"kind"`
	State jobs.State `json:"state"`
	// WarmStart reports the chaining mode the campaign runs under.
	WarmStart bool `json:"warm_start"`
	// Points is the per-rung progress, in ladder order.
	Points []Point `json:"points"`
	// Created/Finished are lifecycle timestamps.
	Created  time.Time  `json:"created"`
	Finished *time.Time `json:"finished,omitempty"`
	// Error carries the campaign-level failure message (terminal only).
	Error string `json:"error,omitempty"`
}

// Status returns the campaign's current snapshot.
func (c *Campaign) Status() StatusDoc {
	s := c.Snapshot()
	c.Lock()
	defer c.Unlock()
	return StatusDoc{
		ID:        c.id,
		Kind:      c.req.Kind,
		State:     s.State,
		WarmStart: c.req.Warm(),
		Points:    append([]Point(nil), c.points...),
		Created:   s.Queued,
		Finished:  s.Finished,
		Error:     s.Err,
	}
}

// setPoint mutates one rung under the lock.
func (c *Campaign) setPoint(i int, f func(p *Point)) {
	c.Lock()
	f(&c.points[i])
	c.Unlock()
}

// pointDone records a finished rung's outcome.
func (c *Campaign) pointDone(i int, out *PointOutcome) {
	c.Lock()
	c.outcomes[i] = out
	p := &c.points[i]
	p.State = PointDone
	p.JobID = out.JobID
	p.Iterations = out.Iterations
	p.Converged = out.Converged
	p.WarmStarted = out.WarmStarted
	p.CurrentL = out.Obs.CurrentL
	p.CurrentR = out.Obs.CurrentR
	c.Unlock()
}

// failed reports whether a point has failed, which stops new points.
func (c *Campaign) failed() bool {
	c.Lock()
	defer c.Unlock()
	return c.failMsg != ""
}

// finish settles the campaign into the terminal state its points imply:
// the first point failure wins, then any cancellation, else success.
// Points that never started are cancelled. The points' warm-start
// checkpoints are dropped: the artifacts never read them.
func (c *Campaign) finish() {
	c.Lock()
	state, msg := jobs.Succeeded, ""
	for i := range c.points {
		if p := &c.points[i]; p.State == PointPending || p.State == PointCancelled {
			p.State, state, msg = PointCancelled, jobs.Cancelled, "cancelled"
		}
	}
	if c.failMsg != "" {
		state, msg = jobs.Failed, c.failMsg
	}
	for _, out := range c.outcomes {
		if out != nil {
			out.Checkpoint = nil
		}
	}
	c.Unlock()
	c.Finish(state, msg)
}

// retain is how many finished campaigns stay queryable before the oldest
// is evicted — the same bound as qtsimd's default job retention.
const retain = 64

// Manager owns the campaign store and drives each accepted request to a
// terminal state on the configured backend. Create one with NewManager;
// it is safe for concurrent use.
type Manager struct {
	backend     Backend
	maxParallel int
	store       *jobs.Store[*Campaign]
}

// NewManager builds a manager over backend. maxParallel bounds the points
// a campaign runs at once, warm or cold: a campaign runs min(maxParallel,
// n) chains over its n points. ≤ 0 means 4.
func NewManager(backend Backend, maxParallel int) *Manager {
	if maxParallel <= 0 {
		maxParallel = 4
	}
	return &Manager{
		backend:     backend,
		maxParallel: maxParallel,
		store:       jobs.NewStore[*Campaign]("c", retain, nil),
	}
}

// ErrClosed is returned by Start after Close has begun.
var ErrClosed = fmt.Errorf("campaign: manager is shut down")

// Start validates and launches a campaign. The returned campaign is
// already running; poll Status or block on Wait.
func (m *Manager) Start(req Request) (*Campaign, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	ladder := req.Ladder()
	ctx, cancel := context.WithCancel(m.store.Context())
	c, ok := m.store.Add(func(id string) *Campaign {
		c := &Campaign{
			id:       id,
			req:      req,
			points:   make([]Point, len(ladder)),
			outcomes: make([]*PointOutcome, len(ladder)),
		}
		for i, b := range ladder {
			c.points[i] = Point{Bias: b, State: PointPending}
		}
		c.Begin()
		c.Start(cancel)
		return c
	})
	if !ok {
		cancel()
		return nil, ErrClosed
	}
	m.store.Go(func() {
		defer cancel()
		m.run(ctx, c)
		c.finish()
		m.store.Retire(c.id)
	})
	return c, nil
}

// Get returns the campaign with the given id, if it is still retained.
func (m *Manager) Get(id string) (*Campaign, bool) { return m.store.Get(id) }

// Cancel stops a running campaign: the running points' context is
// cancelled and pending points never start. Cancelling a finished
// campaign is a no-op.
func (m *Manager) Cancel(id string) (*Campaign, error) {
	c, ok := m.Get(id)
	if !ok {
		return nil, fmt.Errorf("campaign: no such campaign %q", id)
	}
	c.Cancel("")
	return c, nil
}

// Close shuts the manager down: no new campaigns, running ones are
// cancelled, and Close blocks until they drain or ctx expires.
func (m *Manager) Close(ctx context.Context) error { return m.store.Close(ctx, nil) }

// run drives the ladder as k = min(maxParallel, n) contiguous chains, one
// goroutine each: chain s covers points [⌊s·n/k⌋, ⌊(s+1)·n/k⌋), so the
// heads, which start cold, are spread across the bias range. Under warm
// start every later point of a chain is handed its finished predecessor's
// outcome as its seed (k = 1 is the fully sequential chain); a cold
// campaign seeds nothing. This is the one seed rule of every host. After a
// cancel or any point's failure no new point starts; points already
// running finish, and finish cancels the rest.
func (m *Manager) run(ctx context.Context, c *Campaign) {
	n := len(c.points)
	k := min(m.maxParallel, n)
	var wg sync.WaitGroup
	for s := range k {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			var prev *PointOutcome
			for i := lo; i < hi && ctx.Err() == nil && !c.failed(); i++ {
				out := m.runOne(ctx, c, i, prev)
				if out == nil {
					return
				}
				if c.req.Warm() {
					prev = out
				}
			}
		}(s*n/k, (s+1)*n/k)
	}
	wg.Wait()
}

// runOne drives ladder point i through the backend, seeded from prev, and
// returns its outcome; nil means the point failed or was cancelled.
func (m *Manager) runOne(ctx context.Context, c *Campaign, i int, prev *PointOutcome) *PointOutcome {
	c.setPoint(i, func(p *Point) { p.State = PointRunning })
	cfg := c.req.pointConfig(c.points[i].Bias)
	out, err := m.backend.RunPoint(ctx, cfg, prev, func(n int) {
		c.setPoint(i, func(p *Point) { p.Iterations = n })
	})
	switch {
	case err == nil:
		c.pointDone(i, out)
		return out
	case ctx.Err() != nil:
		c.setPoint(i, func(p *Point) { p.State = PointCancelled })
	default:
		c.setPoint(i, func(p *Point) {
			p.State, p.Error = PointFailed, err.Error()
			if c.failMsg == "" {
				c.failMsg = fmt.Sprintf("point %d (bias %g): %s", i, p.Bias, p.Error)
			}
		})
	}
	return nil
}
