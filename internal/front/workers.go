package front

import (
	"context"
	"net/http"
	"sync"
	"time"

	"negfsim/internal/obs"
)

// WorkerStatus is the public snapshot of one registered worker.
type WorkerStatus struct {
	// URL is the worker's base URL (scheme://host:port).
	URL string `json:"url"`
	// Alive reports whether the worker passed its last health probe (or has
	// not failed one yet).
	Alive bool `json:"alive"`
	// Active is the number of front-placed runs currently executing on it.
	Active int `json:"active"`
	// Evictions counts how many times the worker was declared dead and its
	// runs re-routed.
	Evictions int `json:"evictions"`
}

// worker is one registered qtsimd backend. The front is the sole dispatcher
// of its own runs, so Active is tracked locally instead of being probed.
type worker struct {
	url string

	mu        sync.Mutex
	alive     bool
	fails     int // consecutive health-probe failures
	active    int
	evictions int
}

func (w *worker) status() WorkerStatus {
	w.mu.Lock()
	defer w.mu.Unlock()
	return WorkerStatus{URL: w.url, Alive: w.alive, Active: w.active, Evictions: w.evictions}
}

// registry is the health-checked worker set behind placement decisions.
type registry struct {
	mu      sync.Mutex
	workers []*worker
}

func newRegistry(urls []string) *registry {
	r := &registry{}
	for _, u := range urls {
		r.workers = append(r.workers, &worker{url: u, alive: true})
	}
	return r
}

// pick returns the least-loaded alive worker (ties break on registration
// order, so placement is deterministic) and accounts the placement; nil when
// no worker is alive. release undoes the accounting when the run leaves the
// worker for any reason.
func (r *registry) pick() *worker {
	r.mu.Lock()
	defer r.mu.Unlock()
	var best *worker
	bestActive := 0
	for _, w := range r.workers {
		w.mu.Lock()
		alive, active := w.alive, w.active
		w.mu.Unlock()
		if !alive {
			continue
		}
		if best == nil || active < bestActive {
			best, bestActive = w, active
		}
	}
	if best != nil {
		best.mu.Lock()
		best.active++
		best.mu.Unlock()
	}
	return best
}

// release undoes pick's load accounting once a run leaves the worker.
func (r *registry) release(w *worker) {
	w.mu.Lock()
	w.active--
	w.mu.Unlock()
}

// aliveCount returns how many workers currently pass health checks.
func (r *registry) aliveCount() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var n int64
	for _, w := range r.workers {
		w.mu.Lock()
		if w.alive {
			n++
		}
		w.mu.Unlock()
	}
	return n
}

// statuses returns a snapshot of every worker in registration order.
func (r *registry) statuses() []WorkerStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]WorkerStatus, len(r.workers))
	for i, w := range r.workers {
		out[i] = w.status()
	}
	return out
}

// evict marks a worker dead after a connection-level failure (a broken
// stream, a refused dial, consecutive health-probe misses). It returns true
// when this call performed the transition — the caller then counts the
// eviction and re-routes the worker's runs. A later successful health probe
// revives the worker; the mapping is the HTTP analogue of the cluster's
// ErrRankDead: connection loss ≡ rank death, re-placement ≡ grid rebuild.
func (r *registry) evict(w *worker) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.alive {
		return false
	}
	w.alive = false
	w.fails = 0
	w.evictions++
	return true
}

// healthLoop probes every worker's /healthz at interval until ctx is done.
// failThreshold consecutive misses evict; one success revives. Probes use a
// short per-request timeout so one hung worker never delays the sweep of the
// others past interval + timeout.
func (r *registry) healthLoop(ctx context.Context, interval, timeout time.Duration) {
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		r.mu.Lock()
		ws := append([]*worker(nil), r.workers...)
		r.mu.Unlock()
		for _, w := range ws {
			ok := probe(ctx, w.url, timeout)
			w.mu.Lock()
			if ok {
				w.fails = 0
				w.alive = true
				w.mu.Unlock()
				continue
			}
			w.fails++
			dead := w.alive && w.fails >= healthFailThreshold
			w.mu.Unlock()
			if dead && r.evict(w) {
				obsWorkerEvictions.Inc()
			}
		}
	}
}

// healthFailThreshold is the consecutive health-probe misses after which a
// worker is declared dead and its runs re-routed.
const healthFailThreshold = 2

// probe performs one bounded /healthz request.
func probe(ctx context.Context, url string, timeout time.Duration) bool {
	pctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, url+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// obsWorkerEvictions counts worker death transitions (see
// docs/OBSERVABILITY.md, front.* families).
var obsWorkerEvictions = obs.GetCounter("front.worker_evictions")
