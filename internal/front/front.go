// Package front is the horizontally sharded service tier in front of a
// fleet of qtsimd workers: a scheduler/router that makes fleet capacity
// multiplicative rather than additive. The paper's thesis — data movement,
// not FLOPs, bounds quantum-transport throughput — applied at the service
// level says the cheapest job is the one never recomputed, so the front
// tier's job is to move results, not re-derive them:
//
//   - Content-addressed result cache. Every submission is keyed by the
//     canonical RunConfig plus the device fingerprint (see Key); a
//     completed run's iteration log, result and gob checkpoint are served
//     straight from cache on the next identical submission.
//   - Singleflight dedup. Identical submissions from different tenants
//     while a run is in flight attach to the same execution and stream the
//     same iteration log — one worker run, N byte-identical streams.
//   - Warm starts. A near-miss — same device and solver settings, adjacent
//     bias point — is submitted to its worker with the nearest cached Σ≷/Π≷
//     checkpoint, so the Born loop starts near the fixed point instead of
//     at zero (the Σ-reuse direction of the atomistic-NEGF acceleration
//     literature). A campaign point names its donor instead (SubmitFrom).
//   - Admission control. Per-tenant token buckets reject over-rate
//     submitters with 429 + Retry-After before any placement work happens.
//   - Health-checked placement. Jobs go to the least-loaded alive worker;
//     a dead worker's runs are re-routed and their replayed iterations
//     suppressed — the HTTP-tier mapping of the cluster's ErrRankDead
//     recovery semantics.
//
// The worker protocol is the plain qtsimd HTTP/JSON job API (internal/
// serve): the front is itself a client of the same endpoints it offers,
// so any qtsimd — local, remote, behind a load balancer — can join the
// fleet unmodified.
package front

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"negfsim/internal/core"
	"negfsim/internal/jobs"
	"negfsim/internal/obs"
	"negfsim/internal/serve"
)

// Front-tier telemetry (see docs/OBSERVABILITY.md, front.* families).
// front.worker_evictions lives in workers.go next to its producer.
var (
	obsSubmitted   = obs.GetCounter("front.jobs_submitted")
	obsCacheHits   = obs.GetCounter("front.cache_hits")
	obsDedupJoins  = obs.GetCounter("front.dedup_joins")
	obsQuotaRej    = obs.GetCounter("front.quota_rejections")
	obsRunsStarted = obs.GetCounter("front.runs_started")
	obsWarmStarts  = obs.GetCounter("front.warm_starts")
	obsReroutes    = obs.GetCounter("front.reroutes")

	obsCacheEvictions = obs.GetCounter("front.cache_evictions")

	obsPlacementSpan = obs.GetTimer("front.placement")
	obsCacheSpan     = obs.GetTimer("front.cache")
	obsRunSpan       = obs.GetTimer("front.run")
)

// Config sizes a Front.
type Config struct {
	// Workers are the base URLs of the qtsimd backends (http://host:port).
	Workers []string
	// HealthInterval is the period of the worker health sweep (default 1s).
	HealthInterval time.Duration
	// HealthTimeout bounds one health probe (default 500ms).
	HealthTimeout time.Duration
	// QuotaRate is the per-tenant admission rate in submissions per second;
	// 0 or negative disables quotas.
	QuotaRate float64
	// QuotaBurst is the per-tenant bucket capacity (default 8).
	QuotaBurst int
	// CacheMax bounds the completed-run cache entries (default 256).
	CacheMax int
	// Retain is how many finished front jobs stay queryable before the
	// oldest is evicted (default 1024). The underlying cached runs are
	// governed by CacheMax, not Retain.
	Retain int
}

// maxAttempts bounds the placements tried per run before it fails; each
// worker death consumes one. Worker calls go through http.DefaultClient,
// bounded per request by contexts, never by a global timeout.
const maxAttempts = 3

// withDefaults fills the zero fields of a Config.
func (c Config) withDefaults() Config {
	if c.HealthInterval <= 0 {
		c.HealthInterval = time.Second
	}
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = 500 * time.Millisecond
	}
	if c.QuotaBurst <= 0 {
		c.QuotaBurst = 8
	}
	if c.CacheMax <= 0 {
		c.CacheMax = 256
	}
	if c.Retain <= 0 {
		c.Retain = 1024
	}
	return c
}

// The three ways a submission resolves, its status's Source.
const (
	// SourceRun: this submission started the worker run.
	SourceRun = "run"
	// SourceJoined: attached to an identical in-flight run (singleflight).
	SourceJoined = "joined"
	// SourceCache: served entirely from the content-addressed cache.
	SourceCache = "cache"
)

// job is one accepted submission: a thin handle onto a shared run.
type job struct {
	id       string
	tenant   string
	source   string
	r        *run
	detached bool // cancelled by its tenant; behind Front.mu
}

// Front is the scheduler/router tier. Create one with New; it is safe for
// concurrent use. Close stops the health loop and cancels in-flight runs.
type Front struct {
	cfg      Config
	registry *registry
	quotas   *quotas
	cache    *cache
	store    *jobs.Store[*job]

	mu       sync.Mutex
	inflight map[string]*run // Key.ID → in-flight run (singleflight table)
}

// New builds a Front over the configured worker fleet and starts its health
// loop.
func New(cfg Config) *Front {
	cfg = cfg.withDefaults()
	f := &Front{
		cfg:      cfg,
		registry: newRegistry(cfg.Workers),
		quotas:   newQuotas(cfg.QuotaRate, cfg.QuotaBurst),
		cache:    newCache(cfg.CacheMax),
		store:    jobs.NewStore[*job]("f", cfg.Retain, nil),
		inflight: make(map[string]*run),
	}
	obs.RegisterGaugeFunc("front.workers_alive", f.registry.aliveCount)
	obs.RegisterGaugeFunc("front.runs_inflight", func() int64 {
		f.mu.Lock()
		defer f.mu.Unlock()
		return int64(len(f.inflight))
	})
	obs.RegisterGaugeFunc("front.cache_entries", f.cache.len)
	f.store.Go(func() {
		f.registry.healthLoop(f.store.Context(), f.cfg.HealthInterval, f.cfg.HealthTimeout)
	})
	return f
}

// Close stops the health loop, cancels every in-flight run and waits for the
// relay goroutines to drain or ctx to expire.
func (f *Front) Close(ctx context.Context) error { return f.store.Close(ctx, nil) }

// ErrQuota is returned by Submit when the tenant's token bucket is dry; the
// HTTP layer maps it to 429 with Retry-After.
var ErrQuota = errors.New("front: tenant over submission quota")

// ErrClosed is returned by Submit after Close has begun.
var ErrClosed = errors.New("front: shut down")

// QuotaError carries the wait until the tenant's next token.
type QuotaError struct {
	// Tenant is the rejected tenant; RetryAfter is the wait until its
	// bucket holds a token again.
	Tenant     string
	RetryAfter time.Duration
}

// Error implements error.
func (e *QuotaError) Error() string {
	return fmt.Sprintf("front: tenant %q over submission quota, retry in %s", e.Tenant, e.RetryAfter)
}

// Unwrap makes errors.Is(err, ErrQuota) work.
func (e *QuotaError) Unwrap() error { return ErrQuota }

// Submit admits one submission from tenant: quota check, content-address
// lookup, then — in order — attach to an identical in-flight run, serve from
// cache, or place a new run on the fleet, seeded from the nearest-bias
// cached member of its family. cfg must be a validated document (see
// KeyOf). The returned job id is tenant-private even when the computation
// is shared.
func (f *Front) Submit(tenant string, cfg core.RunConfig) (*jobs.Status, error) {
	return f.submit(tenant, cfg, f.cache.nearest)
}

// SubmitFrom is Submit with the seed named by the caller instead of the
// family cache's pick: a new run is seeded from the finished run behind
// front job from, by reference — its checkpoint bytes go to the worker as
// they were fetched. It runs cold when from is "", no longer retained, not
// succeeded or of another family. A submission that joins an in-flight run
// or hits the cache takes that run as it is.
func (f *Front) SubmitFrom(tenant string, cfg core.RunConfig, from string) (*jobs.Status, error) {
	return f.submit(tenant, cfg, func(key Key) *run {
		j, ok := f.store.Get(from)
		if !ok || j.r.key.Family != key.Family ||
			j.r.Snapshot().State != jobs.Succeeded || len(j.r.checkpoint) == 0 {
			return nil
		}
		return j.r
	})
}

// submit is Submit and SubmitFrom; seed picks the donor of a new run (nil
// for a cold run).
func (f *Front) submit(tenant string, cfg core.RunConfig, seed func(Key) *run) (*jobs.Status, error) {
	if tenant == "" {
		tenant = "anonymous"
	}
	if ok, retry := f.quotas.take(tenant, time.Now()); !ok {
		obsQuotaRej.Inc()
		return nil, &QuotaError{Tenant: tenant, RetryAfter: retry}
	}
	key, err := KeyOf(cfg)
	if err != nil {
		return nil, err
	}

	sp := obsCacheSpan.Start()
	f.mu.Lock()
	var r *run
	var ctx context.Context
	source := SourceRun
	if inflight, ok := f.inflight[key.ID]; ok {
		r, source = inflight, SourceJoined
	} else if cached, ok := f.cache.get(key.ID); ok {
		r, source = cached, SourceCache
	} else {
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(f.store.Context())
		r = newRun(key)
		r.Start(cancel)
	}
	j, ok := f.store.Add(func(id string) *job {
		return &job{id: id, tenant: tenant, source: source, r: r}
	})
	if !ok {
		f.mu.Unlock()
		sp.End()
		return nil, ErrClosed
	}
	r.attached++
	switch source {
	case SourceRun:
		f.inflight[key.ID] = r
		obsRunsStarted.Inc()
	case SourceJoined:
		obsDedupJoins.Inc()
	case SourceCache:
		obsCacheHits.Inc()
	}
	if source == SourceCache {
		f.store.Retire(j.id) // already finished
	} else {
		r.handles = append(r.handles, j.id)
	}
	f.mu.Unlock()
	sp.End()

	obsSubmitted.Inc()
	if source == SourceRun {
		warm := seed(key)
		f.store.Go(func() { f.execute(ctx, r, cfg, warm) })
	}
	return f.status(j), nil
}

// Get returns the job's status, if the handle is still retained.
func (f *Front) Get(id string) (*jobs.Status, bool) {
	j, ok := f.store.Get(id)
	if !ok {
		return nil, false
	}
	return f.status(j), true
}

// Cancel detaches the job from its run; the underlying worker job is
// cancelled only when the last attached submission lets go — cancelling one
// tenant's handle never tears down a computation other tenants still watch.
// A handle detaches once: repeating the request changes nothing.
func (f *Front) Cancel(id string) (*jobs.Status, error) {
	j, ok := f.store.Get(id)
	if !ok {
		return nil, fmt.Errorf("front: no such job %q", id)
	}
	f.mu.Lock()
	last := false
	if !j.detached {
		j.detached = true
		j.r.attached--
		last = j.r.attached == 0
	}
	f.mu.Unlock()
	if last {
		j.r.Cancel("")
	}
	return f.status(j), nil
}

// status renders a job handle's status document: the lifecycle fields of
// the shared run behind it, and the front's own.
func (f *Front) status(j *job) *jobs.Status {
	s := j.r.Snapshot()
	st := s.Status(j.id)
	st.Tenant, st.Source, st.Key = j.tenant, j.source, j.r.key.ID
	if s.State == jobs.Succeeded {
		st.Converged = j.r.result.Converged
	}
	j.r.Lock()
	st.Worker, st.WarmStartBias, st.Reroutes = j.r.worker, j.r.warmBias, j.r.reroutes
	j.r.Unlock()
	st.WarmStart = st.WarmStartBias != nil
	return &st
}

// Workers returns the registry snapshot.
func (f *Front) Workers() []WorkerStatus { return f.registry.statuses() }

// WaitIter exposes the job's shared iteration log to in-process clients
// (the campaign runner): it blocks until record i exists, the run is
// terminal, or ctx fires — the same replay-from-any-index contract the
// streaming endpoint offers over HTTP.
func (f *Front) WaitIter(ctx context.Context, id string, i int) (serve.IterRecord, bool) {
	j, ok := f.store.Get(id)
	if !ok {
		return serve.IterRecord{}, false
	}
	return j.r.WaitIter(ctx, i)
}

// Result returns a succeeded job's result document (its ID rewritten to
// the front job id, as the HTTP endpoint does) and the gob checkpoint
// bytes of the finished run.
func (f *Front) Result(id string) (*serve.ResultDoc, []byte, error) {
	j, ok := f.store.Get(id)
	if !ok {
		return nil, nil, fmt.Errorf("front: no such job %q", id)
	}
	s := j.r.Snapshot()
	if s.State != jobs.Succeeded {
		if s.Err == "" {
			s.Err = string(s.State)
		}
		return nil, nil, fmt.Errorf("front: job %s has no result: %s", j.id, s.Err)
	}
	out := *j.r.result
	out.ID = j.id
	return &out, j.r.checkpoint, nil
}

// permanentError marks a failure that re-placement cannot fix (the solver
// rejected or failed the job); transient errors — connection loss, worker
// overload — trigger eviction and re-routing instead.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// execute drives one run to a terminal state: place, relay, re-place on
// worker death, then publish the artifacts into the cache.
func (f *Front) execute(ctx context.Context, r *run, cfg core.RunConfig, warm *run) {
	sp := obsRunSpan.Start()
	defer sp.End()
	if warm != nil {
		bias := warm.key.Bias
		r.Lock()
		r.warmBias = &bias
		r.Unlock()
		obsWarmStarts.Inc()
	}
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if ctx.Err() != nil {
			f.settle(r, jobs.Cancelled, "cancelled")
			return
		}
		psp := obsPlacementSpan.Start()
		w := f.registry.pick()
		psp.End()
		if w == nil {
			lastErr = errors.New("no healthy workers")
			break
		}
		r.Lock()
		r.worker = w.url
		if attempt > 0 {
			r.reroutes++
		}
		r.Unlock()
		if attempt > 0 {
			obsReroutes.Inc()
		}
		err := f.runOn(ctx, r, w.url, cfg, warm)
		f.registry.release(w)
		if err == nil {
			f.settle(r, jobs.Succeeded, "")
			return
		}
		if ctx.Err() != nil {
			f.settle(r, jobs.Cancelled, "cancelled: "+err.Error())
			return
		}
		var perm *permanentError
		if errors.As(err, &perm) {
			f.settle(r, jobs.Failed, perm.err.Error())
			return
		}
		lastErr = err
		if f.registry.evict(w) {
			obsWorkerEvictions.Inc()
		}
	}
	msg := "front: run failed"
	if lastErr != nil {
		msg = fmt.Sprintf("front: run failed after %d placement attempts: %v", maxAttempts, lastErr)
	}
	f.settle(r, jobs.Failed, msg)
}

// settle finishes a run, removes it from the singleflight table, retires
// its handles into the store's ring and, on success, publishes it to the
// content-addressed cache.
func (f *Front) settle(r *run, state jobs.State, errmsg string) {
	r.Finish(state, errmsg)
	f.mu.Lock()
	delete(f.inflight, r.key.ID)
	handles := r.handles
	r.handles = nil
	f.mu.Unlock()
	for _, id := range handles {
		f.store.Retire(id)
	}
	f.cache.put(r)
}

// runOn executes one placement attempt against a worker: submit (optionally
// with the warm-start checkpoint envelope), relay the NDJSON iteration
// stream into the shared log, then collect the result and checkpoint.
// Transport-level failures return transient errors (caller re-routes);
// worker-reported job failures return permanent ones.
func (f *Front) runOn(ctx context.Context, r *run, workerURL string, cfg core.RunConfig, warm *run) error {
	var body []byte
	var err error
	if warm != nil {
		cfgRaw, merr := json.Marshal(cfg)
		if merr != nil {
			return &permanentError{fmt.Errorf("encoding config: %w", merr)}
		}
		body, err = json.Marshal(struct {
			Config     json.RawMessage `json:"config"`
			Checkpoint []byte          `json:"checkpoint"`
		}{Config: cfgRaw, Checkpoint: warm.checkpoint})
	} else {
		body, err = json.Marshal(cfg)
	}
	if err != nil {
		return &permanentError{fmt.Errorf("encoding submission: %w", err)}
	}
	var st jobs.Status
	if code, err := f.doJSON(ctx, http.MethodPost, workerURL+"/v1/jobs", body, &st); err != nil {
		return err
	} else if code != http.StatusAccepted {
		// 400s are permanent (the config is bad everywhere); 429/503 mean
		// this worker is saturated or draining — try another.
		if code == http.StatusBadRequest {
			return &permanentError{fmt.Errorf("worker rejected job: HTTP %d", code)}
		}
		return fmt.Errorf("worker %s refused job: HTTP %d", workerURL, code)
	}
	jobURL := workerURL + "/v1/jobs/" + st.ID

	if err := f.relayStream(ctx, r, jobURL); err != nil {
		f.cancelWorkerJob(jobURL)
		return err
	}

	var final jobs.Status
	if code, err := f.doJSON(ctx, http.MethodGet, jobURL, nil, &final); err != nil {
		return err
	} else if code != http.StatusOK {
		return fmt.Errorf("worker %s lost job %s: HTTP %d", workerURL, st.ID, code)
	}
	switch final.State {
	case jobs.Succeeded:
	case jobs.Failed:
		return &permanentError{fmt.Errorf("worker run failed: %s", final.Error)}
	default:
		return fmt.Errorf("worker job %s ended in state %q: %s", st.ID, final.State, final.Error)
	}

	var doc serve.ResultDoc
	if code, err := f.doJSON(ctx, http.MethodGet, jobURL+"/result", nil, &doc); err != nil {
		return err
	} else if code != http.StatusOK {
		return fmt.Errorf("fetching result: HTTP %d", code)
	}
	ck, err := f.doBytes(ctx, jobURL+"/checkpoint")
	if err != nil {
		return err
	}
	r.result, r.checkpoint = &doc, ck
	return nil
}

// relayStream follows the worker's NDJSON iteration stream from the first
// unseen Born iteration, appending each record to the shared log (replayed
// iterations after a re-placement are suppressed by appendIter).
func (f *Front) relayStream(ctx context.Context, r *run, jobURL string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, jobURL+"/stream?from=0", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("opening stream: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("opening stream: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var rec serve.IterRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return fmt.Errorf("decoding stream record: %w", err)
		}
		r.appendIter(rec)
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("stream broken: %w", err)
	}
	return nil
}

// cancelWorkerJob best-effort cancels an abandoned worker job so a worker
// doesn't burn its budget on a run nobody will read. It runs under its own
// short deadline because the caller's context is usually already dead.
func (f *Front) cancelWorkerJob(jobURL string) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, jobURL+"/cancel", nil)
	if err != nil {
		return
	}
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
}

// doJSON performs one bounded JSON request/response exchange.
func (f *Front) doJSON(ctx context.Context, method, url string, body []byte, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return 0, err
	}
	if resp.StatusCode < 300 && out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, fmt.Errorf("decoding %s response: %w", url, err)
		}
	}
	return resp.StatusCode, nil
}

// doBytes fetches a binary artifact (the gob checkpoint).
func (f *Front) doBytes(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fetching %s: HTTP %d", url, resp.StatusCode)
	}
	return io.ReadAll(io.LimitReader(resp.Body, 256<<20))
}
