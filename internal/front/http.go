package front

import (
	"errors"
	"io"
	"net/http"
	"strconv"

	"negfsim/internal/core"
	"negfsim/internal/jobs"
	"negfsim/internal/obs"
)

// API is the front tier's HTTP surface. It mirrors the qtsimd job API
// (docs/API.md documents both side by side) with the front-specific
// additions: the X-Tenant admission header, 429 + Retry-After on quota
// rejection, Source/Key fields in statuses, and GET /v1/workers.
//
//	POST /v1/jobs                submit a RunConfig (X-Tenant header optional)
//	GET  /v1/jobs                list retained jobs
//	GET  /v1/jobs/{id}           job status
//	GET  /v1/jobs/{id}/stream    NDJSON iteration stream (?from=N replays)
//	POST /v1/jobs/{id}/cancel    detach; cancels the run when last to leave
//	GET  /v1/jobs/{id}/result    final result document
//	GET  /v1/jobs/{id}/checkpoint  gob checkpoint of the finished run
//	GET  /v1/workers             fleet snapshot
//	GET  /healthz                liveness + fleet summary
//	GET  /metrics                obs metrics text dump
type API struct {
	f *Front
}

// NewAPI wraps a Front in its HTTP surface.
func NewAPI(f *Front) *API { return &API{f: f} }

// Handler returns the routed HTTP handler.
func (a *API) Handler() http.Handler {
	mux := http.NewServeMux()
	surf := jobs.Surface[*job]{
		Store:  a.f.store,
		Noun:   "job",
		Status: func(j *job) any { return a.f.status(j) },
		Cancel: func(j *job) { _, _ = a.f.Cancel(j.id) },
		Log:    func(j *job) jobs.Streamer { return j.r },
	}
	surf.Register(mux, "/v1/jobs")
	mux.HandleFunc("POST /v1/jobs", a.submit)
	mux.HandleFunc("GET /v1/jobs/{id}/result", surf.Handle(a.result))
	mux.HandleFunc("GET /v1/jobs/{id}/checkpoint", surf.Handle(a.checkpoint))
	mux.HandleFunc("GET /v1/workers", a.workers)
	mux.HandleFunc("GET /healthz", a.healthz)
	mux.Handle("GET /metrics", obs.Handler())
	return mux
}

func (a *API) submit(w http.ResponseWriter, r *http.Request) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 4<<20))
	if err != nil {
		jobs.WriteError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	cfg, err := core.ParseRunConfig(raw)
	if err != nil {
		jobs.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	st, err := a.f.Submit(r.Header.Get("X-Tenant"), *cfg)
	if err != nil {
		var qe *QuotaError
		switch {
		case errors.As(err, &qe):
			secs := int(qe.RetryAfter.Seconds()) + 1
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			jobs.WriteError(w, http.StatusTooManyRequests, "%v", err)
		case errors.Is(err, ErrClosed):
			jobs.WriteError(w, http.StatusServiceUnavailable, "%v", err)
		default:
			jobs.WriteError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	jobs.WriteJSON(w, http.StatusAccepted, st)
}

// result serves the finished run's result document with the document ID
// rewritten to the front job id, so a client never sees worker-internal ids.
func (a *API) result(w http.ResponseWriter, r *http.Request, j *job) {
	if doc, _, err := a.f.Result(j.id); err != nil {
		jobs.WriteError(w, http.StatusConflict, "%v", err)
	} else {
		jobs.WriteJSON(w, http.StatusOK, doc)
	}
}

func (a *API) checkpoint(w http.ResponseWriter, r *http.Request, j *job) {
	_, ck, err := a.f.Result(j.id)
	if err != nil {
		jobs.WriteError(w, http.StatusConflict, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(ck)
}

func (a *API) workers(w http.ResponseWriter, r *http.Request) {
	jobs.WriteJSON(w, http.StatusOK, a.f.Workers())
}

func (a *API) healthz(w http.ResponseWriter, r *http.Request) {
	a.f.mu.Lock()
	inflight := len(a.f.inflight)
	a.f.mu.Unlock()
	jobs.WriteJSON(w, http.StatusOK, map[string]any{
		"ok":            true,
		"workers_alive": a.f.registry.aliveCount(),
		"runs_inflight": inflight,
		"cache_entries": a.f.cache.len(),
	})
}
