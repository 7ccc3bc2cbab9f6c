package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"negfsim/internal/core"
	"negfsim/internal/jobs"
	"negfsim/internal/obs"
)

// API is the HTTP/JSON face of a Scheduler. All endpoints are under /v1:
//
//	POST /v1/jobs               submit a core.RunConfig → 202 + Status;
//	                            a {"config": …, "checkpoint": base64-gob}
//	                            envelope warm-starts from saved Σ≷/Π≷
//	GET  /v1/jobs               list jobs in submission order
//	GET  /v1/jobs/{id}          one job's Status
//	POST /v1/jobs/{id}/cancel   request cancellation → Status after
//	GET  /v1/jobs/{id}/stream   NDJSON IterRecords, live until terminal
//	GET  /v1/jobs/{id}/result   converged observables of a succeeded job
//	GET  /v1/jobs/{id}/checkpoint  gob checkpoint of a succeeded job
//	GET  /healthz               liveness + queue snapshot
//	GET  /metrics               obs exposition (Prometheus text format)
//
// Admission failures map to the HTTP status codes clients expect from a
// bounded service: a full queue is 429 Too Many Requests, a draining
// scheduler is 503 Service Unavailable.
type API struct {
	s   *Scheduler
	mux *http.ServeMux
}

// NewAPI wraps a scheduler in its HTTP handler.
func NewAPI(s *Scheduler) *API {
	a := &API{s: s, mux: http.NewServeMux()}
	surf := jobs.Surface[*Job]{
		Store:  s.store,
		Noun:   "job",
		Status: func(j *Job) any { return j.Status() },
		Cancel: func(j *Job) { _, _ = s.Cancel(j.id) },
		Log:    func(j *Job) jobs.Streamer { return j },
	}
	surf.Register(a.mux, "/v1/jobs")
	a.mux.HandleFunc("POST /v1/jobs", a.submit)
	a.mux.HandleFunc("GET /v1/jobs/{id}/result", surf.Handle(a.result))
	a.mux.HandleFunc("GET /v1/jobs/{id}/checkpoint", surf.Handle(a.checkpoint))
	a.mux.HandleFunc("GET /healthz", a.healthz)
	a.mux.Handle("GET /metrics", obs.Handler())
	return a
}

// ServeHTTP implements http.Handler.
func (a *API) ServeHTTP(w http.ResponseWriter, r *http.Request) { a.mux.ServeHTTP(w, r) }

// submitEnvelope is the warm-start submission body: the run config plus a
// gob checkpoint (base64 in JSON) whose Σ≷/Π≷ seed the Born loop. A plain
// RunConfig body remains the cold-start form; the handler distinguishes the
// two by the presence of the "config" key.
type submitEnvelope struct {
	// Config is the run configuration (a core.RunConfig document).
	Config json.RawMessage `json:"config"`
	// Checkpoint is the gob-encoded core.Checkpoint seeding the run; it
	// must match Config's device exactly. Optional: an envelope without it
	// is an ordinary cold submission.
	Checkpoint []byte `json:"checkpoint,omitempty"`
}

// decodeSubmission decodes a submit body: a submitEnvelope, or else a plain
// RunConfig document. Both decodes are strict; an envelope followed by
// anything but whitespace is an error. The checkpoint, when the envelope
// carries one, is returned as LoadCheckpoint accepts it.
func decodeSubmission(raw []byte) (*core.RunConfig, *core.Checkpoint, error) {
	var env submitEnvelope
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&env); err != nil || env.Config == nil {
		cfg, err := core.ParseRunConfig(raw)
		return cfg, nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, nil, errors.New("serve: trailing content after the submission")
	}
	var ck *core.Checkpoint
	if len(env.Checkpoint) > 0 {
		var err error
		if ck, err = core.LoadCheckpoint(bytes.NewReader(env.Checkpoint)); err != nil {
			return nil, nil, err
		}
	}
	cfg, err := core.ParseRunConfig(env.Config)
	if err != nil {
		return nil, nil, err
	}
	return cfg, ck, nil
}

func (a *API) submit(w http.ResponseWriter, r *http.Request) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
	if err != nil {
		jobs.WriteError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	cfg, ck, err := decodeSubmission(raw)
	if err != nil {
		jobs.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	_, st, err := a.s.admit(*cfg, ck)
	switch {
	case errors.Is(err, ErrQueueFull):
		jobs.WriteError(w, http.StatusTooManyRequests, "%v", err)
	case errors.Is(err, ErrClosed):
		jobs.WriteError(w, http.StatusServiceUnavailable, "%v", err)
	case err != nil:
		jobs.WriteError(w, http.StatusBadRequest, "%v", err)
	default:
		jobs.WriteJSON(w, http.StatusAccepted, st)
	}
}

// ResultDoc is the JSON body of the result endpoint: the scalar run
// outcome plus the physical observables — the same quantities qtsim
// prints, so service and CLI runs can be diffed field by field.
type ResultDoc struct {
	// ID is the job; Iterations/Converged/Recoveries summarize the run.
	ID         string `json:"id"`
	Iterations int    `json:"iterations"`
	Converged  bool   `json:"converged"`
	Recoveries int    `json:"recoveries"`
	// Residuals is the per-iteration relative G change.
	Residuals []float64 `json:"residuals"`
	// Observables are the physical outputs (currents, heat, dissipation).
	Observables core.Observables `json:"observables"`
	// Bytes is the simulated exchange traffic of a distributed run.
	Bytes int64 `json:"bytes,omitempty"`
	// Adapt is the refinement summary of an adaptive-grid run (absent
	// for uniform runs).
	Adapt *core.AdaptReport `json:"adapt,omitempty"`
}

func (a *API) result(w http.ResponseWriter, r *http.Request, j *Job) {
	res, ok := j.Result()
	if !ok {
		jobs.WriteError(w, http.StatusConflict, "job %q has no result (state %q)", j.ID(), j.Status().State)
		return
	}
	// j.out is set: Result saw the job succeed.
	jobs.WriteJSON(w, http.StatusOK, ResultDoc{
		ID:          j.ID(),
		Iterations:  res.Iterations,
		Converged:   res.Converged,
		Recoveries:  res.Recoveries,
		Residuals:   res.Residuals,
		Observables: res.Obs,
		Bytes:       j.out.WireBytes,
		Adapt:       res.Adapt,
	})
}

// checkpoint serves the succeeded job's converged self-energies as a gob
// checkpoint — the same format qtsim's -checkpoint flag writes, so a
// service result can seed a local continuation (qtsim -checkpoint).
func (a *API) checkpoint(w http.ResponseWriter, r *http.Request, j *Job) {
	res, ok := j.Result()
	if !ok {
		jobs.WriteError(w, http.StatusConflict, "job %q has no result (state %q)", j.ID(), j.Status().State)
		return
	}
	ck := core.CheckpointOf(j.cfg.Device, res)
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := ck.Save(w); err != nil {
		// Headers are out; the broken body is the best signal left.
		return
	}
}

// healthDoc is the healthz body: liveness plus a queue snapshot.
type healthDoc struct {
	// OK is always true when the handler answers.
	OK bool `json:"ok"`
	// Queued and Running are the scheduler's current load.
	Queued  int `json:"queued"`
	Running int `json:"running"`
}

func (a *API) healthz(w http.ResponseWriter, r *http.Request) {
	a.s.mu.Lock()
	doc := healthDoc{OK: true, Queued: len(a.s.pending), Running: a.s.running}
	a.s.mu.Unlock()
	jobs.WriteJSON(w, http.StatusOK, doc)
}
