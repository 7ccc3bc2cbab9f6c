package campaign

import (
	"errors"
	"net/http"

	"negfsim/internal/jobs"
)

// API is the campaign HTTP surface, mounted next to the job API of
// whichever qtsimd role hosts it (the worker, or the -fleet front):
//
//	POST /v1/campaigns                     submit a Request → 202 + StatusDoc
//	GET  /v1/campaigns                     list campaigns
//	GET  /v1/campaigns/{id}                status with per-point progress
//	POST /v1/campaigns/{id}/cancel         stop the ladder
//	GET  /v1/campaigns/{id}/artifact.csv   CSV artifact (succeeded only)
//	GET  /v1/campaigns/{id}/artifact.json  JSON artifact (succeeded only)
type API struct {
	m *Manager
}

// NewAPI wraps a manager in its HTTP surface.
func NewAPI(m *Manager) *API { return &API{m: m} }

// Register mounts the campaign routes on mux, so a host daemon can
// compose them with its own job API under one server.
func (a *API) Register(mux *http.ServeMux) {
	surf := jobs.Surface[*Campaign]{
		Store:  a.m.store,
		Noun:   "campaign",
		Status: func(c *Campaign) any { return c.Status() },
		Cancel: func(c *Campaign) { c.Cancel("") },
	}
	surf.Register(mux, "/v1/campaigns")
	mux.HandleFunc("POST /v1/campaigns", a.submit)
	mux.HandleFunc("GET /v1/campaigns/{id}/artifact.csv", surf.Handle(artifact("text/csv", (*Campaign).CSV)))
	mux.HandleFunc("GET /v1/campaigns/{id}/artifact.json", surf.Handle(artifact("application/json", (*Campaign).JSON)))
}

// Handler returns a standalone routed handler (tests mostly; daemons use
// Register).
func (a *API) Handler() http.Handler {
	mux := http.NewServeMux()
	a.Register(mux)
	return mux
}

func (a *API) submit(w http.ResponseWriter, r *http.Request) {
	req, err := DecodeRequest(http.MaxBytesReader(w, r.Body, 4<<20))
	if err != nil {
		jobs.WriteError(w, http.StatusBadRequest, "decoding campaign request: %v", err)
		return
	}
	c, err := a.m.Start(req)
	switch {
	case errors.Is(err, ErrClosed):
		jobs.WriteError(w, http.StatusServiceUnavailable, "%v", err)
	case err != nil:
		jobs.WriteError(w, http.StatusBadRequest, "%v", err)
	default:
		jobs.WriteJSON(w, http.StatusAccepted, c.Status())
	}
}

// artifact serves one artifact rendering; render is CSV or JSON.
func artifact(contentType string, render func(*Campaign) ([]byte, error)) func(http.ResponseWriter, *http.Request, *Campaign) {
	return func(w http.ResponseWriter, r *http.Request, c *Campaign) {
		body, err := render(c)
		if err != nil {
			jobs.WriteError(w, http.StatusConflict, "%v", err)
			return
		}
		w.Header().Set("Content-Type", contentType)
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(body)
	}
}
