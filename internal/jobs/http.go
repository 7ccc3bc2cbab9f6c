package jobs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
)

// WriteJSON writes v as a compact JSON body with status code: result
// documents carry per-energy and per-atom arrays, and indenting them costs
// a cache hit a measurable share of its latency.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// apiError is the JSON error envelope every non-2xx response carries.
type apiError struct {
	Error string `json:"error"`
}

// WriteError writes the {"error": "..."} envelope with status code.
func WriteError(w http.ResponseWriter, code int, format string, args ...any) {
	WriteJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// ServeStream writes the log as NDJSON, one record per line, starting at
// ?from= (default 0) and following it live until the job is terminal or the
// client disconnects. Records are replayed from the log, so a client that
// connects late sees every one, and every client of one record streams the
// same bytes for the same ?from=.
func (rec *Record[T]) ServeStream(w http.ResponseWriter, r *http.Request) {
	from := 0
	if s := r.URL.Query().Get("from"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 0 {
			WriteError(w, http.StatusBadRequest, "from must be a non-negative integer, got %q", s)
			return
		}
		from = v
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for i := from; ; i++ {
		it, more := rec.WaitIter(r.Context(), i)
		if !more || enc.Encode(it) != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// Streamer is a job whose log can be streamed (a Record, or a type
// embedding one).
type Streamer interface {
	ServeStream(w http.ResponseWriter, r *http.Request)
}

// Surface is one tier's shared lifecycle endpoints over its store. The
// tier supplies its status document, its cancel rule and, if its jobs have
// an iteration log, the log.
type Surface[J any] struct {
	// Store holds the tier's jobs; Noun names one in 404 messages.
	Store *Store[J]
	Noun  string
	// Status renders a job's status document.
	Status func(J) any
	// Cancel applies the tier's cancel rule to a job.
	Cancel func(J)
	// Log returns a job's iteration log; nil registers no stream route.
	Log func(J) Streamer
}

// Register mounts, under base (e.g. "/v1/jobs"):
//
//	GET  base               list in submission order
//	GET  base/{id}          status
//	POST base/{id}/cancel   cancel → status after the request
//	GET  base/{id}/stream   NDJSON log from ?from= (when Log is set)
func (s Surface[J]) Register(mux *http.ServeMux, base string) {
	mux.HandleFunc("GET "+base, func(w http.ResponseWriter, r *http.Request) {
		all := s.Store.List()
		out := make([]any, len(all))
		for i, j := range all {
			out[i] = s.Status(j)
		}
		WriteJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("GET "+base+"/{id}", s.Handle(func(w http.ResponseWriter, r *http.Request, j J) {
		WriteJSON(w, http.StatusOK, s.Status(j))
	}))
	mux.HandleFunc("POST "+base+"/{id}/cancel", s.Handle(func(w http.ResponseWriter, r *http.Request, j J) {
		s.Cancel(j)
		WriteJSON(w, http.StatusOK, s.Status(j))
	}))
	if s.Log != nil {
		mux.HandleFunc("GET "+base+"/{id}/stream", s.Handle(func(w http.ResponseWriter, r *http.Request, j J) {
			s.Log(j).ServeStream(w, r)
		}))
	}
}

// Handle adapts a per-job handler to an {id} route: it resolves the path
// value in the store and writes a 404 naming Noun when the id was never
// minted or has been evicted.
func (s Surface[J]) Handle(h func(http.ResponseWriter, *http.Request, J)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		j, ok := s.Store.Get(id)
		if !ok {
			WriteError(w, http.StatusNotFound, "no such %s %q", s.Noun, id)
			return
		}
		h(w, r, j)
	}
}
