package jobs

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRecordLifecycle: replay from any index, waiters woken by appends,
// the terminal transition and the context, and one terminal transition only.
func TestRecordLifecycle(t *testing.T) {
	var r Record[int]
	r.Begin()
	ctx := context.Background()

	var wg sync.WaitGroup
	got := make([]int, 0, 3)
	wg.Add(1)
	go func() { // a waiter that attaches before anything is logged
		defer wg.Done()
		for i := 0; ; i++ {
			v, ok := r.WaitIter(ctx, i)
			if !ok {
				return
			}
			got = append(got, v)
		}
	}()
	cancelled := false
	if !r.Start(func() { cancelled = true }) || r.Start(nil) {
		t.Fatal("Start must move a queued record exactly once")
	}
	for v := 1; v <= 3; v++ {
		r.Append(v)
	}
	if r.Cancel("ignored") || !cancelled {
		t.Fatal("Cancel of a running record must call its CancelFunc and not finish it")
	}
	if !r.Finish(Cancelled, "stopped") || r.Finish(Succeeded, "") {
		t.Fatal("Finish must transition exactly once")
	}
	wg.Wait()
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("waiter saw %v, want [1 2 3]", got)
	}
	if v, ok := r.WaitIter(ctx, 1); !ok || v != 2 {
		t.Errorf("late replay WaitIter(1) = %d, %v", v, ok)
	}
	s := r.Snapshot()
	if s.State != Cancelled || s.Err != "stopped" || s.Iters != 3 || s.Started == nil || s.Finished == nil {
		t.Errorf("snapshot %+v", s)
	}
	if st, err := r.Wait(ctx); st != Cancelled || err != nil {
		t.Errorf("Wait on a terminal record = %s, %v", st, err)
	}

	var q Record[int]
	q.Begin()
	expired, stop := context.WithTimeout(ctx, 10*time.Millisecond)
	defer stop()
	if st, err := q.Wait(expired); st != Queued || err == nil {
		t.Errorf("Wait past its deadline = %s, %v", st, err)
	}
	if !q.Cancel("cancelled while queued") || q.Snapshot().State != Cancelled {
		t.Error("Cancel of a queued record must finish it Cancelled")
	}
}

// TestStoreRetention: prefixed ids in submission order, eviction of the
// oldest retired job past retain with the hook, and Add failing after Close.
func TestStoreRetention(t *testing.T) {
	var evicted []string
	s := NewStore("x", 2, func(id string) { evicted = append(evicted, id) })
	for i := 0; i < 4; i++ {
		if _, ok := s.Add(func(id string) string { return id }); !ok {
			t.Fatal("Add refused before Close")
		}
	}
	s.Retire("x2")
	s.Retire("x1")
	s.Retire("x4")
	if len(evicted) != 1 || evicted[0] != "x2" {
		t.Fatalf("evicted %v, want [x2]", evicted)
	}
	if got := strings.Join(s.List(), ","); got != "x1,x3,x4" {
		t.Errorf("List = %s, want x1,x3,x4", got)
	}
	ran := make(chan struct{})
	s.Go(func() { <-s.Context().Done(); close(ran) })
	if err := s.Close(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	<-ran
	if _, ok := s.Add(func(id string) string { return id }); ok {
		t.Error("Add accepted after Close")
	}
}

// TestSurface: the shared endpoints — list, status, cancel, a 404 naming
// the noun, and the NDJSON stream with ?from= validation.
func TestSurface(t *testing.T) {
	type job struct {
		id  string
		rec Record[int]
	}
	s := NewStore[*job]("j", 8, nil)
	j, _ := s.Add(func(id string) *job { return &job{id: id} })
	j.rec.Begin()
	j.rec.Start(nil)
	j.rec.Append(7)
	j.rec.Append(8)
	j.rec.Finish(Succeeded, "")
	mux := http.NewServeMux()
	Surface[*job]{
		Store:  s,
		Noun:   "widget",
		Status: func(j *job) any { return map[string]any{"id": j.id, "state": j.rec.Snapshot().State} },
		Cancel: func(j *job) { j.rec.Cancel("") },
		Log:    func(j *job) Streamer { return &j.rec },
	}.Register(mux, "/v1/w")

	for _, c := range []struct {
		method, path string
		code         int
		body         string
	}{
		{"GET", "/v1/w", 200, `"id":"j1"`},
		{"GET", "/v1/w/j1", 200, `"state":"succeeded"`},
		{"POST", "/v1/w/j1/cancel", 200, `"state":"succeeded"`},
		{"GET", "/v1/w/j9", 404, `no such widget \"j9\"`},
		{"GET", "/v1/w/j1/stream", 200, "7\n8\n"},
		{"GET", "/v1/w/j1/stream?from=1", 200, "8\n"},
		{"GET", "/v1/w/j1/stream?from=-1", 400, "non-negative"},
	} {
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, httptest.NewRequest(c.method, c.path, nil))
		if w.Code != c.code || !strings.Contains(w.Body.String(), c.body) {
			t.Errorf("%s %s = %d %q, want %d containing %q", c.method, c.path, w.Code, w.Body, c.code, c.body)
		}
	}
}
