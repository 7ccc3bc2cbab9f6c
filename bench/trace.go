package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the harness made into a layer. Spans of one op
// share Op; Parent is the id of the span that caused this one (0 for a
// root).
type span struct {
	Name     string `json:"name"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Op       int    `json:"op"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// tracer keeps the spans of a traced run in memory until write. A nil
// tracer records nothing, so the harness calls it unconditionally and an
// untraced run pays one nil check per call.
type tracer struct {
	workload string
	epoch    time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent, op int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		Name: name, ID: id, Parent: parent, Workload: t.workload, Op: op,
		StartNs: start.Sub(t.epoch).Nanoseconds(), EndNs: end.Sub(t.epoch).Nanoseconds(),
	})
	return id
}

// begin opens a span whose end is not known yet; end closes it.
func (t *tracer) begin(name string, parent, op int) int {
	now := time.Now()
	return t.add(name, parent, op, now, now)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// call times fn as a span.
func (t *tracer) call(name string, parent, op int, fn func()) {
	id := t.begin(name, parent, op)
	fn()
	t.end(id)
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as one JSON array.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval its direct children cover (overlapping children counted once,
// children clipped to the parent).
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, edge), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.EndNs - s.StartNs - covered
	}
	return self
}

// selfCoverShare is the sum of the self times of every span of op, over the
// wall time of the op's root spans: 1 when the span tree partitions the op.
func selfCoverShare(spans []span, op int) float64 {
	self := selfTimes(spans)
	var sum, wall int64
	for _, s := range spans {
		if s.Op != op {
			continue
		}
		sum += self[s.ID]
		if s.Parent == 0 {
			wall += s.EndNs - s.StartNs
		}
	}
	if wall == 0 {
		return 0
	}
	return float64(sum) / float64(wall)
}
