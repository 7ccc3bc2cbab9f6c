package front

import (
	"negfsim/internal/jobs"
	"negfsim/internal/serve"
)

// RunState is the lifecycle phase of a deduplicated run (the shared
// jobs.State).
type RunState = jobs.State

// The run lifecycle: Running until the worker-side job reaches a terminal
// state (possibly across re-placements), then one of the three terminal
// states — failed permanently (solver error, or no healthy workers), or
// cancelled after its last attached submission cancelled.
const (
	RunRunning   = jobs.Running
	RunSucceeded = jobs.Succeeded
	RunFailed    = jobs.Failed
	RunCancelled = jobs.Cancelled
)

// run is one deduplicated execution: the single in-flight (or cached)
// computation behind any number of front jobs with the same Key. Its record
// holds the shared iteration log; front jobs are thin handles that read it.
type run struct {
	jobs.Record[serve.IterRecord]

	key Key

	// result and checkpoint are written once, before the terminal
	// transition, and read only after a snapshot showed RunSucceeded.
	result     *serve.ResultDoc // worker's result document (ID is the worker job id)
	checkpoint []byte           // gob checkpoint bytes fetched after success

	// Behind the record's mutex:
	worker   string   // URL of the worker currently (or last) executing it
	warmBias *float64 // bias of the cached checkpoint that seeded it, if any
	reroutes int      // worker deaths survived by re-placement

	// Behind Front.mu:
	attached int      // handles not yet detached; the last detach cancels
	handles  []string // front job ids to retire when the run settles

	lastIter int // highest Born iteration logged; relay goroutine only
}

// newRun returns a queued run; Submit starts it before any handle can see it.
func newRun(key Key) *run {
	r := &run{key: key}
	r.Begin()
	return r
}

// appendIter appends a worker iteration record, suppressing replays: after a
// re-placement the new worker re-executes the deterministic Born iterations
// the log already holds, so records at or below the high-water mark are
// dropped and the stream continues from the first unseen iteration — the
// HTTP-tier analogue of the checkpoint replay core's fault-tolerant loop
// performs after an ErrRankDead recovery.
func (r *run) appendIter(rec serve.IterRecord) {
	if rec.Iter <= r.lastIter {
		return
	}
	r.lastIter = rec.Iter
	r.Append(rec)
}
