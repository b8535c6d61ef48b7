// Package serve turns the figure harness into a long-running service:
// a job store with admission control runs figure sweeps on a bounded
// worker pool, content-addresses every job by its canonical
// configuration (so identical submissions collapse onto one job and
// the internal/exp sweep cache serves repeats instantly), and an HTTP
// layer exposes submission, status, per-leaf progress streaming (SSE),
// cancellation, liveness/readiness probes and a shared Prometheus
// /metrics endpoint. With a journal configured the store is
// crash-safe: every lifecycle transition lands in an append-only JSONL
// write-ahead log, and a restart replays it — re-queueing interrupted
// jobs, serving completed results without re-running, and quarantining
// jobs that panicked. cmd/turnserver is the binary wrapper;
// cmd/servestorm is the kill/restart chaos harness.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"turnmodel/internal/exp"
)

// JobState is a job's position in its lifecycle. Transitions are
// queued -> running -> one of done/failed/canceled/timeout/poisoned,
// except that a job canceled while still queued goes straight to
// canceled, and journal replay can move a crashed running job back to
// queued.
type JobState string

// The job lifecycle states.
const (
	StateQueued  JobState = "queued"
	StateRunning JobState = "running"
	StateDone    JobState = "done"
	StateFailed  JobState = "failed"
	// StateCanceled is a job stopped by an explicit cancel (or server
	// shutdown) before completing.
	StateCanceled JobState = "canceled"
	// StateTimeout is a job that exceeded its deadline (the request's
	// timeout_seconds or the server's -job-timeout). Deadlines are
	// deterministic for a given configuration, so timed-out jobs are
	// never retried; a fresh submission replaces them.
	StateTimeout JobState = "timeout"
	// StatePoisoned is a job whose execution panicked. Poisoned jobs
	// are quarantined: journal replay never re-runs them and
	// resubmissions of the same configuration return the poisoned job
	// (the crash-loop guard). Clearing the journal lifts the
	// quarantine.
	StatePoisoned JobState = "poisoned"
)

// terminal reports whether no further transition can happen.
func (s JobState) terminal() bool {
	switch s {
	case StateDone, StateFailed, StateCanceled, StateTimeout, StatePoisoned:
		return true
	}
	return false
}

// replaceable reports whether a fresh submission of the same
// configuration replaces a job in this terminal state instead of
// returning it: transient outcomes (failure, cancellation, timeout)
// are not sticky, while done results and poisoned quarantines are.
func (s JobState) replaceable() bool {
	return s == StateFailed || s == StateCanceled || s == StateTimeout
}

// JobRequest is the POST /v1/jobs body: one figure sweep, mapping onto
// exp.Options plus the figure identity. Concurrency is the server's
// business — there is deliberately no workers field.
type JobRequest struct {
	// Figure is the sweep to run, e.g. "fig13" (see exp.Figures).
	Figure string `json:"figure"`
	// Quick trades fidelity for speed, as in exp.Options.
	Quick bool `json:"quick,omitempty"`
	// Seed makes the stochastic sweeps reproducible.
	Seed int64 `json:"seed,omitempty"`
	// Loads overrides the sweep's offered-load points (flits/us/node).
	Loads []float64 `json:"loads,omitempty"`
	// WarmupCycles and MeasureCycles override the simulation window.
	WarmupCycles  int64 `json:"warmup_cycles,omitempty"`
	MeasureCycles int64 `json:"measure_cycles,omitempty"`
	// TimeoutSeconds bounds the job's execution; past it the job stops
	// at its next cancellation poll and reports state "timeout". Zero
	// means the server's -job-timeout (if any) applies; the effective
	// deadline is the tighter of the two. The timeout is operational,
	// not part of the result's content, so it does not enter the job's
	// content address: submissions differing only in timeout collapse
	// onto one job, which keeps the first request's timeout.
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
}

// options maps the request onto exp.Options. The result carries no
// concurrency, deadline or progress hooks; the store adds those per
// run.
func (r JobRequest) options() exp.Options {
	return exp.Options{
		Quick:   r.Quick,
		Seed:    r.Seed,
		Loads:   r.Loads,
		Warmup:  r.WarmupCycles,
		Measure: r.MeasureCycles,
	}
}

// validate resolves the figure and rejects nonsense parameters.
func (r JobRequest) validate() (exp.FigureSpec, error) {
	f, ok := exp.FigureByID(r.Figure)
	if !ok {
		return exp.FigureSpec{}, fmt.Errorf("unknown figure %q", r.Figure)
	}
	if r.WarmupCycles < 0 || r.MeasureCycles < 0 {
		return exp.FigureSpec{}, fmt.Errorf("negative simulation window")
	}
	if r.TimeoutSeconds < 0 {
		return exp.FigureSpec{}, fmt.Errorf("negative timeout %v", r.TimeoutSeconds)
	}
	for _, l := range r.Loads {
		if l <= 0 {
			return exp.FigureSpec{}, fmt.Errorf("non-positive load %v", l)
		}
	}
	return f, nil
}

// Event is one entry of a job's ordered event log, streamed to SSE
// subscribers and replayed to late joiners. Progress events carry the
// exp.ProgressEvent fields; terminal events carry the error, if any.
type Event struct {
	// Type is "queued", "running", "progress", or a terminal state.
	Type string `json:"type"`
	// Label, Done and Total are set on progress events.
	Label string `json:"label,omitempty"`
	Done  int    `json:"done,omitempty"`
	Total int    `json:"total,omitempty"`
	// CacheHit marks a terminal done event served from the sweep cache.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Error is set on failed, timeout and poisoned events.
	Error string `json:"error,omitempty"`
	// Stack is the panic stack of a poisoned event.
	Stack string `json:"stack,omitempty"`
	// Attempt is the 1-based execution attempt on running events; past
	// 1 it marks a crash-replay re-run.
	Attempt int `json:"attempt,omitempty"`
	// Replayed marks events reconstructed from the journal at startup
	// rather than observed live.
	Replayed bool `json:"replayed,omitempty"`
}

// Job is one submitted figure sweep. The ID is the content address of
// the canonical configuration: resubmitting the same body yields the
// same job. All mutable state is guarded by mu; notify is closed and
// replaced on every event append so stream subscribers can wait
// without polling and without per-subscriber goroutines.
type Job struct {
	// ID is the content-addressed job identifier (hex, 16 bytes of the
	// SHA-256 of the exp cache key).
	ID string
	// Key is the underlying exp.CacheKey.
	Key string
	// Req echoes the submitted request.
	Req JobRequest

	mu     sync.Mutex
	notify chan struct{} // closed + replaced on every append
	state  JobState
	events []Event
	result []byte // exp.WriteFigureJSON bytes, set when state == done
	errMsg string
	stack  string // panic stack, set when state == poisoned
	// ctx stops the job's run once cancel is called.
	ctx    context.Context
	cancel context.CancelFunc
	// cacheHit records that the run completed without running a single
	// leaf simulation: every sweep came from the exp cache.
	cacheHit bool
	// leaves counts leaf simulations this job actually ran.
	leaves int
	// attempt counts executions begun, including runs lost to crashes
	// (restored from the journal's start entries on replay).
	attempt int
	// notBefore delays a crash-replayed job's re-run (capped
	// exponential backoff); the worker honors it before starting.
	notBefore time.Time
	// replayed marks a job reconstructed from the journal.
	replayed bool

	submitted time.Time
}

// jobID derives the content-addressed identifier from the canonical
// cache key.
func jobID(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:16])
}

// newJob builds a queued job for a validated request.
func newJob(req JobRequest, key string) *Job {
	j := &Job{
		ID:        jobID(key),
		Key:       key,
		Req:       req,
		state:     StateQueued,
		notify:    make(chan struct{}),
		submitted: time.Now(),
	}
	j.ctx, j.cancel = context.WithCancel(context.Background())
	j.events = append(j.events, Event{Type: string(StateQueued)})
	return j
}

// restoredJob rebuilds a job from its folded journal state, with a
// synthetic event log marked Replayed.
func restoredJob(id string, st *replayState) *Job {
	j := &Job{
		ID:        id,
		Key:       st.Key,
		Req:       st.Req,
		notify:    make(chan struct{}),
		submitted: st.Submitted,
		replayed:  true,
		attempt:   st.Attempts,
	}
	j.ctx, j.cancel = context.WithCancel(context.Background())
	j.events = append(j.events, Event{Type: string(StateQueued), Replayed: true, Attempt: st.Attempts})
	switch {
	case st.State == StateDone:
		j.state = StateDone
		j.result = []byte(st.Result)
		j.cacheHit = st.CacheHit
		j.events = append(j.events,
			Event{Type: string(StateRunning), Replayed: true},
			Event{Type: string(StateDone), Replayed: true, CacheHit: st.CacheHit})
	case st.State.terminal():
		j.state = st.State
		j.errMsg = st.Error
		j.stack = st.Stack
		if st.Attempts > 0 {
			j.events = append(j.events, Event{Type: string(StateRunning), Replayed: true, Attempt: st.Attempts})
		}
		j.events = append(j.events, Event{Type: string(st.State), Replayed: true, Error: st.Error, Stack: st.Stack})
	default:
		// Queued or running at crash time: back to the queue. The
		// store decides backoff and the retry budget.
		j.state = StateQueued
	}
	return j
}

// notifyLocked wakes every stream waiter; callers hold mu.
func (j *Job) notifyLocked() {
	close(j.notify)
	j.notify = make(chan struct{})
}

// State returns the current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Result returns the finished figure JSON (byte-identical to
// exp.WriteFigureJSON on the same configuration) and whether it is
// available yet.
func (j *Job) Result() ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.state == StateDone
}

// next blocks until the event log grows past from, the job reaches a
// terminal state, or done fires (the stream client disconnected). It
// returns the new events plus whether the log is complete: a terminal
// state with every event consumed returns (nil, true), and a fired
// done channel returns (nil, false) — the caller distinguishes via its
// request context. Waiting is channel-based (no condvar), so a
// vanished client can never strand a waiter: the select observes the
// disconnect directly.
func (j *Job) next(from int, done <-chan struct{}) ([]Event, bool) {
	for {
		j.mu.Lock()
		if len(j.events) > from {
			out := append([]Event(nil), j.events[from:]...)
			complete := j.state.terminal() && from+len(out) == len(j.events)
			j.mu.Unlock()
			return out, complete
		}
		if j.state.terminal() {
			j.mu.Unlock()
			return nil, true
		}
		ch := j.notify
		j.mu.Unlock()
		select {
		case <-ch:
		case <-done:
			return nil, false
		}
	}
}

// Status is the JSON shape of GET /v1/jobs/{id} and of job listings.
type Status struct {
	// ID and Figure identify the job; State its lifecycle position.
	ID     string   `json:"id"`
	Figure string   `json:"figure"`
	State  JobState `json:"state"`
	// Done and Total report leaf-simulation progress while running.
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
	// CacheHit marks a completed job served entirely from the sweep
	// cache; LeavesRun counts the leaf simulations it actually ran.
	CacheHit  bool `json:"cache_hit,omitempty"`
	LeavesRun int  `json:"leaves_run,omitempty"`
	// Attempt counts executions begun, including runs lost to crashes.
	Attempt int `json:"attempt,omitempty"`
	// Replayed marks a job reconstructed from the journal at startup.
	Replayed bool `json:"replayed,omitempty"`
	// Error is the failure message of a failed, timed-out or poisoned
	// job; Stack is the panic stack of a poisoned one.
	Error string `json:"error,omitempty"`
	Stack string `json:"stack,omitempty"`
	// SubmittedAt is the admission timestamp, RFC 3339.
	SubmittedAt string `json:"submitted_at"`
}

// Status snapshots the job for the status and list endpoints.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := Status{
		ID:          j.ID,
		Figure:      j.Req.Figure,
		State:       j.state,
		CacheHit:    j.cacheHit,
		LeavesRun:   j.leaves,
		Attempt:     j.attempt,
		Replayed:    j.replayed,
		Error:       j.errMsg,
		Stack:       j.stack,
		SubmittedAt: j.submitted.UTC().Format(time.RFC3339),
	}
	for i := len(j.events) - 1; i >= 0; i-- {
		if j.events[i].Type == "progress" {
			s.Done, s.Total = j.events[i].Done, j.events[i].Total
			break
		}
	}
	return s
}
