package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"turnmodel/internal/exp"
	"turnmodel/internal/jsonl"
)

// ErrQueueFull is returned by Submit when the bounded job queue cannot
// admit another job; the HTTP layer maps it to 429 + Retry-After.
var ErrQueueFull = errors.New("serve: job queue full")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("serve: store closed")

// ErrJournal wraps journal write failures surfaced by Submit; the HTTP
// layer maps it to 500 rather than blaming the request.
var ErrJournal = errors.New("serve: journal write failed")

// errPanicked marks a run already recorded as poisoned by the panic
// quarantine; the caller must not add another terminal state.
var errPanicked = errors.New("serve: job panicked")

// Config sizes the job store.
type Config struct {
	// QueueDepth bounds the jobs admitted but not yet running; beyond
	// it Submit returns ErrQueueFull (HTTP 429). Default 16.
	QueueDepth int
	// Jobs is the number of jobs run concurrently. Default 1: a single
	// figure sweep already fans out across every core, so running jobs
	// serially maximizes per-job latency without idling the machine.
	Jobs int
	// Workers is the total leaf-simulation concurrency budget shared by
	// all running jobs (each job gets Workers/Jobs). Default
	// GOMAXPROCS.
	Workers int
	// JournalPath, when non-empty, makes the store crash-safe: every
	// job transition is appended to this JSONL write-ahead log, and
	// NewStore replays it — completed results are served from the
	// journal, jobs that were queued or running at crash time are
	// re-queued, and poisoned jobs stay quarantined. Empty keeps the
	// store purely in-memory.
	JournalPath string
	// JobTimeout bounds every job's execution (requests can only
	// tighten it via timeout_seconds). Past the deadline the job stops
	// at its next cancellation poll and reports state "timeout". Zero
	// means no server-side bound.
	JobTimeout time.Duration
	// RetryLimit caps the total execution attempts of one job across
	// crash replays: a job whose attempt count reaches it is marked
	// failed at replay instead of re-queued — the bound on a job that
	// crashes the whole process deterministically. Default 3.
	RetryLimit int
	// RetryBackoff is the base of the capped exponential delay before
	// a crash-replayed job re-runs (base << (attempt-1), capped at
	// 30s). Default 500ms.
	RetryBackoff time.Duration
	// ShedThreshold is the queued-job count at which Ready flips false
	// (/readyz 503) so load balancers drain traffic before the queue
	// hard-fills into 429s. Default 3/4 of QueueDepth, minimum 1.
	ShedThreshold int
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.Jobs <= 0 {
		c.Jobs = 1
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.RetryLimit <= 0 {
		c.RetryLimit = 3
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 500 * time.Millisecond
	}
	if c.ShedThreshold <= 0 {
		c.ShedThreshold = max(1, c.QueueDepth*3/4)
	}
	return c
}

// Store owns the job table, the bounded admission queue and the worker
// pool that drains it. Jobs are content-addressed: submitting a body
// whose canonical configuration matches an existing non-replaceable
// job returns that job instead of creating one, and completed results
// are additionally backed by the internal/exp sweep cache and (when
// configured) the on-disk journal, so even a fresh Store re-serves
// known configurations without re-running leaf simulations.
type Store struct {
	cfg     Config
	perJob  int // leaf workers per running job
	queue   chan *Job
	stop    chan struct{}
	wg      sync.WaitGroup
	mu      sync.Mutex
	jobs    map[string]*Job
	closed  bool
	journal *jsonl.Log
	ready   atomic.Bool
	// testHook, when non-nil, runs inside the panic quarantine before
	// the job executes; tests use it to inject panics and stalls.
	testHook func(*Job)

	running         atomic.Int64
	submitted       atomic.Int64 // admissions, deduped included
	deduped         atomic.Int64 // submissions answered with an existing job
	rejected        atomic.Int64 // ErrQueueFull admissions
	done            atomic.Int64
	failed          atomic.Int64
	canceled        atomic.Int64
	timeouts        atomic.Int64 // jobs that exceeded their deadline
	poisoned        atomic.Int64 // jobs quarantined after a panic
	replayedJobs    atomic.Int64 // interrupted jobs re-queued at startup
	replayedResults atomic.Int64 // completed results restored from the journal
	retries         atomic.Int64 // crash-replay re-runs (attempt > 1)
	cacheHits       atomic.Int64 // jobs completed without running any leaf
	leavesRun       atomic.Int64 // leaf simulations executed
	packetsDel      atomic.Int64 // packets delivered across completed jobs
}

// NewStore builds the store, replays the journal (when configured) and
// starts the job workers. Jobs interrupted by a crash are re-queued in
// their original submission order, with capped exponential backoff on
// repeated crashes and a hard attempt cap (Config.RetryLimit) so a job
// that deterministically kills the process cannot crash-loop forever.
func NewStore(cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	s := &Store{
		cfg:    cfg,
		perJob: max(1, cfg.Workers/cfg.Jobs),
		stop:   make(chan struct{}),
		jobs:   make(map[string]*Job),
	}
	var requeue []*Job
	if cfg.JournalPath != "" {
		entries, err := readJournal(cfg.JournalPath)
		if err != nil {
			return nil, err
		}
		if s.journal, err = jsonl.Open(cfg.JournalPath); err != nil {
			return nil, err
		}
		order, states := foldJournal(entries)
		for _, id := range order {
			st := states[id]
			j := restoredJob(id, st)
			s.jobs[id] = j
			switch {
			case j.State() == StateDone:
				s.replayedResults.Add(1)
			case !j.State().terminal():
				requeue = append(requeue, j)
			}
		}
	}
	// The queue must absorb every replayed job even when the backlog
	// exceeds the configured depth; fresh admissions still cap at
	// QueueDepth via Submit's explicit length check.
	s.queue = make(chan *Job, max(cfg.QueueDepth, len(requeue)))
	now := time.Now()
	for _, j := range requeue {
		if j.attempt >= cfg.RetryLimit {
			// The journal records RetryLimit interrupted executions:
			// treat the configuration as deterministically fatal to the
			// process and stop retrying.
			s.terminalize(j, StateFailed,
				fmt.Sprintf("crash-replay budget exhausted after %d attempts", j.attempt), "")
			s.failed.Add(1)
			continue
		}
		if j.attempt > 0 {
			j.notBefore = now.Add(replayBackoff(cfg.RetryBackoff, j.attempt))
			s.retries.Add(1)
		}
		s.replayedJobs.Add(1)
		s.queue <- j
	}
	s.wg.Add(cfg.Jobs)
	for i := 0; i < cfg.Jobs; i++ {
		go s.worker()
	}
	s.ready.Store(true)
	return s, nil
}

// replayBackoff is the delay before a job's attempt-th re-run:
// base << (attempt-1), capped at 30 seconds.
func replayBackoff(base time.Duration, attempt int) time.Duration {
	const cap = 30 * time.Second
	if attempt > 8 {
		return cap
	}
	d := base << (attempt - 1)
	if d > cap {
		return cap
	}
	return d
}

// Ready reports whether the store should receive traffic, with a
// reason when not: the journal must have replayed (NewStore returned)
// and the queue must sit below the shed threshold. Flipping not-ready
// at the threshold lets load balancers drain a saturated instance
// before submissions start bouncing off the hard QueueDepth 429s.
func (s *Store) Ready() (bool, string) {
	if !s.ready.Load() {
		return false, "store not accepting jobs"
	}
	if n := len(s.queue); n >= s.cfg.ShedThreshold {
		return false, fmt.Sprintf("shedding load: %d queued >= threshold %d", n, s.cfg.ShedThreshold)
	}
	return true, "ok"
}

// Submit validates and admits a job. The bool reports whether the
// returned job already existed (dedup or finished result); a false
// return means a fresh job was queued. ErrQueueFull means the caller
// should retry later; ErrJournal wraps a write-ahead-log failure; any
// other error is a bad request.
func (s *Store) Submit(req JobRequest) (*Job, bool, error) {
	f, err := req.validate()
	if err != nil {
		return nil, false, err
	}
	key := exp.CacheKey(f, req.options())
	id := jobID(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, ErrClosed
	}
	s.submitted.Add(1)
	if j, ok := s.jobs[id]; ok {
		// Replaceable terminal states (failed, canceled, timeout) give
		// way so a transient outcome is not sticky; anything else —
		// queued, running, done, poisoned — is the authoritative job
		// for this configuration.
		if !j.State().replaceable() {
			s.deduped.Add(1)
			return j, true, nil
		}
	}
	// Reserve queue room before journaling: every sender holds mu and
	// workers only drain, so a measured vacancy cannot vanish before
	// the send below, and the journal never records a submission the
	// client was told to retry.
	if len(s.queue) >= s.cfg.QueueDepth {
		s.rejected.Add(1)
		return nil, false, ErrQueueFull
	}
	j := newJob(req, key)
	if err := s.journal.Append(journalEntry{
		Type: "submit", ID: j.ID, Key: key, Req: &req,
		Time: j.submitted.UTC().Format(time.RFC3339Nano),
	}); err != nil {
		return nil, false, fmt.Errorf("%w: %v", ErrJournal, err)
	}
	s.queue <- j
	s.jobs[id] = j
	return j, false, nil
}

// Get looks a job up by ID.
func (s *Store) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs snapshots every job's status, newest submission first.
func (s *Store) Jobs() []Status {
	s.mu.Lock()
	all := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		all = append(all, j)
	}
	s.mu.Unlock()
	out := make([]Status, len(all))
	for i, j := range all {
		out[i] = j.Status()
	}
	sort.SliceStable(out, func(i, k int) bool { return out[i].SubmittedAt > out[k].SubmittedAt })
	return out
}

// Cancel requests cancellation of a job. Queued jobs transition to
// canceled immediately; running jobs stop at their next cancellation
// poll (skipping unstarted leaves, aborting in-flight engines, and
// freeing the worker slot). Returns false for unknown IDs.
func (s *Store) Cancel(id string) bool {
	j, ok := s.Get(id)
	if !ok {
		return false
	}
	j.mu.Lock()
	if j.state.terminal() {
		j.mu.Unlock()
		return true
	}
	j.cancel()
	wasQueued := j.state == StateQueued
	if wasQueued {
		j.state = StateCanceled
		j.events = append(j.events, Event{Type: string(StateCanceled)})
		j.notifyLocked()
		s.canceled.Add(1)
	}
	j.mu.Unlock()
	if wasQueued {
		s.journal.Append(journalEntry{Type: string(StateCanceled), ID: j.ID})
	}
	return true
}

// RetryAfterSeconds estimates when a rejected submitter should retry:
// one second per job ahead of it, at least one.
func (s *Store) RetryAfterSeconds() int {
	return max(1, len(s.queue)+int(s.running.Load()))
}

// Close stops admission, cancels every queued and running job, waits
// for the workers to exit, and closes the journal. Canceled jobs are
// journaled as canceled — a graceful shutdown does not re-run them on
// restart; only jobs lost to a crash replay. Idempotent.
func (s *Store) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.ready.Store(false)
	ids := make([]string, 0, len(s.jobs))
	for id := range s.jobs {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	sort.Strings(ids) // deterministic cancel (and journal) order
	for _, id := range ids {
		s.Cancel(id)
	}
	close(s.stop)
	s.wg.Wait()
	// Workers are gone: no append can race the close.
	s.journal.Close()
}

// worker drains the admission queue until Close, honoring crash-replay
// backoff delays.
func (s *Store) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case j := <-s.queue:
			if wait := time.Until(j.notBefore); wait > 0 {
				t := time.NewTimer(wait)
				select {
				case <-t.C:
				case <-s.stop:
					t.Stop()
					return
				}
			}
			s.run(j)
		}
	}
}

// terminalize moves a job into a terminal state with one event and a
// matching journal entry. It is the single writer of terminal
// transitions, so the in-memory log, the SSE stream and the journal
// always agree.
func (s *Store) terminalize(j *Job, state JobState, errMsg, stack string) {
	j.mu.Lock()
	j.errMsg = errMsg
	j.stack = stack
	j.state = state
	j.events = append(j.events, Event{Type: string(state), Error: errMsg, Stack: stack})
	j.notifyLocked()
	j.mu.Unlock()
	s.journal.Append(journalEntry{Type: string(state), ID: j.ID, Error: errMsg, Stack: stack})
}

// execute runs the job body inside the panic quarantine: a panic on
// this goroutine marks the job poisoned (never re-run on replay) and
// lets the worker survive. Panics on engine worker goroutines cannot
// be recovered here and still kill the process — the journal turns
// those into bounded crash replays instead (RetryLimit), so either way
// a poisoned input cannot take the service down forever.
func (s *Store) execute(j *Job, f exp.FigureSpec, o exp.Options) (sweeps []exp.Sweep, err error) {
	defer func() {
		if p := recover(); p != nil {
			s.poisoned.Add(1)
			s.terminalize(j, StatePoisoned, fmt.Sprintf("panic: %v", p), string(debug.Stack()))
			err = errPanicked
		}
	}()
	if s.testHook != nil {
		s.testHook(j)
	}
	return exp.RunFigure(f, o)
}

// run executes one dequeued job end to end.
func (s *Store) run(j *Job) {
	j.mu.Lock()
	if j.state != StateQueued { // canceled while queued
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.attempt++
	attempt := j.attempt
	j.events = append(j.events, Event{Type: string(StateRunning), Attempt: attempt})
	j.notifyLocked()
	j.mu.Unlock()
	s.journal.Append(journalEntry{Type: "start", ID: j.ID, Attempt: attempt})
	s.running.Add(1)
	defer s.running.Add(-1)
	defer j.cancel() // a job object runs at most once: release its context

	f, err := j.Req.validate() // re-resolve the figure spec
	if err != nil {
		s.fail(j, err)
		return
	}
	o := j.Req.options()
	o.Workers = s.perJob
	o.Context = j.ctx
	timeout := s.cfg.JobTimeout
	if r := time.Duration(j.Req.TimeoutSeconds * float64(time.Second)); r > 0 && (timeout == 0 || r < timeout) {
		timeout = r
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		o.Context, cancel = context.WithTimeout(j.ctx, timeout)
		defer cancel()
	}
	o.OnProgress = func(ev exp.ProgressEvent) {
		s.leavesRun.Add(1)
		j.mu.Lock()
		j.leaves++
		j.events = append(j.events, Event{Type: "progress", Label: ev.Label, Done: ev.Done, Total: ev.Total})
		j.notifyLocked()
		j.mu.Unlock()
	}
	sweeps, err := s.execute(j, f, o)
	switch {
	case errors.Is(err, errPanicked):
		// Quarantined and journaled already; the worker lives on.
	case errors.Is(err, context.DeadlineExceeded):
		s.timeouts.Add(1)
		s.terminalize(j, StateTimeout, fmt.Sprintf("deadline exceeded after %v", timeout), "")
	case errors.Is(err, context.Canceled):
		s.canceled.Add(1)
		s.terminalize(j, StateCanceled, "", "")
	case err != nil:
		s.fail(j, err)
	default:
		var buf bytes.Buffer
		// The stored bytes are exactly exp.WriteFigureJSON's, so an HTTP
		// result is byte-identical to an in-process render.
		if err := exp.WriteFigureJSON(&buf, f, sweeps); err != nil {
			s.fail(j, err)
			return
		}
		var delivered int64
		for _, sw := range sweeps {
			for _, p := range sw.Points {
				delivered += p.Result.PacketsDelivered
			}
		}
		s.packetsDel.Add(delivered)
		s.done.Add(1)
		j.mu.Lock()
		hit := j.leaves == 0
		j.mu.Unlock()
		// Journal before announcing done: a client that observes the
		// terminal state can rely on the result surviving a crash.
		s.journal.Append(journalEntry{Type: string(StateDone), ID: j.ID, Result: buf.String(), CacheHit: hit})
		j.mu.Lock()
		j.result = buf.Bytes()
		j.cacheHit = hit
		if hit {
			s.cacheHits.Add(1)
		}
		j.state = StateDone
		j.events = append(j.events, Event{Type: string(StateDone), CacheHit: hit})
		j.notifyLocked()
		j.mu.Unlock()
	}
}

// fail records a terminal failure.
func (s *Store) fail(j *Job, err error) {
	s.failed.Add(1)
	s.terminalize(j, StateFailed, err.Error(), "")
}

// WriteMetrics emits the store's counters in the Prometheus text
// exposition format; the server registers it on the shared
// metrics.Registry behind /metrics.
func (s *Store) WriteMetrics(w io.Writer) error {
	s.mu.Lock()
	queued := 0
	for _, j := range s.jobs {
		if j.State() == StateQueued {
			queued++
		}
	}
	s.mu.Unlock()
	ready := 0
	if ok, _ := s.Ready(); ok {
		ready = 1
	}
	counters := []struct {
		name, help string
		v          int64
	}{
		{"turnserver_jobs_submitted_total", "Job submissions admitted, deduplicated included.", s.submitted.Load()},
		{"turnserver_jobs_deduped_total", "Submissions answered with an existing content-addressed job.", s.deduped.Load()},
		{"turnserver_jobs_rejected_total", "Submissions rejected with 429 by admission control.", s.rejected.Load()},
		{"turnserver_jobs_done_total", "Jobs completed successfully.", s.done.Load()},
		{"turnserver_jobs_failed_total", "Jobs that ended in an error.", s.failed.Load()},
		{"turnserver_jobs_canceled_total", "Jobs canceled before completing.", s.canceled.Load()},
		{"turnserver_jobs_timeout_total", "Jobs that exceeded their deadline.", s.timeouts.Load()},
		{"turnserver_jobs_poisoned_total", "Jobs quarantined after a panic.", s.poisoned.Load()},
		{"turnserver_jobs_replayed_total", "Interrupted jobs re-queued by journal replay at startup.", s.replayedJobs.Load()},
		{"turnserver_journal_results_replayed_total", "Completed results restored from the journal at startup.", s.replayedResults.Load()},
		{"turnserver_job_retries_total", "Crash-replay re-runs admitted with backoff.", s.retries.Load()},
		{"turnserver_job_cache_hits_total", "Completed jobs served entirely from the sweep cache.", s.cacheHits.Load()},
		{"turnserver_sim_leaves_run_total", "Leaf simulations executed on behalf of jobs.", s.leavesRun.Load()},
		{"turnserver_sim_packets_delivered_total", "Packets delivered across completed jobs' measurement windows.", s.packetsDel.Load()},
	}
	for _, c := range counters {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", c.name, c.help, c.name, c.name, c.v); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "# HELP turnserver_jobs_queued Jobs admitted and waiting to run.\n# TYPE turnserver_jobs_queued gauge\nturnserver_jobs_queued %d\n# HELP turnserver_jobs_running Jobs currently executing.\n# TYPE turnserver_jobs_running gauge\nturnserver_jobs_running %d\n# HELP turnserver_ready Whether the store is ready for traffic (journal replayed, queue below shed threshold).\n# TYPE turnserver_ready gauge\nturnserver_ready %d\n", queued, s.running.Load(), ready)
	return err
}
