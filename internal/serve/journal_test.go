package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"turnmodel/internal/exp"
	"turnmodel/internal/jsonl"
)

// journalCfg is the fast-replay store configuration used by the
// journal tests: single worker, millisecond backoff.
func journalCfg(path string) Config {
	return Config{Jobs: 1, QueueDepth: 8, JournalPath: path, RetryBackoff: time.Millisecond}
}

// keyAndID computes the content address the store would assign req.
func keyAndID(t *testing.T, req JobRequest) (string, string) {
	t.Helper()
	f, err := req.validate()
	if err != nil {
		t.Fatal(err)
	}
	key := exp.CacheKey(f, req.options())
	return key, jobID(key)
}

// TestJournalReplayServesCompletedResult: a job completed under one
// store is served byte-identically — status, result and SSE stream —
// by a second store replaying the same journal, without running a
// single leaf.
func TestJournalReplayServesCompletedResult(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	store1 := newTestStore(t, journalCfg(path))
	ts1 := httptest.NewServer(NewServer(store1, nil, nil))
	defer ts1.Close()

	req := quickReq(2001)
	sr, resp := postJob(t, ts1, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	waitState(t, ts1, sr.ID, StateDone)
	want := getBody(t, ts1, sr.ResultURL)
	store1.Close()

	store2 := newTestStore(t, journalCfg(path))
	ts2 := httptest.NewServer(NewServer(store2, nil, nil))
	defer ts2.Close()
	st := waitState(t, ts2, sr.ID, StateDone)
	if !st.Replayed {
		t.Errorf("replayed job not flagged: %+v", st)
	}
	if st.LeavesRun != 0 {
		t.Errorf("replayed result ran %d leaves, want 0", st.LeavesRun)
	}
	if got := getBody(t, ts2, sr.ResultURL); !bytes.Equal(got, want) {
		t.Errorf("replayed result differs:\nreplayed: %s\noriginal: %s", got, want)
	}
	if n := store2.replayedResults.Load(); n != 1 {
		t.Errorf("replayedResults = %d, want 1", n)
	}

	// The SSE stream of a replayed job still ends in the identical
	// result event.
	streamResp, err := http.Get(ts2.URL + "/v1/jobs/" + sr.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	stream, _ := io.ReadAll(streamResp.Body)
	streamResp.Body.Close()
	if got := extractSSEResult(t, string(stream)); got != string(want) {
		t.Errorf("replayed stream result differs from original:\n%q\n%q", got, want)
	}

	// Resubmitting the same body dedups onto the replayed done job.
	again, resp2 := postJob(t, ts2, req)
	if resp2.StatusCode != http.StatusOK || !again.Existing || again.ID != sr.ID {
		t.Errorf("resubmit after replay = %d %+v, want 200/existing/%s", resp2.StatusCode, again, sr.ID)
	}
}

// getBody fetches a URL off the test server and returns the body.
func getBody(t *testing.T, ts *httptest.Server, url string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestJournalReplayRequeuesInterruptedJob is the in-process half of the
// crash contract (cmd/servestorm SIGKILLs a real process): a journal
// snapshot taken mid-run — submit and start entries, no terminal —
// replays as a re-queued job whose re-run produces figure JSON
// byte-identical to an uninterrupted in-process render.
func TestJournalReplayRequeuesInterruptedJob(t *testing.T) {
	dir := t.TempDir()
	livePath := filepath.Join(dir, "live.jsonl")
	snapPath := filepath.Join(dir, "snapshot.jsonl")

	store1, err := NewStore(journalCfg(livePath))
	if err != nil {
		t.Fatal(err)
	}
	// The hook stalls the job mid-execution (after the start entry hit
	// the journal) until the "crash snapshot" is copied.
	snapped := make(chan struct{})
	proceed := make(chan struct{})
	store1.testHook = func(j *Job) {
		close(snapped)
		<-proceed
	}
	req := quickReq(2002)
	j, _, err := store1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	<-snapped
	data, err := os.ReadFile(livePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// Let the original run die as a cancel so its result never lands
	// in the process-global sweep cache (the replayed run below must
	// really re-run its leaves).
	store1.Cancel(j.ID)
	close(proceed)
	store1.Close()

	store2 := newTestStore(t, journalCfg(snapPath))
	ts := httptest.NewServer(NewServer(store2, nil, nil))
	defer ts.Close()
	st := waitState(t, ts, j.ID, StateDone)
	if !st.Replayed || st.Attempt != 2 {
		t.Errorf("replayed re-run status = %+v, want replayed attempt 2", st)
	}
	if st.LeavesRun == 0 {
		t.Errorf("replayed re-run served from cache; want a genuine re-run")
	}
	if n := store2.replayedJobs.Load(); n != 1 {
		t.Errorf("replayedJobs = %d, want 1", n)
	}
	if n := store2.retries.Load(); n != 1 {
		t.Errorf("retries = %d, want 1", n)
	}

	// Byte-identity with an uninterrupted render of the same config.
	f, _ := req.validate()
	sweeps, err := exp.RunFigure(f, req.options())
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := exp.WriteFigureJSON(&want, f, sweeps); err != nil {
		t.Fatal(err)
	}
	if got := getBody(t, ts, "/v1/jobs/"+j.ID+"/result"); !bytes.Equal(got, want.Bytes()) {
		t.Errorf("re-run result differs from uninterrupted render:\ngot:  %s\nwant: %s", got, want.Bytes())
	}
}

// TestJournalPoisonedNeverReruns: a poisoned entry quarantines the job
// across restarts — replay neither re-queues nor re-executes it, and a
// resubmission of the same configuration returns the poisoned job.
func TestJournalPoisonedNeverReruns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	store1, err := NewStore(journalCfg(path))
	if err != nil {
		t.Fatal(err)
	}
	store1.testHook = func(j *Job) { panic("poisoned input") }
	req := quickReq(2003)
	j, _, err := store1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitJobState(t, j, StatePoisoned)
	store1.Close()

	store2, err := NewStore(journalCfg(path))
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	executed := false
	store2.testHook = func(*Job) { executed = true }
	got, ok := store2.Get(j.ID)
	if !ok {
		t.Fatal("poisoned job missing after replay")
	}
	st := got.Status()
	if st.State != StatePoisoned || !st.Replayed {
		t.Fatalf("replayed poisoned status = %+v", st)
	}
	if !strings.Contains(st.Error, "panic: poisoned input") || !strings.Contains(st.Stack, "goroutine") {
		t.Errorf("poisoned job lost its panic record: %+v", st)
	}
	// The quarantine is sticky: same body, same (poisoned) job.
	again, existing, err := store2.Submit(req)
	if err != nil || !existing || again.ID != j.ID {
		t.Fatalf("resubmit of poisoned config = (%v, %v, %v), want existing poisoned job", again, existing, err)
	}
	time.Sleep(50 * time.Millisecond) // a re-run would start by now
	if executed {
		t.Error("poisoned job was re-executed")
	}
	if n := store2.replayedJobs.Load(); n != 0 {
		t.Errorf("poisoned job was re-queued: replayedJobs = %d", n)
	}
}

// waitJobState polls a job directly (no HTTP) until it reaches want.
func waitJobState(t *testing.T, j *Job, want JobState) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for j.State() != want {
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s waiting for %s", j.ID, j.State(), want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestJournalRetryBudgetExhausted: a job whose journal already records
// RetryLimit interrupted executions is marked failed at replay instead
// of re-queued — the crash-loop bound — and the failure itself is
// journaled so the next replay agrees without re-deciding.
func TestJournalRetryBudgetExhausted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	req := quickReq(2004)
	key, id := keyAndID(t, req)
	jl, err := jsonl.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	jl.Append(journalEntry{Type: "submit", ID: id, Key: key, Req: &req, Time: time.Now().UTC().Format(time.RFC3339Nano)})
	for a := 1; a <= 3; a++ {
		jl.Append(journalEntry{Type: "start", ID: id, Attempt: a})
	}
	jl.Close()

	store := newTestStore(t, journalCfg(path))
	j, ok := store.Get(id)
	if !ok {
		t.Fatal("job missing after replay")
	}
	st := j.Status()
	if st.State != StateFailed || !strings.Contains(st.Error, "crash-replay budget exhausted") {
		t.Fatalf("over-budget job status = %+v, want failed", st)
	}
	if n := store.replayedJobs.Load(); n != 0 {
		t.Errorf("over-budget job still re-queued: replayedJobs = %d", n)
	}
	store.Close()

	// The failed terminal entry persisted: a third replay sees a
	// terminal job, not another budget decision.
	entries, err := readJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	_, states := foldJournal(entries)
	if got := states[id].State; got != StateFailed {
		t.Errorf("journal after budget exhaustion folds to %s, want failed", got)
	}
}

// TestJournalTornTailTolerated: a process killed mid-append leaves a
// torn (unterminated, unparsable) final line. Replay skips it, the
// interrupted job re-runs, and subsequent appends land on a fresh line
// rather than corrupting the torn one — including the very first, the
// re-run's start entry.
func TestJournalTornTailTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	req := quickReq(2005)
	key, id := keyAndID(t, req)
	jl, err := jsonl.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	jl.Append(journalEntry{Type: "submit", ID: id, Key: key, Req: &req, Time: time.Now().UTC().Format(time.RFC3339Nano)})
	jl.Append(journalEntry{Type: "start", ID: id, Attempt: 1})
	jl.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// The torn write: half a done entry, no newline.
	f.WriteString(`{"type":"done","id":"` + id + `","result":"{\"trunca`)
	f.Close()

	store := newTestStore(t, journalCfg(path))
	j, ok := store.Get(id)
	if !ok {
		t.Fatal("job missing after torn-tail replay")
	}
	waitJobState(t, j, StateDone)
	store.Close()

	// Every line after the torn one must still parse: the fold ends
	// terminal done with a genuine (non-truncated) result.
	entries, err := readJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	_, states := foldJournal(entries)
	st := states[id]
	if st.State != StateDone || !strings.HasSuffix(st.Result, "\n") || strings.Contains(st.Result, "trunca") {
		t.Errorf("fold after torn tail = state %s, result %q…", st.State, st.Result[:min(40, len(st.Result))])
	}
	restarted := false
	for _, e := range entries {
		restarted = restarted || (e.Type == "start" && e.Attempt == 2)
	}
	if !restarted {
		t.Error("the start entry appended after the torn tail was lost")
	}
}

// TestSubmitRejectedNotJournaled: a 429'd submission must leave no
// journal trace — otherwise replay would resurrect a job whose client
// was told to retry elsewhere.
func TestSubmitRejectedNotJournaled(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	store := newTestStore(t, Config{Jobs: 1, QueueDepth: 1, JournalPath: path})
	a, _, err := store.Submit(longReq(2006))
	if err != nil {
		t.Fatal(err)
	}
	waitJobState(t, a, StateRunning)
	if _, _, err := store.Submit(longReq(2007)); err != nil { // queued
		t.Fatal(err)
	}
	rejected := longReq(2008)
	if _, _, err := store.Submit(rejected); err != ErrQueueFull {
		t.Fatalf("overflow submit err = %v, want ErrQueueFull", err)
	}
	store.Close()

	_, rejectedID := keyAndID(t, rejected)
	entries, err := readJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.ID == rejectedID {
			t.Fatalf("rejected submission reached the journal: %+v", e)
		}
	}
}
