package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"turnmodel/internal/exp"
)

// newTestStore builds a store, failing the test on error and closing
// it at cleanup.
func newTestStore(t *testing.T, cfg Config) *Store {
	t.Helper()
	s, err := NewStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// quickReq builds a tiny fig13 job (one load point, short window) that
// still runs every algorithm line. Distinct seeds keep tests from
// colliding in the process-global sweep cache.
func quickReq(seed int64) JobRequest {
	return JobRequest{
		Figure:        "fig13",
		Quick:         true,
		Seed:          seed,
		Loads:         []float64{0.5},
		WarmupCycles:  200,
		MeasureCycles: 500,
	}
}

// longReq builds a job that runs until canceled (the cancellation
// poll fires every 1024 cycles, so teardown stays prompt).
func longReq(seed int64) JobRequest {
	return JobRequest{
		Figure:        "fig13",
		Seed:          seed,
		Loads:         []float64{0.5},
		WarmupCycles:  1 << 30,
		MeasureCycles: 1,
	}
}

// postJob submits a request and decodes the response envelope.
func postJob(t *testing.T, ts *httptest.Server, req JobRequest) (submitResponse, *http.Response) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr submitResponse
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
	}
	return sr, resp
}

// waitState polls a job's status endpoint until it reaches want.
func waitState(t *testing.T, ts *httptest.Server, id string, want ...JobState) Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		for _, w := range want {
			if st.State == w {
				return st
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s waiting for %v", id, st.State, want)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestSubmitStreamResultByteIdentical is the acceptance happy path: a
// Quick fig13 job submitted over HTTP streams progress plus a result
// event, and both the streamed and GET result bodies are byte-identical
// to an in-process exp.RunFigure + WriteFigureJSON render.
func TestSubmitStreamResultByteIdentical(t *testing.T) {
	store := newTestStore(t, Config{})
	ts := httptest.NewServer(NewServer(store, nil, nil))
	defer ts.Close()

	req := quickReq(1001)
	sr, resp := postJob(t, ts, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}

	// The stream replays queued/running, carries per-leaf progress, and
	// ends with done + the result event.
	streamResp, err := http.Get(ts.URL + sr.StreamURL)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := io.ReadAll(streamResp.Body)
	streamResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(stream)
	for _, want := range []string{"event: queued", "event: running", "event: progress", "event: done", "event: result"} {
		if !strings.Contains(text, want) {
			t.Errorf("stream missing %q:\n%s", want, text)
		}
	}

	// In-process render of the same configuration.
	f, ok := exp.FigureByID(req.Figure)
	if !ok {
		t.Fatal("fig13 missing")
	}
	sweeps, err := exp.RunFigure(f, req.options())
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := exp.WriteFigureJSON(&want, f, sweeps); err != nil {
		t.Fatal(err)
	}

	// GET /result must be byte-identical.
	res, err := http.Get(ts.URL + sr.ResultURL)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("HTTP result differs from in-process render:\nhttp: %s\nexp:  %s", got, want.Bytes())
	}

	// The streamed result event reassembles to the same bytes.
	if streamed := extractSSEResult(t, text); streamed != want.String() {
		t.Errorf("streamed result differs from in-process render:\nsse: %q\nexp: %q", streamed, want.String())
	}
}

// extractSSEResult reassembles the data lines of the result event.
func extractSSEResult(t *testing.T, stream string) string {
	t.Helper()
	_, after, found := strings.Cut(stream, "event: result\n")
	if !found {
		t.Fatal("no result event in stream")
	}
	var lines []string
	for _, line := range strings.Split(after, "\n") {
		if line == "" {
			break
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			t.Fatalf("malformed SSE line %q", line)
		}
		lines = append(lines, data)
	}
	return strings.Join(lines, "\n") + "\n"
}

// TestResubmitServedFromCache: the same body resubmitted to the same
// store returns the existing job; submitted to a fresh store (new job
// table, same process-global sweep cache) it completes as a cache hit
// without running a single leaf simulation.
func TestResubmitServedFromCache(t *testing.T) {
	store := newTestStore(t, Config{})
	ts := httptest.NewServer(NewServer(store, nil, nil))
	defer ts.Close()

	req := quickReq(1002)
	first, resp := postJob(t, ts, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	st := waitState(t, ts, first.ID, StateDone)
	if st.CacheHit || st.LeavesRun == 0 {
		t.Fatalf("first run should execute leaves: %+v", st)
	}

	// Same store: content-addressed dedup answers with the same job.
	again, resp2 := postJob(t, ts, req)
	if resp2.StatusCode != http.StatusOK || !again.Existing || again.ID != first.ID {
		t.Fatalf("resubmit = %d %+v, want 200/existing/same id %s", resp2.StatusCode, again, first.ID)
	}

	// Fresh store: a new job, but the sweep cache serves it with zero
	// leaf runs.
	store2 := newTestStore(t, Config{})
	ts2 := httptest.NewServer(NewServer(store2, nil, nil))
	defer ts2.Close()
	fresh, _ := postJob(t, ts2, req)
	if fresh.Existing {
		t.Fatalf("fresh store claims an existing job")
	}
	st2 := waitState(t, ts2, fresh.ID, StateDone)
	if !st2.CacheHit || st2.LeavesRun != 0 {
		t.Fatalf("resubmission ran leaves instead of hitting the cache: %+v", st2)
	}

	// Byte-identity across the cache path too.
	read := func(ts *httptest.Server, url string) []byte {
		resp, err := http.Get(ts.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return b
	}
	if a, b := read(ts, first.ResultURL), read(ts2, fresh.ResultURL); !bytes.Equal(a, b) {
		t.Error("cached result differs from the original run")
	}
}

// TestQueueOverflowReturns429: with one worker slot and a queue depth
// of one, a third concurrent job is rejected with 429 + Retry-After
// while the in-flight jobs are left alone.
func TestQueueOverflowReturns429(t *testing.T) {
	store := newTestStore(t, Config{Jobs: 1, QueueDepth: 1})
	ts := httptest.NewServer(NewServer(store, nil, nil))
	defer ts.Close()

	a, _ := postJob(t, ts, longReq(1003))
	waitState(t, ts, a.ID, StateRunning) // worker slot taken, queue empty
	b, resp := postJob(t, ts, longReq(1004))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit = %d", resp.StatusCode)
	}
	_, resp = postJob(t, ts, longReq(1005))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	// The rejected submission must not have disturbed the in-flight
	// jobs.
	if st := waitState(t, ts, a.ID, StateRunning); st.State != StateRunning {
		t.Fatalf("running job disturbed: %+v", st)
	}
	if st := waitState(t, ts, b.ID, StateQueued); st.State != StateQueued {
		t.Fatalf("queued job disturbed: %+v", st)
	}

	// Cancel the runner: the slot frees and the queued job starts.
	del, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+a.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := http.DefaultClient.Do(del); err != nil {
		t.Fatal(err)
	}
	waitState(t, ts, a.ID, StateCanceled)
	waitState(t, ts, b.ID, StateRunning)
	store.Cancel(b.ID)
	waitState(t, ts, b.ID, StateCanceled)
}

// TestCancelQueuedJob: canceling a job that never started transitions
// it straight to canceled and its stream terminates.
func TestCancelQueuedJob(t *testing.T) {
	store := newTestStore(t, Config{Jobs: 1, QueueDepth: 2})
	ts := httptest.NewServer(NewServer(store, nil, nil))
	defer ts.Close()

	a, _ := postJob(t, ts, longReq(1006))
	waitState(t, ts, a.ID, StateRunning)
	b, _ := postJob(t, ts, longReq(1007))
	store.Cancel(b.ID)
	waitState(t, ts, b.ID, StateCanceled)

	// The canceled job's stream ends immediately with the terminal
	// event rather than hanging.
	resp, err := http.Get(ts.URL + b.StreamURL)
	if err != nil {
		t.Fatal(err)
	}
	stream, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(stream), "event: canceled") {
		t.Fatalf("stream missing canceled event:\n%s", stream)
	}
	store.Cancel(a.ID)
	waitState(t, ts, a.ID, StateCanceled)
}

// TestMetricsEndpoint: /metrics scrapes the shared registry, so the
// store counters show up after a job runs.
func TestMetricsEndpoint(t *testing.T) {
	store := newTestStore(t, Config{})
	ts := httptest.NewServer(NewServer(store, nil, nil))
	defer ts.Close()

	j, _ := postJob(t, ts, quickReq(1008))
	waitState(t, ts, j.ID, StateDone)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{"turnserver_jobs_submitted_total 1", "turnserver_jobs_done_total 1", "turnserver_sim_leaves_run_total"} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics scrape missing %q:\n%s", want, text)
		}
	}
}

// TestBadRequests: unknown figures, malformed bodies and unknown job
// IDs are 4xx, not 5xx.
func TestBadRequests(t *testing.T) {
	store := newTestStore(t, Config{})
	ts := httptest.NewServer(NewServer(store, nil, nil))
	defer ts.Close()

	_, resp := postJob(t, ts, JobRequest{Figure: "no-such-figure"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown figure = %d, want 400", resp.StatusCode)
	}
	for name, body := range map[string]string{
		"malformed body": `{"figure": 12}`,
		// The engine is serial; the field that once selected a shard
		// count is now unknown, and unknown fields are rejected.
		"removed shards field": `{"figure":"fig13","quick":true,"shards":2}`,
		// Route tables cannot be switched off: results are identical
		// either way, so the field is gone and rejected like any other.
		"removed route-table field": `{"figure":"fig13","quick":true,"disable_route_tables":true}`,
	} {
		raw, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw.Body.Close()
		if raw.StatusCode != http.StatusBadRequest {
			t.Errorf("%s = %d, want 400", name, raw.StatusCode)
		}
	}
	missing, err := http.Get(ts.URL + "/v1/jobs/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	missing.Body.Close()
	if missing.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job = %d, want 404", missing.StatusCode)
	}
	pending, _ := postJob(t, ts, longReq(1009))
	res, err := http.Get(ts.URL + pending.ResultURL)
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusConflict {
		t.Errorf("result of unfinished job = %d, want 409", res.StatusCode)
	}
	store.Cancel(pending.ID)
	waitState(t, ts, pending.ID, StateCanceled)
}

// TestStoreClose: Close cancels everything, further submissions are
// refused, and Close is idempotent.
func TestStoreClose(t *testing.T) {
	store := newTestStore(t, Config{Jobs: 1, QueueDepth: 4})
	j, _, err := store.Submit(longReq(1010))
	if err != nil {
		t.Fatal(err)
	}
	q, _, err := store.Submit(longReq(1011))
	if err != nil {
		t.Fatal(err)
	}
	store.Close()
	store.Close()
	for _, jb := range []*Job{j, q} {
		if st := jb.State(); st != StateCanceled {
			t.Errorf("job %s state after Close = %s, want canceled", jb.ID, st)
		}
	}
	if _, _, err := store.Submit(quickReq(1012)); err != ErrClosed {
		t.Errorf("Submit after Close = %v, want ErrClosed", err)
	}
}
