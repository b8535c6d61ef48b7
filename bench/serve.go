package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"turnmodel/internal/exp"
	"turnmodel/internal/serve"
)

// The serve workload's traffic: each round starts a fresh turnserver
// and drives it with a closed loop of serveClients clients, each on one
// keep-alive connection, through freshPerRound fresh jobs. Every
// repeatEvery-th request of a client repeats a body that client has
// already completed, which the server answers through its
// content-addressed dedup path without running a leaf.
const (
	serveClients  = 2
	freshPerRound = 24
	repeatEvery   = 4
	// leavesPerJob is the algorithm lines of fig13 and fig15 times the
	// one load each fresh body asks for.
	leavesPerJob = 4
	// minFreshJobs keeps at least ten fresh-job latencies beyond the
	// 95th percentile of a full-scale run.
	minFreshJobs = 200
)

// freshBodies derives the round's fresh job bodies from the seed:
// fig13 at load 1.0 and fig15 at load 2.5 alternate, each with a
// distinct seed. Small windows keep the service path visible in the
// latency.
func freshBodies(seed, scale int64) []serve.JobRequest {
	out := make([]serve.JobRequest, freshPerRound)
	for i := range out {
		r := serve.JobRequest{Figure: "fig13", Loads: []float64{1.0}}
		if i%2 == 1 {
			r = serve.JobRequest{Figure: "fig15", Loads: []float64{2.5}}
		}
		r.Seed = seed*1000 + int64(i) + 1
		r.WarmupCycles = max(1, 500/scale)
		r.MeasureCycles = max(1, 2000/scale)
		out[i] = r
	}
	return out
}

// planned is one request of a client's plan: a fresh body, or a repeat
// of a body the same client completed earlier.
type planned struct {
	idx    int
	repeat bool
}

// clientPlans fixes the order in which each client sends requests: its
// fresh bodies, with a repeat after every repeatEvery-1 of them.
func clientPlans(seed int64) [serveClients][]planned {
	var plans [serveClients][]planned
	for c := range plans {
		rng := rand.New(rand.NewSource(seed*31 + int64(c)))
		var mine []int
		// Clients take fresh bodies in pairs so each sees both figures.
		for i := 0; i < freshPerRound; i++ {
			if (i/2)%serveClients != c {
				continue
			}
			plans[c] = append(plans[c], planned{idx: i})
			mine = append(mine, i)
			if len(mine)%(repeatEvery-1) == 0 {
				plans[c] = append(plans[c], planned{idx: mine[rng.Intn(len(mine))], repeat: true})
			}
		}
	}
	return plans
}

// jobRecord is one request's timeline and outcome, as a client saw it.
type jobRecord struct {
	planned
	submit, wait, run, result, total time.Duration
	existing                         bool
	leaves                           int
	body                             []byte
	failures                         []string
}

// serveRun holds one serve workload run's fixed inputs.
type serveRun struct {
	cfg     runConfig
	bodies  []serve.JobRequest
	plans   [serveClients][]planned
	oracle  map[int][]byte // body index -> in-process reference render
	cycles  float64        // router-cycles one fresh job simulates
	tmp     string
	tr      *tracer
	traceID string
}

// roundResult is one round's measurements.
type roundResult struct {
	setup, wall  time.Duration
	cpu          time.Duration
	rssMB        float64
	jobs         []jobRecord
	scrape       []time.Duration
	rejected     float64
	journalBytes int64
	replay       time.Duration
	digest       string
	routerCycles float64
	checks
}

// runServe measures the serve workload into o.
func runServe(cfg runConfig, o *outcome) error {
	tmp, err := os.MkdirTemp(filepath.Join(cfg.root, buildDir), "serve-")
	if err != nil {
		return fmt.Errorf("serve scratch dir: %w", err)
	}
	defer os.RemoveAll(tmp)
	r := &serveRun{cfg: cfg, bodies: freshBodies(cfg.seed, cfg.scale), plans: clientPlans(cfg.seed), tmp: tmp}
	if err := r.reference(o); err != nil {
		return err
	}
	start := time.Now()
	fresh := 0
	for i := 0; ; i++ {
		traced := cfg.trace && i%2 == 1
		enough := i >= minRuns(cfg) && (!cfg.trace || i%2 == 0)
		if enough && time.Since(start).Seconds() >= cfg.seconds && (cfg.scale > 1 || fresh >= minFreshJobs) {
			break
		}
		if time.Since(start) > maxMeasure {
			o.expect(false, "serve: stopped after %v with %d fresh jobs", maxMeasure, fresh)
			break
		}
		if traced {
			r.tr = newTracer(int64(os.Getpid()) << 32)
		} else {
			r.tr = nil
		}
		r.traceID = fmt.Sprintf("serve/seed%d/round%d", cfg.seed, i)
		rr, err := r.round(i)
		if err != nil {
			return err
		}
		if err := r.tr.appendTo(cfg.spans); err != nil {
			return err
		}
		r.record(o, rr, traced)
		if !traced {
			fresh += freshPerRound
		}
	}
	return nil
}

// reference renders the first fig13 and the first fig15 body in this
// process through exp, the bytes every server result for those bodies
// must equal. In a traced run the same render supplies the per-layer
// metrics of the layers under the service.
func (r *serveRun) reference(o *outcome) error {
	s, cleanup, err := newSample("serve", r.cfg.seed, r.cfg.scale, r.cfg.trace, r.cfg.root, 0)
	if err != nil {
		return err
	}
	defer cleanup()
	idx := []int{0, 1}
	wl := &figureWorkload{build: func(s *sample) ([]figureJob, error) {
		var jobs []figureJob
		for _, i := range idx {
			b := r.bodies[i]
			f, ok := exp.FigureByID(b.Figure)
			if !ok {
				return nil, fmt.Errorf("unknown figure %s", b.Figure)
			}
			jobs = append(jobs, figureJob{f, s.withProgress(exp.Options{
				Seed: b.Seed, Loads: b.Loads, Warmup: b.WarmupCycles, Measure: b.MeasureCycles})})
		}
		return jobs, nil
	}}
	if _, err := s.measure(wl, 0); err != nil {
		return fmt.Errorf("serve reference render: %w", err)
	}
	r.oracle = map[int][]byte{}
	for k, i := range idx {
		r.oracle[i] = wl.rendered[k]
	}
	// Both figures run on 256-router networks for the window each body
	// asks for.
	b := r.bodies[0]
	r.cycles = float64(leavesPerJob) * 256 * float64(b.WarmupCycles+b.MeasureCycles)
	o.add(s.rep.checks)
	if s.tr != nil {
		o.layersFrom(s.rep.Layers)
		if err := s.tr.appendTo(r.cfg.spans); err != nil {
			return err
		}
	}
	return nil
}

// round runs one fresh server through the round's requests.
func (r *serveRun) round(i int) (roundResult, error) {
	var rr roundResult
	journal := filepath.Join(r.tmp, fmt.Sprintf("journal-%d.jsonl", i))
	defer os.Remove(journal)
	srv, _, err := startServer(r.cfg.turnserver, journal)
	if err != nil {
		return rr, err
	}
	base := "http://" + srv.addr
	r.warm(&rr, base)
	rr.setup = time.Since(srv.started)

	start := time.Now()
	records := make([][]jobRecord, serveClients)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			records[c] = r.client(base, c)
		}(c)
	}
	wg.Wait()
	rr.wall = time.Since(start)
	for _, rs := range records {
		rr.jobs = append(rr.jobs, rs...)
	}

	if r.tr != nil {
		rr.scrape, rr.rejected, err = scrapeMetrics(base)
		if err != nil {
			rr.expect(false, "scrape /metrics: %v", err)
		}
	}
	ru, err := srv.stop()
	if err != nil {
		rr.expect(false, "turnserver shutdown: %v", err)
	}
	if ru != nil {
		rr.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		rr.rssMB = float64(ru.Maxrss) / 1024
	}
	if fi, err := os.Stat(journal); err == nil {
		rr.journalBytes = fi.Size()
	}
	if r.tr != nil {
		// Restart on the round's journal: the time to ready is replay.
		again, replay, err := startServer(r.cfg.turnserver, journal)
		if err != nil {
			return rr, fmt.Errorf("turnserver replay: %w", err)
		}
		rr.replay = replay
		if _, err := again.stop(); err != nil {
			rr.expect(false, "turnserver shutdown after replay: %v", err)
		}
	}
	r.checkRound(&rr)
	return rr, nil
}

// warm runs one one-cycle job per figure, so the server has compiled
// its route tables before the round is timed: a long-lived server pays
// that once, not on every round's first jobs.
func (r *serveRun) warm(rr *roundResult, base string) {
	hc := &http.Client{Timeout: 5 * time.Minute}
	defer hc.CloseIdleConnections()
	for i, b := range r.bodies[:2] {
		w := b
		w.WarmupCycles, w.MeasureCycles = 1, 1
		j := r.send(hc, base, w, planned{idx: i}, r.traceID+"/warm")
		rr.expect(len(j.failures) == 0, "warm-up job: %v", j.failures)
	}
}

// checkRound applies the serve oracles to a round's requests and
// digests its fresh results.
func (r *serveRun) checkRound(rr *roundResult) {
	first := map[int][]byte{}
	for _, j := range rr.jobs {
		rr.expect(len(j.failures) == 0, "%s", strings.Join(j.failures, "; "))
		if len(j.failures) > 0 {
			continue
		}
		if !j.repeat {
			first[j.idx] = j.body
			rr.routerCycles += r.cycles
			rr.expect(!j.existing, "fresh body %d was answered as an existing job", j.idx)
			rr.expect(j.leaves == leavesPerJob, "fresh body %d ran %d leaves, want %d", j.idx, j.leaves, leavesPerJob)
			if want, ok := r.oracle[j.idx]; ok {
				rr.expect(bytes.Equal(j.body, want), "body %d: server result differs from the in-process exp.WriteFigureJSON render", j.idx)
			}
		}
	}
	for _, j := range rr.jobs {
		if j.repeat && len(j.failures) == 0 {
			rr.expect(j.existing, "repeat of body %d was not deduplicated", j.idx)
			rr.expect(bytes.Equal(j.body, first[j.idx]), "repeat of body %d returned different bytes than its first result", j.idx)
		}
	}
	h := sha256.New()
	for i := range r.bodies {
		h.Write(first[i])
	}
	rr.digest = hex.EncodeToString(h.Sum(nil))
}

// client runs one client's plan over a single keep-alive connection.
func (r *serveRun) client(base string, c int) []jobRecord {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr, Timeout: 5 * time.Minute}
	var out []jobRecord
	for k, p := range r.plans[c] {
		out = append(out, r.send(hc, base, r.bodies[p.idx], p, fmt.Sprintf("%s/client%d/job%d", r.traceID, c, k)))
	}
	return out
}

// send sends one request and follows it to its result: POST, the SSE
// stream up to its result event, then GET of the result.
func (r *serveRun) send(hc *http.Client, base string, req serve.JobRequest, p planned, trace string) jobRecord {
	rec := jobRecord{planned: p}
	failf := func(format string, args ...any) jobRecord {
		rec.failures = append(rec.failures, fmt.Sprintf("body %d: "+format, append([]any{p.idx}, args...)...))
		return rec
	}
	body, err := json.Marshal(req)
	if err != nil {
		return failf("encode request: %v", err)
	}
	rootID, endRoot := r.tr.begin(trace, 0, "serve.job")
	defer endRoot()
	t0 := time.Now()
	status, resp, err := do(hc, http.MethodPost, base+"/v1/jobs", body)
	if err != nil {
		return failf("POST: %v", err)
	}
	tSub := time.Now()
	rec.submit = tSub.Sub(t0)
	r.tr.add(span{Trace: trace, Parent: rootID, Name: "serve.submit", Start: t0.UnixNano(), End: tSub.UnixNano()})
	if status/100 != 2 {
		return failf("POST status %d: %s", status, strings.TrimSpace(string(resp)))
	}
	var sub struct {
		ID       string `json:"id"`
		Existing bool   `json:"existing"`
	}
	if err := json.Unmarshal(resp, &sub); err != nil {
		return failf("decode submit reply: %v", err)
	}
	rec.existing = sub.Existing

	ev, err := stream(hc, base+"/v1/jobs/"+sub.ID+"/stream")
	if err != nil {
		return failf("stream: %v", err)
	}
	if ev.terminal != "done" {
		return failf("job ended %q: %s", ev.terminal, ev.errMsg)
	}
	rec.leaves = ev.progress
	if !p.repeat && !ev.running.IsZero() {
		rec.wait = ev.running.Sub(t0)
		rec.run = ev.done.Sub(ev.running)
		r.tr.add(span{Trace: trace, Parent: rootID, Name: "serve.wait", Start: t0.UnixNano(), End: ev.running.UnixNano()})
		r.tr.add(span{Trace: trace, Parent: rootID, Name: "serve.run", Start: ev.running.UnixNano(), End: ev.done.UnixNano()})
	}

	tRes := time.Now()
	status, res, err := do(hc, http.MethodGet, base+"/v1/jobs/"+sub.ID+"/result", nil)
	if err != nil {
		return failf("GET result: %v", err)
	}
	tEnd := time.Now()
	rec.result = tEnd.Sub(tRes)
	rec.total = tEnd.Sub(t0)
	r.tr.add(span{Trace: trace, Parent: rootID, Name: "serve.result", Start: tRes.UnixNano(), End: tEnd.UnixNano()})
	if status != http.StatusOK {
		return failf("GET result status %d", status)
	}
	rec.body = res
	if !bytes.Equal(ev.result, res) {
		return failf("SSE result event differs from GET result")
	}
	return rec
}

// do sends one request and reads the whole reply.
func do(hc *http.Client, method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// sseEvents is what a job's event stream showed.
type sseEvents struct {
	running, done time.Time
	progress      int
	terminal      string
	errMsg        string
	result        []byte
}

// stream reads a job's SSE stream to its end, timing the running and
// done events and reassembling the result event's data lines.
func stream(hc *http.Client, url string) (sseEvents, error) {
	var ev sseEvents
	resp, err := hc.Get(url)
	if err != nil {
		return ev, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return ev, fmt.Errorf("status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	var name string
	var data []string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = append(data, strings.TrimPrefix(line, "data: "))
		case line == "":
			now := time.Now()
			switch name {
			case "running":
				if ev.running.IsZero() {
					ev.running = now
				}
			case "progress":
				ev.progress++
			case "result":
				ev.result = []byte(strings.Join(data, "\n") + "\n")
			case "done":
				ev.done, ev.terminal = now, name
			case "failed", "canceled", "timeout", "poisoned":
				ev.terminal = name
				var e struct {
					Error string `json:"error"`
				}
				if len(data) > 0 && json.Unmarshal([]byte(data[0]), &e) == nil {
					ev.errMsg = e.Error
				}
			}
			name, data = "", nil
		}
	}
	return ev, sc.Err()
}

// scrapeMetrics times three GET /metrics scrapes and reads the
// rejected-submission counter from the last.
func scrapeMetrics(base string) ([]time.Duration, float64, error) {
	hc := &http.Client{Timeout: 30 * time.Second}
	defer hc.CloseIdleConnections()
	var times []time.Duration
	var rejected float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		status, b, err := do(hc, http.MethodGet, base+"/metrics", nil)
		if err != nil {
			return times, 0, err
		}
		times = append(times, time.Since(t0))
		if status != http.StatusOK {
			return times, 0, fmt.Errorf("status %d", status)
		}
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "turnserver_jobs_rejected_total "); ok {
				fmt.Sscan(v, &rejected)
			}
		}
	}
	return times, rejected, nil
}

// server is one running turnserver process.
type server struct {
	cmd     *exec.Cmd
	addr    string
	started time.Time // just before exec
	exited  chan struct{}
	stderr  bytes.Buffer
}

// startServer starts the turnserver on a free loopback port with the
// given journal and waits until /readyz answers 200, returning the
// time from exec to ready.
func startServer(bin, journal string) (*server, time.Duration, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		s, d, err := tryStart(bin, journal)
		if err == nil {
			return s, d, nil
		}
		lastErr = err
	}
	return nil, 0, lastErr
}

func tryStart(bin, journal string) (*server, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	s := &server{addr: addr, exited: make(chan struct{})}
	// One leaf worker leaves a CPU to the HTTP path and the load
	// generator. With both Go Ps running leaves, a request waits for the
	// runtime's 10 ms preemption, which makes the dedup path's latency
	// bimodal and its median swing between runs.
	s.cmd = exec.Command(bin, "-addr", addr, "-journal", journal, "-quiet", "-workers", "1")
	s.cmd.Stderr = &s.stderr
	s.started = time.Now()
	t0 := s.started
	if err := s.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start turnserver: %w", err)
	}
	go func() {
		s.cmd.Wait()
		close(s.exited)
	}()
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	for {
		select {
		case <-s.exited:
			return nil, 0, fmt.Errorf("turnserver exited before ready: %s", strings.TrimSpace(s.stderr.String()))
		default:
		}
		status, _, err := do(hc, http.MethodGet, "http://"+addr+"/readyz", nil)
		if err == nil && status == http.StatusOK {
			return s, time.Since(t0), nil
		}
		if time.Since(t0) > 30*time.Second {
			s.cmd.Process.Kill()
			<-s.exited
			return nil, 0, errors.New("turnserver not ready after 30s")
		}
		time.Sleep(time.Millisecond)
	}
}

// stop sends SIGTERM, waits for the server to drain and exit, and
// returns its resource usage.
func (s *server) stop() (*syscall.Rusage, error) {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return nil, fmt.Errorf("signal turnserver: %w", err)
	}
	select {
	case <-s.exited:
	case <-time.After(30 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
		return nil, errors.New("turnserver did not exit within 30s of SIGTERM")
	}
	ru, _ := s.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !s.cmd.ProcessState.Success() {
		return ru, fmt.Errorf("turnserver exited with %v: %s", s.cmd.ProcessState, strings.TrimSpace(s.stderr.String()))
	}
	return ru, nil
}

// freeAddr finds a loopback port nothing listens on.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("find a free port: %w", err)
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// record folds one round into the workload outcome.
func (r *serveRun) record(o *outcome, rr roundResult, traced bool) {
	o.add(rr.checks)
	o.digests = append(o.digests, rr.digest)
	if !traced {
		o.plainWall = append(o.plainWall, rr.wall.Seconds())
		o.sample("setup_s", rr.setup.Seconds())
		o.sample("wall_s", rr.wall.Seconds())
		o.sample("cpu_s", rr.cpu.Seconds())
		o.sample("max_rss_mb", rr.rssMB)
		o.sample("router_cycles_per_s", rr.routerCycles/rr.wall.Seconds())
		o.sample("jobs_per_s", float64(len(rr.jobs))/rr.wall.Seconds())
		for _, j := range rr.jobs {
			if len(j.failures) > 0 {
				continue
			}
			if j.repeat {
				o.hits = append(o.hits, ms(j.total))
			} else {
				o.fresh = append(o.fresh, ms(j.total))
			}
		}
		return
	}
	o.tracedWall = append(o.tracedWall, rr.wall.Seconds())
	var submit, hitSubmit, wait, run, result []float64
	repeats, dedup, leaves, fresh := 0, 0, 0, 0
	for _, j := range rr.jobs {
		if len(j.failures) > 0 {
			continue
		}
		if j.repeat {
			repeats++
			if j.existing {
				dedup++
			}
			hitSubmit = append(hitSubmit, ms(j.submit))
			continue
		}
		fresh++
		leaves += j.leaves
		submit = append(submit, ms(j.submit))
		wait = append(wait, ms(j.wait))
		run = append(run, ms(j.run))
		result = append(result, ms(j.result))
	}
	o.extraPool("serve.submit_ms", submit)
	o.extraPool("serve.hit_submit_ms", hitSubmit)
	o.extraPool("serve.wait_ms", wait)
	o.extraPool("serve.run_ms", run)
	o.extraPool("serve.result_ms", result)
	var scrape []float64
	for _, d := range rr.scrape {
		scrape = append(scrape, ms(d))
	}
	o.extraPool("metrics.scrape_ms", scrape)
	o.extraPool("serve.job_self_ms", r.tr.selfMs("serve.job"))
	o.extraSample("serve.leaves_per_fresh_job", float64(leaves)/float64(max(1, fresh)))
	o.extraSample("serve.dedup_share", float64(dedup)/float64(max(1, repeats)))
	o.extraSample("serve.rejected", rr.rejected)
	o.extraSample("serve.journal_kb_per_job", float64(rr.journalBytes)/1024/float64(max(1, len(rr.jobs))))
	o.extraSample("serve.replay_ms", ms(rr.replay))
}
