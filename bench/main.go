// Command bench is the repository's benchmark. It runs four workloads
// — the paper's figures, a turnscan campaign, one large saturated
// simulation and a loaded turnserver — and for each prints the
// end-to-end metrics with their units, checks that the outputs are
// correct, and ends with one JSON result line. With -trace 1 it runs
// traced samples beside untraced ones and reports per-layer metrics
// and the tracing overhead instead. With -repeat N it runs the suite N
// times and judges each metric's spread against its bound.
//
// Run it from the repository root through bench/run.sh, which builds
// this command and cmd/turnserver first:
//
//	bash bench/run.sh -workload figures -seed 1 -seconds 20 -trace 0
//	bash bench/run.sh -seed 1                # all four workloads
//	bash bench/run.sh -repeat 10 -seed 1     # stability
//
// Each batch sample runs in a fresh child process, because exp's sweep
// and share caches and routing's table cache are process-global: in one
// process a later sample would be served from the caches the first
// filled.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDir is the checkout-relative directory for build outputs and
// scratch files; nothing the benchmark writes lands outside it.
const buildDir = ".bench_build"

// maxMeasure stops a workload that cannot reach its minimum sample
// count in reasonable time, keeping a run within its time limit.
const maxMeasure = 150 * time.Second

var workloads = []string{"figures", "turnscan", "mesh32", "serve"}

// runConfig is one invocation's settings.
type runConfig struct {
	workload   string
	seed       int64
	seconds    float64
	trace      bool
	spans      string
	scale      int64
	root       string
	turnserver string
}

// minRuns is the fewest samples (rounds, for serve) a run takes: three
// untraced for stable medians, or two untraced and two traced.
func minRuns(cfg runConfig) int {
	if cfg.trace {
		return 4
	}
	return 3
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: figures, turnscan, mesh32 or serve (empty runs all four)")
	seed := fs.Int64("seed", 1, "seed the workload inputs derive from")
	seconds := fs.Float64("seconds", 20, "seconds each workload measures for")
	trace := fs.Int("trace", 0, "1 interleaves traced samples and reports per-layer metrics")
	spans := fs.String("spans", "", "JSONL file for a traced run's spans (default "+buildDir+"/spans-<workload>.jsonl)")
	repeat := fs.Int("repeat", 0, "run the suite N times on seeds seed..seed+N-1 and judge each metric's spread")
	scale := fs.Int64("scale", 1, "divide every simulation window by this factor (smoke runs)")
	root := fs.String("root", ".", "repository checkout root")
	turnserver := fs.String("turnserver", "", "turnserver binary (default "+buildDir+"/turnserver under -root)")
	child := fs.String("child", "", "internal: run one sample of a batch workload and report it as JSON")
	sampleIdx := fs.Int("sample", 0, "internal: the sample's index within its run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1")
		return 2
	}
	if *scale < 1 || *seconds <= 0 || *seed < 0 {
		fmt.Fprintln(os.Stderr, "bench: -scale must be at least 1, -seconds positive and -seed non-negative")
		return 2
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		spans: *spans, scale: *scale, root: *root, turnserver: *turnserver}
	if cfg.turnserver == "" {
		cfg.turnserver = filepath.Join(cfg.root, buildDir, "turnserver")
	}
	if *child != "" {
		if err := runSample(*child, cfg.seed, cfg.scale, cfg.trace, cfg.spans, cfg.root, *sampleIdx, stdout); err != nil {
			fmt.Fprintf(os.Stderr, "bench: sample: %v\n", err)
			return 1
		}
		return 0
	}
	if err := os.MkdirAll(filepath.Join(cfg.root, buildDir), 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	names := workloads
	if cfg.workload != "" {
		if !known(cfg.workload) {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want one of %s)\n", cfg.workload, strings.Join(workloads, ", "))
			return 2
		}
		names = []string{cfg.workload}
	}
	if *repeat > 0 {
		return runRepeat(cfg, names, *repeat, stdout)
	}

	printHeader(stdout, cfg.root)
	code := 0
	var results [][]byte
	for i, name := range names {
		c := cfg
		c.workload = name
		if c.trace && c.spans == "" {
			c.spans = filepath.Join(cfg.root, buildDir, "spans-"+name+".jsonl")
		}
		// A span file starts empty for the run; one named by -spans
		// collects every workload's spans.
		if c.trace && (cfg.spans == "" || i == 0) {
			if err := os.WriteFile(c.spans, nil, 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return 1
			}
		}
		o, err := runWorkload(c)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		results = append(results, o.report(stdout, c))
		if o.Failed > 0 {
			code = 1
		}
	}
	fmt.Fprintf(stdout, "loadavg at end: %s\n", loadavg())
	// Result lines end the output, one per workload in run order.
	for _, line := range results {
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return code
}

func known(name string) bool {
	for _, w := range workloads {
		if w == name {
			return true
		}
	}
	return false
}

// runWorkload measures one workload for cfg.seconds.
func runWorkload(cfg runConfig) (*outcome, error) {
	o := newOutcome(cfg.workload)
	var err error
	if cfg.workload == "serve" {
		err = runServe(cfg, o)
	} else {
		err = runBatch(cfg, o)
	}
	if err != nil {
		return nil, err
	}
	same := true
	for _, d := range o.digests {
		same = same && d == o.digests[0]
	}
	o.expect(len(o.digests) > 0 && same, "output digests differ across the samples of one seed: %v", o.digests)
	return o, nil
}

// runBatch runs fresh child processes, one per sample, until the run's
// time is used: it starts another sample only while one more fits.
func runBatch(cfg runConfig, o *outcome) error {
	start := time.Now()
	var durs []float64
	for i := 0; ; i++ {
		traced := cfg.trace && i%2 == 1
		if i >= minRuns(cfg) && (!cfg.trace || i%2 == 0) {
			left := cfg.seconds - time.Since(start).Seconds()
			if left < median(durs) {
				break
			}
		}
		if time.Since(start) > maxMeasure {
			o.expect(false, "%s: stopped after %v with %d samples", cfg.workload, maxMeasure, i)
			break
		}
		t0 := time.Now()
		rep, ru, err := runChild(cfg, i, traced)
		if err != nil {
			return err
		}
		durs = append(durs, time.Since(t0).Seconds())
		o.add(rep.checks)
		o.digests = append(o.digests, rep.Digest)
		if traced {
			o.tracedWall = append(o.tracedWall, rep.WallS)
			o.layersFrom(rep.Layers)
			for k, v := range rep.Extra {
				o.extraSample(k, v)
			}
			continue
		}
		o.plainWall = append(o.plainWall, rep.WallS)
		o.sample("setup_s", float64(rep.SetupEndNs-t0.UnixNano())/1e9)
		o.sample("wall_s", rep.WallS)
		o.sample("cpu_s", time.Duration(ru.Utime.Nano()+ru.Stime.Nano()).Seconds())
		o.sample("max_rss_mb", float64(ru.Maxrss)/1024)
		o.sample("router_cycles_per_s", rep.RouterCycles/rep.WallS)
		o.sample("jobs_per_s", float64(rep.Jobs)/rep.WallS)
		o.fresh = append(o.fresh, rep.FreshMs)
		o.hits = append(o.hits, rep.HitMs...)
	}
	return nil
}

// runChild runs one sample in a fresh process of this binary.
func runChild(cfg runConfig, idx int, traced bool) (sampleReport, *syscall.Rusage, error) {
	var rep sampleReport
	exe, err := os.Executable()
	if err != nil {
		return rep, nil, fmt.Errorf("locate benchmark binary: %w", err)
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.Command(exe, "-child", cfg.workload, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-scale", strconv.FormatInt(cfg.scale, 10), "-trace", tr, "-spans", cfg.spans,
		"-root", cfg.root, "-sample", strconv.Itoa(idx))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return rep, nil, fmt.Errorf("sample %d: %w", idx, err)
	}
	if err := json.Unmarshal(lastLine(out.Bytes()), &rep); err != nil {
		return rep, nil, fmt.Errorf("sample %d report: %w", idx, err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return rep, nil, errors.New("no resource usage for the sample process")
	}
	return rep, ru, nil
}

// lastLine returns the last non-empty line of b.
func lastLine(b []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	return lines[len(lines)-1]
}

// outcome gathers one workload run's samples, checks and diagnostics.
type outcome struct {
	name                  string
	samples               map[string][]float64 // untraced per-sample end-to-end values
	fresh, hits           []float64            // request latencies, ms
	plainWall, tracedWall []float64
	layers                map[string][]float64 // per traced sample
	extras                map[string][]float64 // per traced sample or round
	pools                 map[string][]float64 // pooled distributions
	digests               []string
	checks
}

func newOutcome(name string) *outcome {
	return &outcome{name: name, samples: map[string][]float64{}, layers: map[string][]float64{},
		extras: map[string][]float64{}, pools: map[string][]float64{}}
}

func (o *outcome) sample(name string, v float64) { o.samples[name] = append(o.samples[name], v) }

func (o *outcome) layersFrom(m map[string]float64) {
	for k, v := range m {
		o.layers[k] = append(o.layers[k], v)
	}
}

func (o *outcome) extraSample(name string, v float64) { o.extras[name] = append(o.extras[name], v) }

func (o *outcome) extraPool(name string, vs []float64) { o.pools[name] = append(o.pools[name], vs...) }

// endToEnd reduces the untraced samples to the end-to-end metrics.
func (o *outcome) endToEnd() map[string]float64 {
	m := map[string]float64{}
	for k, vs := range o.samples {
		m[k] = median(vs)
	}
	m["job_p50_ms"] = median(o.fresh)
	m["job_p95_ms"], _ = tail(o.fresh)
	m["hit_p50_ms"] = median(o.hits)
	return m
}

// perLayer reduces the traced samples to the per-layer metrics.
func (o *outcome) perLayer() map[string]float64 {
	m := map[string]float64{}
	for k, vs := range o.layers {
		m[k] = median(vs)
	}
	if p := median(o.plainWall); p > 0 {
		m["trace_overhead_pct"] = 100 * (median(o.tracedWall) - p) / p
	}
	return m
}

// report prints the run's metrics and checks and returns its result
// line.
func (o *outcome) report(w io.Writer, cfg runConfig) []byte {
	fmt.Fprintf(w, "== %s  seed %d  %d untraced + %d traced samples, %d fresh and %d repeat requests\n",
		o.name, cfg.seed, len(o.plainWall), len(o.tracedWall), len(o.fresh), len(o.hits))
	e2e := o.endToEnd()
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", d.Name, e2e[d.Name], d.Unit)
	}
	_, q := tail(o.fresh)
	fmt.Fprintf(w, "  (job_p95_ms is the p%.0f of %d fresh requests: the highest percentile with ten beyond it, at most p95)\n", 100*q, len(o.fresh))
	fmt.Fprintf(w, "  wall_s per untraced sample: %.4g\n", o.plainWall)
	vals := e2e
	defs := endToEnd
	if cfg.trace {
		vals = o.perLayer()
		defs = perLayer
		fmt.Fprintf(w, "  per layer (traced samples; spans in %s):\n", cfg.spans)
		for _, d := range perLayer {
			fmt.Fprintf(w, "  %-30s %14.6g %s\n", d.Name, vals[d.Name], d.Unit)
		}
		o.printExtras(w)
	}
	if len(o.digests) > 0 {
		fmt.Fprintf(w, "  digest %s %d %s\n", o.name, cfg.seed, o.digests[0])
	}
	fmt.Fprintf(w, "  operations: %d attempted, %d failed\n", o.Attempted, o.Failed)
	for i, f := range o.Failures {
		if i == 20 {
			fmt.Fprintf(w, "  ... %d more failures\n", len(o.Failures)-20)
			break
		}
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	line, _ := json.Marshal(resultLine{Correct: o.Failed == 0, Attempted: max(1, o.Attempted), Failed: o.Failed,
		Metrics: metricsFor(defs, vals)})
	return line
}

// printExtras prints the diagnostics of layers only this workload
// calls: medians of per-sample values, and median plus tail of pooled
// distributions.
func (o *outcome) printExtras(w io.Writer) {
	var names []string
	for k := range o.extras {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-30s %14.6g\n", k, median(o.extras[k]))
	}
	names = names[:0]
	for k := range o.pools {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		vs := o.pools[k]
		t, q := tail(vs)
		fmt.Fprintf(w, "  %-30s %14.6g   p%.0f %.6g  (n=%d)\n", k+"_p50", median(vs), 100*q, t, len(vs))
	}
}

// printHeader records the conditions a run's numbers depend on.
func printHeader(w io.Writer, root string) {
	commit := "unknown"
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "-C", root, "status", "--porcelain").Output(); err == nil && len(bytes.TrimSpace(st)) > 0 {
			commit += " (dirty)"
		}
	}
	la := loadavg()
	fmt.Fprintf(w, "bench: numcpu %d  GOMAXPROCS %d  %s  commit %s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
	fmt.Fprintf(w, "loadavg at start: %s\n", la)
	var load1 float64
	if _, err := fmt.Sscan(la, &load1); err == nil && load1 > float64(runtime.NumCPU())/2 {
		fmt.Fprintf(w, "WARNING: 1-minute load %.2f exceeds nproc/2 = %.1f; timings will be noisy\n", load1, float64(runtime.NumCPU())/2)
	}
}

// loadavg returns the first three fields of /proc/loadavg.
func loadavg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unavailable"
	}
	f := strings.Fields(string(b))
	return strings.Join(f[:min(3, len(f))], " ")
}
