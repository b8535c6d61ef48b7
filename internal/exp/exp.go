// Package exp defines the reproduction experiments: one entry per figure
// and table of the paper, each regenerating the corresponding rows or
// series. The cmd/experiments binary and the repository benchmarks are
// thin wrappers over this package.
package exp

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"sort"
	"sync"

	"turnmodel/internal/metrics"
	"turnmodel/internal/routing"
	"turnmodel/internal/sim"
	"turnmodel/internal/stats"
	"turnmodel/internal/topology"
	"turnmodel/internal/traffic"
)

// Options tune experiment fidelity.
type Options struct {
	// Quick trades fidelity for speed: shorter simulations and coarser
	// load sweeps. Used by tests and benchmarks.
	Quick bool
	// Seed makes the stochastic experiments reproducible.
	Seed int64
	// Loads overrides the sweep's offered loads (flits/us/node).
	Loads []float64
	// Warmup and Measure override the simulation window in cycles.
	Warmup, Measure int64
	// Workers bounds the simulations run concurrently across figures,
	// algorithm lines and load points (0 means GOMAXPROCS). Results are
	// bit-identical for any value: every simulation has its own seeded
	// generator and lands in a preassigned slot. Leaves are the only
	// unit of parallelism: each simulation runs serially on one
	// goroutine.
	Workers int
	// MetricsDir, when set, attaches a metrics collector to every
	// simulation and writes a per-figure summary dump
	// (<dir>/<id>.metrics.json) next to each figure run. Attaching
	// collectors never changes results.
	MetricsDir string
	// Progress, when non-nil, receives progress/ETA lines as sweep
	// simulations complete (typically os.Stderr for long runs).
	Progress io.Writer
	// OnProgress, when non-nil, is called once per completed leaf
	// simulation with the enclosing sweep's cumulative progress. It is
	// the structured form of Progress for embedding callers — the
	// turnserver streams these events to HTTP clients. Leaves complete
	// on worker goroutines, so the callback must be safe for concurrent
	// use; it is never called for cached sweeps (a cache hit runs no
	// leaves).
	OnProgress func(ProgressEvent)
	// Context, when non-nil, stops the run once it is done (canceled or
	// past its deadline): leaves not yet started are skipped, in-flight
	// simulations stop at their next poll (sim.Config.Stop), and the
	// entry points return the context's error. A stopped run is never
	// cached.
	Context context.Context
}

// ProgressEvent reports one completed leaf simulation to
// Options.OnProgress. Done counts completed leaves of the Total in the
// sweep unit named by Label (a figure ID or algorithm name).
type ProgressEvent struct {
	Label string `json:"label"`
	Done  int    `json:"done"`
	Total int    `json:"total"`
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) warmup() int64 {
	if o.Warmup > 0 {
		return o.Warmup
	}
	if o.Quick {
		return 2000
	}
	return 10000
}

func (o Options) measure() int64 {
	if o.Measure > 0 {
		return o.Measure
	}
	if o.Quick {
		return 8000
	}
	return 40000
}

func (o Options) loads(full []float64) []float64 {
	if len(o.Loads) > 0 {
		return o.Loads
	}
	if !o.Quick {
		return full
	}
	// Quick mode: every third point plus the last.
	var q []float64
	for i := 0; i < len(full); i += 3 {
		q = append(q, full[i])
	}
	if q[len(q)-1] != full[len(full)-1] {
		q = append(q, full[len(full)-1])
	}
	return q
}

// Experiment reproduces one figure or table.
type Experiment struct {
	// ID is the index key, e.g. "fig14" or "pcube10".
	ID string
	// Title describes the paper artifact.
	Title string
	// Run writes the regenerated rows/series to w.
	Run func(o Options, w io.Writer) error
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// paperOrder fixes the presentation order: the paper's artifacts first,
// section by section, then the extensions. Experiments not listed sort
// after, in registration order.
var paperOrder = []string{
	"intro",
	"fig1", "fig2", "fig3", "fig4",
	"fig5", "thm2", "fig9", "thm3", "fig10",
	"thm1", "thm5", "turnpairs", "adapt",
	"torus", "pcube10",
	"pathlen", "fig13", "fig14", "fig15", "fig16", "fig13c", "claims",
	"analytic", "hotspot", "faults", "degrade", "fully", "tornado", "mesh3d", "mesh3dc", "hex", "sens14",
}

// All returns every experiment in paper order.
func All() []Experiment {
	rank := make(map[string]int, len(paperOrder))
	for i, id := range paperOrder {
		rank[id] = i
	}
	out := append([]Experiment(nil), registry...)
	sort.SliceStable(out, func(i, j int) bool {
		ri, iok := rank[out[i].ID]
		rj, jok := rank[out[j].ID]
		switch {
		case iok && jok:
			return ri < rj
		case iok:
			return true
		case jok:
			return false
		default:
			return false
		}
	})
	return out
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// SweepPoint is one offered-load measurement of a latency/throughput
// curve.
type SweepPoint struct {
	Offered float64
	Result  sim.Result
	// Metrics is the run's collector summary, present only when the
	// sweep ran with Options metrics enabled.
	Metrics *metrics.Summary
}

// Sweep is one algorithm's curve in a figure.
type Sweep struct {
	Algorithm string
	Points    []SweepPoint
}

// MaxSustainable returns the highest measured throughput among
// sustainable points, the paper's "maximum sustainable throughput", and
// the offered load it occurred at. It returns zeros when no point is
// sustainable.
func (s Sweep) MaxSustainable() (thr, load float64) {
	for _, p := range s.Points {
		if p.Result.Sustainable && p.Result.Throughput > thr {
			thr, load = p.Result.Throughput, p.Offered
		}
	}
	return thr, load
}

// runSweep measures one curve with concurrency bounded by sem. The
// semaphore is acquired only around each leaf simulation — never by a
// goroutine that waits on other goroutines — so a single semaphore can
// be shared across nested figure/algorithm/load fan-out without
// deadlock.
func runSweep(alg routing.Algorithm, pat traffic.Pattern, loads []float64, o Options, sem chan struct{}, prog *progress) (Sweep, error) {
	s := Sweep{Algorithm: alg.Name(), Points: make([]SweepPoint, len(loads))}
	ctx := o.Context
	if ctx == nil {
		ctx = context.Background()
	}
	stop := func() bool { return ctx.Err() != nil }
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for i, load := range loads {
		wg.Add(1)
		go func(i int, load float64) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if err := ctx.Err(); err != nil {
				// Leaves not yet started are skipped outright; the slot
				// frees immediately for whoever shares the semaphore.
				mu.Lock()
				defer mu.Unlock()
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			cfg := sim.Config{
				Algorithm:     alg,
				Pattern:       pat,
				OfferedLoad:   load,
				WarmupCycles:  o.warmup(),
				MeasureCycles: o.measure(),
				Seed:          o.Seed + int64(load*1000),
				Stop:          stop,
			}
			// One collector per simulation: collectors are not safe to
			// share across concurrent runs, and attaching them never
			// changes results.
			var m *metrics.Collector
			if o.MetricsDir != "" {
				m = metrics.New(metrics.Config{Interval: metricsInterval})
				cfg.Metrics = m
			}
			r, err := sim.Run(cfg)
			if err == nil && r.Stopped {
				// An in-flight simulation stopped by the context: its
				// partial measurements must never land in the cache.
				err = ctx.Err()
			} else {
				prog.tick()
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil && firstErr == nil {
				firstErr = err
			}
			s.Points[i] = SweepPoint{Offered: load, Result: r}
			if m != nil && err == nil {
				sum := m.Summarize()
				s.Points[i].Metrics = &sum
			}
		}(i, load)
	}
	wg.Wait()
	return s, firstErr
}

// FigureSpec describes one simulation figure: a topology, traffic
// pattern, algorithm set and load range.
type FigureSpec struct {
	ID, Title string
	Topology  func() *topology.Topology
	Pattern   func(*topology.Topology) traffic.Pattern
	Algs      func(*topology.Topology) []routing.Algorithm
	Loads     []float64
}

// MeshLoads and cubeLoads are the full sweep ranges, in flits/us/node,
// bracketing every algorithm's saturation point.
var MeshLoads = []float64{0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.25, 2.5, 2.75, 3.0}
var cubeLoads = []float64{0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 5.0, 6.0, 7.0, 8.0, 10.0, 12.0}

func meshAlgs(t *topology.Topology) []routing.Algorithm {
	return []routing.Algorithm{
		routing.NewDimensionOrder(t),
		routing.NewWestFirst(t),
		routing.NewNorthLast(t),
		routing.NewNegativeFirst(t),
	}
}

func cubeAlgs(t *topology.Topology) []routing.Algorithm {
	return []routing.Algorithm{
		routing.NewDimensionOrder(t),       // e-cube
		routing.NewABONF(t, t.NumDims()-1), // all-but-one-negative-first
		routing.NewABOPL(t, 0),             // all-but-one-positive-last
		routing.NewNegativeFirst(t),        // p-cube
	}
}

// Figures lists the four simulation figures of Section 6 plus the
// hypercube uniform-traffic companion the section's text discusses.
var Figures = []FigureSpec{
	{
		ID: "fig13", Title: "Figure 13: uniform traffic in a 16x16 mesh",
		Topology: func() *topology.Topology { return topology.NewMesh(16, 16) },
		Pattern:  func(t *topology.Topology) traffic.Pattern { return traffic.NewUniform(t) },
		Algs:     meshAlgs, Loads: MeshLoads,
	},
	{
		ID: "fig14", Title: "Figure 14: matrix-transpose traffic in a 16x16 mesh",
		Topology: func() *topology.Topology { return topology.NewMesh(16, 16) },
		Pattern:  func(t *topology.Topology) traffic.Pattern { return traffic.NewMeshTranspose(t) },
		Algs:     meshAlgs, Loads: MeshLoads,
	},
	{
		ID: "fig15", Title: "Figure 15: matrix-transpose traffic in an 8-cube",
		Topology: func() *topology.Topology { return topology.NewHypercube(8) },
		Pattern:  func(t *topology.Topology) traffic.Pattern { return traffic.NewHypercubeTranspose(t) },
		Algs:     cubeAlgs, Loads: cubeLoads,
	},
	{
		ID: "fig16", Title: "Figure 16: reverse-flip traffic in an 8-cube",
		Topology: func() *topology.Topology { return topology.NewHypercube(8) },
		Pattern:  func(t *topology.Topology) traffic.Pattern { return traffic.NewReverseFlip(t) },
		Algs:     cubeAlgs, Loads: cubeLoads,
	},
	{
		ID: "fig13c", Title: "Section 6 (text): uniform traffic in an 8-cube",
		Topology: func() *topology.Topology { return topology.NewHypercube(8) },
		Pattern:  func(t *topology.Topology) traffic.Pattern { return traffic.NewUniform(t) },
		Algs:     cubeAlgs, Loads: cubeLoads,
	},
	{
		ID: "mesh3d", Title: "Extension ([19]'s study): uniform traffic in an 8x8x4 mesh",
		Topology: func() *topology.Topology { return topology.NewMesh(8, 8, 4) },
		Pattern:  func(t *topology.Topology) traffic.Pattern { return traffic.NewUniform(t) },
		Algs:     mesh3dAlgs, Loads: mesh3dLoads,
	},
	{
		ID: "mesh3dc", Title: "Extension ([19]'s study): bit-complement traffic in an 8x8x4 mesh",
		Topology: func() *topology.Topology { return topology.NewMesh(8, 8, 4) },
		Pattern:  func(t *topology.Topology) traffic.Pattern { return traffic.NewBitComplement(t) },
		Algs:     mesh3dAlgs, Loads: mesh3dLoads,
	},
}

// mesh3dLoads spans the 3D mesh's saturation range.
var mesh3dLoads = []float64{0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0}

func mesh3dAlgs(t *topology.Topology) []routing.Algorithm {
	return []routing.Algorithm{
		routing.NewDimensionOrder(t),
		routing.NewNegativeFirst(t),
		routing.NewABONF(t, t.NumDims()-1),
		routing.NewABOPL(t, 0),
	}
}

// FigureByID finds a simulation figure spec.
func FigureByID(id string) (FigureSpec, bool) {
	for _, f := range Figures {
		if f.ID == id {
			return f, true
		}
	}
	return FigureSpec{}, false
}

// figure sweep results are cached per (figure, seed, quick) within a
// process, so the claims experiment can reuse the figure runs.
var (
	sweepMu    sync.Mutex
	sweepCache = map[string][]Sweep{}
)

// cacheNeutralOptionFields lists the Options fields that can never
// change a figure's cached sweep content: concurrency knobs and
// side-channel hooks. Every other field is serialized into the cache
// key automatically by reflection, so adding a result-affecting
// Options field (fault knobs, new sweep parameters) can never silently
// alias cache entries — the new field is keyed the moment it exists.
// TestCacheKeyCoversOptions fails if this list drifts from the struct.
var cacheNeutralOptionFields = map[string]string{
	"Workers":    "results are bit-identical for any worker count",
	"Progress":   "stderr progress lines never affect results",
	"OnProgress": "structured progress callbacks never affect results",
	"Context":    "stopped runs return the context's error and are never cached",
}

// cacheKey canonically serializes the figure identity plus every
// result-affecting option into the sweep cache's key. Fields marshal
// as a JSON object with sorted keys, so the key is canonical; neutral
// fields (cacheNeutralOptionFields) are skipped. MetricsDir IS present,
// as its enabled-ness only: cached sweeps run without collectors carry
// no summaries, so a metrics-enabled request must not reuse them (and
// vice versa), but the path dumps land at changes no result.
func cacheKey(f FigureSpec, o Options) string {
	fields := map[string]any{"figure": f.ID}
	v := reflect.ValueOf(o)
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		if _, neutral := cacheNeutralOptionFields[name]; neutral {
			continue
		}
		val := v.Field(i).Interface()
		if name == "MetricsDir" {
			val = o.MetricsDir != ""
		}
		fields["opt:"+name] = val
	}
	b, err := json.Marshal(fields)
	if err != nil {
		// Every keyed field must serialize; a new unserializable field
		// must either be listed cache-neutral or made marshalable.
		panic(fmt.Sprintf("exp: cache key not serializable: %v", err))
	}
	return string(b)
}

// CacheKey returns the canonical content address of a figure run: two
// (figure, Options) pairs share a key exactly when RunFigure would
// serve them from the same cache entry. The turnserver uses it to
// content-address jobs, so identical submissions collapse onto one job
// and one cached result.
func CacheKey(f FigureSpec, o Options) string { return cacheKey(f, o) }

// RunFigure runs (or returns cached) sweeps for a figure spec. With
// Options.MetricsDir set it also writes the figure's metric dump
// (<dir>/<id>.metrics.json), whether the sweeps were cached or fresh.
func RunFigure(f FigureSpec, o Options) ([]Sweep, error) {
	key := cacheKey(f, o)
	sweepMu.Lock()
	s, cached := sweepCache[key]
	sweepMu.Unlock()
	if !cached {
		var err error
		s, err = runFigure(f, o, make(chan struct{}, o.workers()))
		if err != nil {
			return nil, err
		}
		sweepMu.Lock()
		sweepCache[key] = s
		sweepMu.Unlock()
	}
	if o.MetricsDir != "" {
		if err := writeSweepMetrics(o.MetricsDir, f.ID, s); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// runFigure measures every algorithm line of a figure, uncached. The
// lines run in parallel, each fanning out over its load points; sem
// bounds the total number of concurrent simulations. Topology and
// relations come from the cross-leaf compile cache (sharecache.go):
// figure leaves never mutate the fault set, so every sweep of the same
// figure — and every figure sharing a topology — reuses one topology
// instance and one compiled route table per relation.
func runFigure(f FigureSpec, o Options, sem chan struct{}) ([]Sweep, error) {
	t := SharedTopology(f.Topology)
	pat := f.Pattern(t)
	loads := o.loads(f.Loads)
	algs := SharedAlgorithms(t, f.Algs(t))
	prog := newProgress(o, f.ID, len(algs)*len(loads))
	sweeps := make([]Sweep, len(algs))
	errs := make([]error, len(algs))
	var wg sync.WaitGroup
	for i, alg := range algs {
		wg.Add(1)
		go func(i int, alg routing.Algorithm) {
			defer wg.Done()
			sweeps[i], errs[i] = runSweep(alg, pat, loads, o, sem, prog)
		}(i, alg)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return sweeps, nil
}

// WriteFigure renders a figure's series in the paper's axes: average
// latency (us) against measured throughput (flits/us), one series per
// algorithm, followed by the maximum sustainable throughput summary.
func WriteFigure(w io.Writer, f FigureSpec, sweeps []Sweep) {
	fmt.Fprintf(w, "%s\n", f.Title)
	fmt.Fprintf(w, "(series: measured throughput in flits/us vs average latency in us;\n")
	fmt.Fprintf(w, " S marks points sustainable under the bounded-source-queue criterion)\n\n")
	for _, s := range sweeps {
		fmt.Fprintf(w, "  %s:\n", s.Algorithm)
		tbl := stats.NewTable("offered(flits/us/node)", "throughput(flits/us)", "latency(us)", "net-latency(us)", "hops", "sustainable")
		for _, p := range s.Points {
			sus := "S"
			if !p.Result.Sustainable {
				sus = "-"
			}
			tbl.AddRow(p.Offered, p.Result.Throughput, p.Result.AvgLatency, p.Result.AvgNetLatency, p.Result.AvgHops, sus)
		}
		for _, line := range splitLines(tbl.String()) {
			fmt.Fprintf(w, "    %s\n", line)
		}
	}
	// The paper's figure form: latency (y) against measured throughput
	// (x), one marker per algorithm.
	plot := stats.NewPlot("throughput (flits/us)", "avg latency (us)")
	for _, s := range sweeps {
		var xs, ys []float64
		for _, pt := range s.Points {
			if pt.Result.PacketsDelivered == 0 {
				continue
			}
			xs = append(xs, pt.Result.Throughput)
			ys = append(ys, pt.Result.AvgLatency)
		}
		plot.Add(s.Algorithm, xs, ys, 0)
	}
	for _, line := range splitLines(plot.String()) {
		fmt.Fprintf(w, "  %s\n", line)
	}
	fmt.Fprintf(w, "  maximum sustainable throughput:\n")
	type maxRow struct {
		alg  string
		thr  float64
		load float64
	}
	var rows []maxRow
	for _, s := range sweeps {
		thr, load := s.MaxSustainable()
		rows = append(rows, maxRow{s.Algorithm, thr, load})
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].thr > rows[j].thr })
	tbl := stats.NewTable("algorithm", "max sustainable (flits/us)", "at offered load")
	for _, r := range rows {
		tbl.AddRow(r.alg, r.thr, r.load)
	}
	for _, line := range splitLines(tbl.String()) {
		fmt.Fprintf(w, "    %s\n", line)
	}
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// FigureExperiment is the experiment that runs (or takes from the
// cache) and renders the simulation figure f.
func FigureExperiment(f FigureSpec) Experiment {
	return Experiment{
		ID:    f.ID,
		Title: f.Title,
		Run: func(o Options, w io.Writer) error {
			sweeps, err := RunFigure(f, o)
			if err != nil {
				return err
			}
			WriteFigure(w, f, sweeps)
			return nil
		},
	}
}

func init() {
	for _, f := range Figures {
		register(FigureExperiment(f))
	}
}
