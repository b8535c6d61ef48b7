package explore

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/big"
	"os"
	"sort"
	"strconv"
	"strings"

	"turnmodel/internal/adapt"
	"turnmodel/internal/core"
	"turnmodel/internal/exp"
	"turnmodel/internal/routing"
	"turnmodel/internal/topology"
	"turnmodel/internal/traffic"
)

// CampaignLoads is the default offered-load sweep of the campaign, in
// flits/us/node, bracketing every turn set's saturation point on the
// campaign meshes.
var CampaignLoads = []float64{0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0}

// Campaign benchmarks every surviving symmetry-class representative of
// a screening across a workload suite, checkpointing each completed
// figure to a JSONL log keyed by exp.CacheKey. Killing the campaign
// and rerunning it resumes from the log: figures whose records are
// present are skipped, and the final leaderboard — rebuilt from the
// log alone — is byte-identical to an uninterrupted run.
type Campaign struct {
	// Screen is the screening to draw survivors from. Its mesh is also
	// the simulation mesh.
	Screen *Screening
	// Patterns names the workload suite; recognized values are
	// "uniform" and "transpose". Empty means both.
	Patterns []string
	// Opts forwards fidelity and concurrency knobs to the exp sweeps.
	// Opts.Loads empty means CampaignLoads.
	Opts exp.Options
	// LogPath is the JSONL checkpoint log, created if absent and
	// appended to on resume.
	LogPath string
	// OutPath, when non-empty, receives the rendered leaderboard after
	// every figure has a record.
	OutPath string
	// AdaptDims is the mesh for the deterministic adaptivity-degree
	// column (nil means 6x6). It is separate from the simulation mesh:
	// exhaustive path counting is exponential-ish in mesh size.
	AdaptDims []int
	// StopAfter, when positive, cancels the run after that many figures
	// have completed and been logged — the kill half of the
	// kill-and-resume contract, used by tests and demos.
	StopAfter int
	// Verbose, when non-nil, receives one line per completed figure.
	Verbose io.Writer
}

// PointRecord is one load point of a campaign record.
type PointRecord struct {
	// Offered is the applied load in flits/us/node.
	Offered float64 `json:"offered"`
	// Throughput is the measured network throughput in flits/us.
	Throughput float64 `json:"throughput"`
	// AvgLatency and LatencyP99 are message latencies in us.
	AvgLatency float64 `json:"avg_latency"`
	// LatencyP99 is the 99th-percentile message latency in us.
	LatencyP99 float64 `json:"p99"`
	// Sustainable is the paper's bounded-source-queue criterion.
	Sustainable bool `json:"sustainable"`
}

// Record is one completed figure in the campaign log: one turn-set
// representative under one traffic pattern, swept over the offered
// loads.
type Record struct {
	// CacheKey is exp.CacheKey of the figure run — the content address
	// that makes the log a resumable checkpoint.
	CacheKey string `json:"cache_key"`
	// Figure is the figure spec ID, "turnscan/<mesh>/<set>/<pattern>".
	Figure string `json:"figure"`
	// Set is the canonical key of the class, e.g. "0x12".
	Set string `json:"set"`
	// Pattern names the traffic pattern.
	Pattern string `json:"pattern"`
	// Points are the sweep measurements in offered-load order.
	Points []PointRecord `json:"points"`
}

// MaxSustainable returns the record's highest sustainable throughput
// and the p99 latency at that point. Zeros when nothing is
// sustainable.
func (r Record) MaxSustainable() (thr, p99 float64) {
	for _, p := range r.Points {
		if p.Sustainable && p.Throughput > thr {
			thr, p99 = p.Throughput, p.LatencyP99
		}
	}
	return thr, p99
}

func (c *Campaign) patterns() []string {
	if len(c.Patterns) == 0 {
		return []string{"uniform", "transpose"}
	}
	return c.Patterns
}

func patternFor(name string) (func(*topology.Topology) traffic.Pattern, error) {
	switch name {
	case "uniform":
		return func(t *topology.Topology) traffic.Pattern { return traffic.NewUniform(t) }, nil
	case "transpose":
		return func(t *topology.Topology) traffic.Pattern { return traffic.NewMeshTranspose(t) }, nil
	}
	return nil, fmt.Errorf("explore: unknown pattern %q (want uniform or transpose)", name)
}

func dimsLabel(dims []int) string {
	parts := make([]string, len(dims))
	for i, d := range dims {
		parts[i] = strconv.Itoa(d)
	}
	return strings.Join(parts, "x")
}

// specs builds one figure per (survivor, pattern), in deterministic
// order: survivors by canonical key, patterns in suite order.
func (c *Campaign) specs() ([]exp.FigureSpec, error) {
	mesh := dimsLabel(c.Screen.Dims)
	dims := append([]int(nil), c.Screen.Dims...)
	var out []exp.FigureSpec
	for _, cl := range c.Screen.Survivors() {
		canon := cl.Canon
		for _, pat := range c.patterns() {
			mk, err := patternFor(pat)
			if err != nil {
				return nil, err
			}
			out = append(out, exp.FigureSpec{
				ID:    fmt.Sprintf("turnscan/%s/0x%02x/%s", mesh, canon, pat),
				Title: fmt.Sprintf("turn set 0x%02x under %s traffic on a %s mesh", canon, pat, mesh),
				Topology: func() *topology.Topology {
					return topology.NewMesh(dims...)
				},
				Pattern: mk,
				Algs: func(t *topology.Topology) []routing.Algorithm {
					return []routing.Algorithm{
						routing.NewTurnGraphRouting(t, core.SetFromKey2D(canon), true),
					}
				},
				Loads: CampaignLoads,
			})
		}
	}
	return out, nil
}

// loadLog parses the checkpoint log into records keyed by cache key.
// A missing file is an empty checkpoint; a torn final line (the
// process died mid-write) is skipped, re-running that figure.
func loadLog(path string) (map[string]Record, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return map[string]Record{}, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]Record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r Record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			continue // torn write from a killed run
		}
		out[r.CacheKey] = r
	}
	return out, sc.Err()
}

// openLog opens the checkpoint log for appending, creating it when
// missing. If the file does not end in a newline (the previous run died
// mid-write), a newline is appended first, so the torn tail stays an
// isolated line that loadLog skips instead of swallowing the next
// record.
func openLog(path string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err == nil && st.Size() > 0 {
		tail := make([]byte, 1)
		if _, err = f.ReadAt(tail, st.Size()-1); err == nil && tail[0] != '\n' {
			_, err = f.Write([]byte{'\n'})
		}
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// record flattens a completed figure's sweeps (always a single
// algorithm line) into a log record.
func record(key string, f exp.FigureSpec, sweeps []exp.Sweep) Record {
	parts := strings.Split(f.ID, "/")
	r := Record{CacheKey: key, Figure: f.ID, Set: parts[2], Pattern: parts[3]}
	for _, p := range sweeps[0].Points {
		r.Points = append(r.Points, PointRecord{
			Offered:     p.Offered,
			Throughput:  p.Result.Throughput,
			AvgLatency:  p.Result.AvgLatency,
			LatencyP99:  p.Result.LatencyP99,
			Sustainable: p.Result.Sustainable,
		})
	}
	return r
}

// Run executes the campaign: self-check, resume from the log, sweep
// the missing figures, and (when every figure has a record) render the
// leaderboard. A run canceled by Opts.Cancel or StopAfter returns
// exp.ErrCanceled after checkpointing everything that completed.
func (c *Campaign) Run() error {
	if err := c.Screen.SelfCheck(); err != nil {
		return err
	}
	specs, err := c.specs()
	if err != nil {
		return err
	}
	o := c.Opts
	if len(o.Loads) == 0 {
		o.Loads = CampaignLoads
	}
	done, err := loadLog(c.LogPath)
	if err != nil {
		return err
	}
	var todo []exp.FigureSpec
	for _, f := range specs {
		if _, ok := done[exp.CacheKey(f, o)]; !ok {
			todo = append(todo, f)
		}
	}
	if c.Verbose != nil {
		fmt.Fprintf(c.Verbose, "turnscan: %d figures (%d checkpointed, %d to run)\n",
			len(specs), len(specs)-len(todo), len(todo))
	}
	if len(todo) > 0 {
		logf, err := openLog(c.LogPath)
		if err != nil {
			return err
		}
		defer logf.Close() // error paths; the success path checks Close below
		stop := make(chan struct{})
		o.Cancel = mergeCancel(c.Opts.Cancel, stop)
		completed := 0
		stopped := false
		var writeErr error
		runErr := exp.RunFigureSet(todo, o, func(f exp.FigureSpec, sweeps []exp.Sweep) {
			r := record(exp.CacheKey(f, o), f, sweeps)
			b, err := json.Marshal(r)
			if err != nil {
				panic(fmt.Sprintf("explore: record not serializable: %v", err))
			}
			if _, err := logf.Write(append(b, '\n')); err != nil && writeErr == nil {
				// A figure that cannot be checkpointed would be lost to the
				// next resume: stop the campaign and report it.
				writeErr = fmt.Errorf("explore: checkpoint write failed: %w", err)
				if !stopped {
					stopped = true
					close(stop)
				}
			}
			done[r.CacheKey] = r
			completed++
			if c.Verbose != nil {
				fmt.Fprintf(c.Verbose, "turnscan: %s done (%d/%d)\n", f.ID, len(specs)-len(todo)+completed, len(specs))
			}
			if c.StopAfter > 0 && completed >= c.StopAfter && !stopped {
				stopped = true
				close(stop)
			}
		})
		if err := logf.Close(); err != nil && writeErr == nil {
			writeErr = fmt.Errorf("explore: closing checkpoint log: %w", err)
		}
		if writeErr != nil {
			return writeErr
		}
		if runErr != nil {
			return runErr
		}
	}
	for _, f := range specs {
		if _, ok := done[exp.CacheKey(f, o)]; !ok {
			return fmt.Errorf("explore: figure %s completed without a checkpoint record", f.ID)
		}
	}
	if c.OutPath != "" {
		var buf strings.Builder
		if err := c.WriteLeaderboard(&buf, done, o); err != nil {
			return err
		}
		return os.WriteFile(c.OutPath, []byte(buf.String()), 0o644)
	}
	return nil
}

// mergeCancel returns a channel closed when either input closes.
func mergeCancel(a, b <-chan struct{}) <-chan struct{} {
	if a == nil {
		return b
	}
	out := make(chan struct{})
	go func() {
		select {
		case <-a:
		case <-b:
		}
		close(out)
	}()
	return out
}

// adaptivity computes the deterministic adaptivity-degree column: the
// mean ratio of the set's minimal shortest-path count to the fully
// adaptive count over all pairs of a small mesh.
func (c *Campaign) adaptivity(canon uint16) adapt.RatioStats {
	dims := c.AdaptDims
	if len(dims) == 0 {
		dims = []int{6, 6}
	}
	t := topology.NewMesh(dims...)
	alg := routing.NewTurnGraphRouting(t, core.SetFromKey2D(canon), true)
	return adapt.AverageRatio(t, func(src, dst topology.NodeID) *big.Int {
		return adapt.CountShortestPaths(alg, src, dst)
	})
}

// lbRow is one leaderboard line: a survivor class with its per-pattern
// saturation figures.
type lbRow struct {
	class Class
	adapt adapt.RatioStats
	// thr and p99 are indexed like the pattern suite.
	thr, p99 []float64
	total    float64
}

// WriteLeaderboard renders the ranked leaderboard from checkpoint
// records. It is a pure function of the records, the screening and the
// options, so every resume of the same campaign renders byte-identical
// output.
func (c *Campaign) WriteLeaderboard(w io.Writer, done map[string]Record, o exp.Options) error {
	specs, err := c.specs()
	if err != nil {
		return err
	}
	recOf := map[string]Record{} // figure ID -> record
	for _, f := range specs {
		r, ok := done[exp.CacheKey(f, o)]
		if !ok {
			return fmt.Errorf("explore: no checkpoint record for %s", f.ID)
		}
		recOf[f.ID] = r
	}
	pats := c.patterns()
	mesh := dimsLabel(c.Screen.Dims)
	var rows []lbRow
	for _, cl := range c.Screen.Survivors() {
		row := lbRow{class: cl, adapt: c.adaptivity(cl.Canon)}
		for _, pat := range pats {
			r := recOf[fmt.Sprintf("turnscan/%s/0x%02x/%s", mesh, cl.Canon, pat)]
			thr, p99 := r.MaxSustainable()
			row.thr = append(row.thr, thr)
			row.p99 = append(row.p99, p99)
			row.total += thr
		}
		rows = append(rows, row)
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].total != rows[j].total {
			return rows[i].total > rows[j].total
		}
		return rows[i].class.Canon < rows[j].class.Canon
	})

	cnt := c.Screen.Counts()
	fmt.Fprintf(w, "# turnscan: exhaustive 2D turn-set exploration\n\n")
	fmt.Fprintf(w, "Mesh %s, seed %d, quick=%v, loads %v (flits/us/node).\n\n", mesh, o.Seed, o.Quick, o.Loads)
	fmt.Fprintf(w, "Screening: %d turn sets fold into %d symmetry classes; %d deadlock-free sets\n",
		cnt.Sets, cnt.Classes, cnt.FreeSets)
	fmt.Fprintf(w, "fold into %d classes (%.1fx symmetry dedup); %d of those are connected under\n",
		cnt.FreeClasses, cnt.DedupRatio(), cnt.Survivors)
	fmt.Fprintf(w, "the minimal relation and were simulated.\n\n")
	fmt.Fprintf(w, "Self-check: 12 of the 16 one-turn-per-cycle prohibitions are deadlock free,\n")
	fmt.Fprintf(w, "folding into 3 classes (west-first, north-last, negative-first) — matches the paper.\n\n")
	fmt.Fprintf(w, "Throughput is the highest sustainable measured throughput (flits/us); p99 is\n")
	fmt.Fprintf(w, "the 99th-percentile message latency (us) at that point. Adaptivity is the mean\n")
	fmt.Fprintf(w, "S_p/S_f shortest-path ratio on a %s mesh.\n\n", dimsLabel(func() []int {
		if len(c.AdaptDims) > 0 {
			return c.AdaptDims
		}
		return []int{6, 6}
	}()))
	fmt.Fprintf(w, "| rank | set | family | class size | turns allowed | adaptivity |")
	for _, pat := range pats {
		fmt.Fprintf(w, " %s thr | %s p99 |", pat, pat)
	}
	fmt.Fprintf(w, "\n|---|---|---|---|---|---|")
	for range pats {
		fmt.Fprintf(w, "---|---|")
	}
	fmt.Fprintf(w, "\n")
	for i, row := range rows {
		name := row.class.Name
		if name == "" {
			name = "-"
		}
		fmt.Fprintf(w, "| %d | 0x%02x | %s | %d | %d | %.3f |",
			i+1, row.class.Canon, name, len(row.class.Members),
			core.SetFromKey2D(row.class.Canon).NumAllowed(), row.adapt.MeanRatio)
		for k := range pats {
			fmt.Fprintf(w, " %.3f | %.2f |", row.thr[k], row.p99[k])
		}
		fmt.Fprintf(w, "\n")
	}
	fmt.Fprintf(w, "\nEvery raw set maps to its class representative via the witness table\n")
	fmt.Fprintf(w, "(core.CanonicalKey2D); a symmetric workload's figures for any raw set are the\n")
	fmt.Fprintf(w, "representative's figures. The JSONL log next to this file is the campaign's\n")
	fmt.Fprintf(w, "checkpoint: rerunning turnscan resumes from it and reproduces this file\n")
	fmt.Fprintf(w, "byte for byte.\n")
	return nil
}
