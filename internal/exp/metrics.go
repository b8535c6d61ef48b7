package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"turnmodel/internal/metrics"
)

// metricsInterval is the experiment collectors' time-series sampling
// cadence in cycles. No exp output reads the series itself; the cadence
// shows only as each summary's sample count and the dump's echo.
const metricsInterval = 1000

// progress reports completed simulations, for long sweeps run
// interactively (throttled ETA lines on Options.Progress) or embedded
// in a service (one Options.OnProgress event per leaf). A nil
// *progress is inert, so callers thread it through unconditionally.
type progress struct {
	mu    sync.Mutex
	w     io.Writer
	cb    func(ProgressEvent)
	label string
	total int
	done  int
	start time.Time
	last  time.Time
}

// newProgress returns a tracker feeding o.Progress and o.OnProgress,
// or nil when progress reporting is off.
func newProgress(o Options, label string, total int) *progress {
	if (o.Progress == nil && o.OnProgress == nil) || total == 0 {
		return nil
	}
	now := time.Now()
	return &progress{w: o.Progress, cb: o.OnProgress, label: label, total: total, start: now, last: now}
}

// tick records one completed simulation: every tick reaches the
// structured callback, while writer lines carry elapsed time and a
// linear-extrapolation ETA and are throttled to one per second (the
// final tick always prints).
func (p *progress) tick() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done++
	if p.cb != nil {
		p.cb(ProgressEvent{Label: p.label, Done: p.done, Total: p.total})
	}
	if p.w == nil {
		return
	}
	now := time.Now()
	if p.done < p.total && now.Sub(p.last) < time.Second {
		return
	}
	p.last = now
	elapsed := now.Sub(p.start)
	line := fmt.Sprintf("%s: %d/%d sims (%d%%) in %v", p.label, p.done, p.total,
		100*p.done/p.total, elapsed.Round(time.Second))
	if p.done < p.total && p.done > 0 {
		eta := time.Duration(float64(elapsed) / float64(p.done) * float64(p.total-p.done))
		line += fmt.Sprintf(", eta %v", eta.Round(time.Second))
	}
	fmt.Fprintln(p.w, line)
}

// SweepMetrics is the machine-readable per-figure metric dump: one
// summary block per (algorithm, offered load) simulation.
type SweepMetrics struct {
	// ID names the figure the dump belongs to.
	ID string `json:"id"`
	// SampleIntervalCycles echoes the collectors' sampling cadence.
	SampleIntervalCycles int64 `json:"sample_interval_cycles"`
	// Series holds one entry per algorithm curve.
	Series []SeriesMetrics `json:"series"`
}

// SeriesMetrics is one algorithm's metric summaries across the sweep.
type SeriesMetrics struct {
	// Algorithm names the routing algorithm.
	Algorithm string `json:"algorithm"`
	// Points holds one summary per offered-load simulation.
	Points []PointMetrics `json:"points"`
}

// PointMetrics pairs an offered load with its run's metric summary.
type PointMetrics struct {
	// OfferedLoad is in flits/us/node.
	OfferedLoad float64 `json:"offered_load_flits_per_us_per_node"`
	// Summary is the collector's network-wide totals for the run.
	Summary metrics.Summary `json:"summary"`
}

// buildSweepMetrics assembles the dump from sweeps whose points carry
// collector summaries; points without metrics are skipped.
func buildSweepMetrics(id string, sweeps []Sweep) SweepMetrics {
	out := SweepMetrics{ID: id, SampleIntervalCycles: metricsInterval}
	for _, s := range sweeps {
		sm := SeriesMetrics{Algorithm: s.Algorithm}
		for _, p := range s.Points {
			if p.Metrics == nil {
				continue
			}
			sm.Points = append(sm.Points, PointMetrics{OfferedLoad: p.Offered, Summary: *p.Metrics})
		}
		out.Series = append(out.Series, sm)
	}
	return out
}

// writeSweepMetrics writes the per-figure metric dump as
// <dir>/<id>.metrics.json, creating dir if needed.
func writeSweepMetrics(dir, id string, sweeps []Sweep) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, id+".metrics.json"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(buildSweepMetrics(id, sweeps)); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
