package exp

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"turnmodel/internal/routing"
	"turnmodel/internal/topology"
	"turnmodel/internal/traffic"
)

// TestSweepMetricsCollection: with metrics enabled, every sweep point
// carries a collector summary whose totals look like a real run, the
// written dump round-trips as JSON, and the measured Results are
// identical to a metrics-free sweep (the determinism invariant at the
// harness level). Every dumped summary must conserve flits and keep its
// channel utilization within [0, 1].
func TestSweepMetricsCollection(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	alg := routing.NewWestFirst(topo)
	pat := traffic.NewUniform(topo)
	loads := []float64{0.5, 1.0}
	base := Options{Seed: 5, Warmup: 500, Measure: 2000}

	plain, err := runSweep(alg, pat, loads, base, make(chan struct{}, base.workers()), nil)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	withM := base
	withM.MetricsDir = dir
	metered, err := runSweep(alg, pat, loads, withM, make(chan struct{}, withM.workers()), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Points {
		if plain.Points[i].Result != metered.Points[i].Result {
			t.Errorf("load %v: metrics perturbed the result", plain.Points[i].Offered)
		}
		m := metered.Points[i].Metrics
		if m == nil {
			t.Fatalf("load %v: no metrics summary", metered.Points[i].Offered)
		}
		if m.Cycles != 2500 || m.DeliveredFlits == 0 || m.Grants == 0 || m.Samples == 0 {
			t.Errorf("load %v: implausible summary %+v", metered.Points[i].Offered, m)
		}
		if plain.Points[i].Metrics != nil {
			t.Error("metrics-free sweep carries a summary")
		}
	}

	if err := writeSweepMetrics(dir, "testsweep", []Sweep{metered}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "testsweep.metrics.json"))
	if err != nil {
		t.Fatal(err)
	}
	var dump SweepMetrics
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	if dump.ID != "testsweep" || len(dump.Series) != 1 || len(dump.Series[0].Points) != len(loads) {
		t.Errorf("dump shape wrong: %+v", dump)
	}
	if dump.SampleIntervalCycles != metricsInterval {
		t.Errorf("dump interval = %d, want %d", dump.SampleIntervalCycles, metricsInterval)
	}
	for _, s := range dump.Series {
		for _, p := range s.Points {
			if m := p.Summary; m.InjectedFlits < m.DeliveredFlits || m.MaxChannelUtilization < 0 || m.MaxChannelUtilization > 1 {
				t.Errorf("%s at load %v: delivered %d of %d injected flits, max channel utilization %v",
					s.Algorithm, p.OfferedLoad, m.DeliveredFlits, m.InjectedFlits, m.MaxChannelUtilization)
			}
		}
	}
}

// TestProgressLines: the tracker emits a final 100% line with the
// configured label, and a nil tracker (progress off) is inert.
func TestProgressLines(t *testing.T) {
	var buf bytes.Buffer
	p := newProgress(Options{Progress: &buf}, "figX", 3)
	for i := 0; i < 3; i++ {
		p.tick()
	}
	out := buf.String()
	if !strings.Contains(out, "figX: 3/3 sims (100%)") {
		t.Errorf("missing final progress line in %q", out)
	}
	var nilP *progress
	nilP.tick() // must not panic
	if p := newProgress(Options{}, "off", 3); p != nil {
		t.Error("progress tracker created without a writer")
	}
}

// TestFigureMetricsCacheSplit: a metrics-enabled figure run must not
// reuse cached metrics-free sweeps (which carry no summaries).
func TestFigureMetricsCacheSplit(t *testing.T) {
	f := Figures[0]
	plain := Options{Quick: true, Seed: 9, Loads: []float64{0.5}, Warmup: 200, Measure: 500}
	metered := plain
	metered.MetricsDir = "metrics"
	if cacheKey(f, plain) == cacheKey(f, metered) {
		t.Error("metrics-enabled and metrics-free runs share a cache key")
	}
}
