package exp

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"turnmodel/internal/core"
	"turnmodel/internal/deadlock"
	"turnmodel/internal/routing"
	"turnmodel/internal/sim"
	"turnmodel/internal/topology"
	"turnmodel/internal/traffic"
)

// TestRegistryComplete: every figure and table of the paper has an
// experiment.
func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig9", "fig10",
		"thm1", "thm2", "thm3", "thm5",
		"turnpairs", "adapt", "pcube10", "pathlen", "claims",
		"fig13", "fig14", "fig15", "fig16", "fig13c",
		"intro", "hotspot", "torus", "faults", "analytic", "fully",
		"mesh3d", "mesh3dc", "hex", "tornado", "sens14",
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
	seen := map[string]bool{}
	for _, e := range All() {
		if seen[e.ID] {
			t.Errorf("duplicate experiment ID %q", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete", e.ID)
		}
	}
	if _, ok := ByID("nonsense"); ok {
		t.Error("ByID should miss unknown IDs")
	}
}

// TestModelExperimentsRun: every non-simulation experiment runs cleanly
// and produces output. These are the exact paper-artifact checks (they
// fail internally if a reproduced number is off).
func TestModelExperimentsRun(t *testing.T) {
	ids := []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig9", "fig10",
		"thm1", "thm2", "thm3", "thm5", "turnpairs", "pcube10", "pathlen"}
	for _, id := range ids {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		var buf bytes.Buffer
		if err := e.Run(Options{Seed: 1}, &buf); err != nil {
			t.Errorf("%s: %v", id, err)
		}
		if buf.Len() == 0 {
			t.Errorf("%s produced no output", id)
		}
	}
}

// TestAdaptExperiment runs the Section 3.4 experiment (slower: full
// 16x16 ratio averages).
func TestAdaptExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	e, _ := ByID("adapt")
	var buf bytes.Buffer
	if err := e.Run(Options{}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "S_p/S_f") {
		t.Error("missing ratio table")
	}
}

// TestSymmetryClasses: the 12 deadlock-free one-turn-per-cycle sets fall
// into exactly 3 classes under the symmetries of the square (west-first,
// north-last and negative-first families).
func TestSymmetryClasses(t *testing.T) {
	var free []*core.Set
	for _, set := range core.OneTurnPerCyclePairs2D() {
		p := set.Prohibited()
		if p[0].From == p[1].To && p[0].To == p[1].From {
			continue // the four deadlocking reverse pairs
		}
		free = append(free, set)
	}
	if len(free) != 12 {
		t.Fatalf("%d deadlock-free pairs, want 12", len(free))
	}
	if got := SymmetryClasses2D(free); got != 3 {
		t.Errorf("%d symmetry classes, want 3", got)
	}
	// The canonical three algorithms land in distinct classes.
	named := []*core.Set{core.WestFirstSet(), core.NorthLastSet(), core.NegativeFirstSet(2)}
	if got := SymmetryClasses2D(named); got != 3 {
		t.Errorf("the three named algorithms should be inequivalent, got %d classes", got)
	}
}

// TestRunSweepAndCache: a small sweep produces monotone offered loads
// and the figure cache returns identical results.
func TestRunSweepAndCache(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	alg := routing.NewWestFirst(topo)
	opts := Options{Seed: 2, Warmup: 500, Measure: 2000}
	sw, err := runSweep(alg, traffic.NewUniform(topo), []float64{0.5, 1.5}, opts, make(chan struct{}, opts.workers()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Points) != 2 || sw.Algorithm != "west-first" {
		t.Fatalf("bad sweep: %+v", sw)
	}
	if sw.Points[0].Result.Throughput <= 0 {
		t.Error("zero throughput at light load")
	}
	thr, load := sw.MaxSustainable()
	if thr <= 0 || load <= 0 {
		t.Errorf("no sustainable point: thr=%v load=%v", thr, load)
	}

	f, ok := FigureByID("fig13")
	if !ok {
		t.Fatal("fig13 missing")
	}
	o := Options{Quick: true, Seed: 3, Warmup: 300, Measure: 1000, Loads: []float64{0.5}}
	a, err := RunFigure(f, o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFigure(f, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 4 || len(b) != 4 {
		t.Fatalf("expected 4 sweeps, got %d and %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Points[0].Result != b[i].Points[0].Result {
			t.Error("cache returned different results")
		}
	}
	var buf bytes.Buffer
	WriteFigure(&buf, f, a)
	if !strings.Contains(buf.String(), "maximum sustainable throughput") {
		t.Error("figure output missing summary")
	}
}

// TestQuickLoads: quick mode subsamples but keeps the last point.
func TestQuickLoads(t *testing.T) {
	o := Options{Quick: true}
	full := []float64{1, 2, 3, 4, 5, 6, 7}
	q := o.loads(full)
	if q[len(q)-1] != 7 {
		t.Errorf("quick loads should keep the endpoint: %v", q)
	}
	if len(q) >= len(full) {
		t.Errorf("quick loads should subsample: %v", q)
	}
	o2 := Options{Loads: []float64{9}}
	if got := o2.loads(full); len(got) != 1 || got[0] != 9 {
		t.Errorf("override ignored: %v", got)
	}
}

// TestFigure1Experiment: the scripted Figure 1 scenario behaves as the
// paper describes under both relations.
func TestFigure1Experiment(t *testing.T) {
	topo := topology.NewMesh(2, 2)
	res, err := RunFigure1(routing.NewFullyAdaptive(topo), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deadlocked {
		t.Error("figure 1 scenario should deadlock under fully adaptive routing")
	}
	res2, err := RunFigure1(routing.NewNegativeFirst(topo), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Deadlocked || res2.PacketsDelivered != 4 {
		t.Errorf("negative-first should deliver all packets: %+v", res2)
	}
}

// TestIntroExperiment: the switching-technique scaling table asserts its
// own classifications.
func TestIntroExperiment(t *testing.T) {
	e, ok := ByID("intro")
	if !ok {
		t.Fatal("missing intro")
	}
	var buf bytes.Buffer
	if err := e.Run(Options{}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "~ L + D") || !strings.Contains(out, "~ L * D") {
		t.Errorf("scaling classification missing:\n%s", out)
	}
}

// TestTorusExperiment: the Section 4.2 comparison runs and finds the
// expected verdicts.
func TestTorusExperiment(t *testing.T) {
	e, ok := ByID("torus")
	if !ok {
		t.Fatal("missing torus")
	}
	var buf bytes.Buffer
	if err := e.Run(Options{Quick: true, Seed: 1}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "NOT deadlock free") {
		t.Error("torus-dor should be flagged")
	}
	if strings.Count(out, "deadlock free (") < 3 {
		t.Error("the three safe schemes should verify")
	}
}

// TestHotspotExperiment (slower).
func TestHotspotExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	e, _ := ByID("hotspot")
	var buf bytes.Buffer
	if err := e.Run(Options{Quick: true, Seed: 1}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "negative-first") {
		t.Error("missing algorithm rows")
	}
}

// TestClaimsQuickShape: a coarse, fast rendition of the Section 6
// sustainable-throughput claims — the directional orderings must hold
// even with short windows and subsampled loads.
func TestClaimsQuickShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := Options{Quick: true, Seed: 5, Warmup: 1500, Measure: 5000}
	claims, err := RunClaims(o)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]float64{}
	for _, c := range claims {
		byName[c.Name] = c.Measured
	}
	if r := byName["mesh transpose: best PA / xy"]; r < 1.15 {
		t.Errorf("mesh transpose PA/xy = %.2f, want comfortably above 1", r)
	}
	if r := byName["cube transpose: best PA / e-cube"]; r < 1.5 {
		t.Errorf("cube transpose PA/e-cube = %.2f, want >= 1.5", r)
	}
	if r := byName["cube reverse-flip: best PA / e-cube"]; r < 2 {
		t.Errorf("reverse-flip PA/e-cube = %.2f, want >= 2", r)
	}
}

// TestFig13UniformShape: under uniform traffic the nonadaptive
// algorithm's maximum sustainable throughput is at least the partially
// adaptive algorithms' (the Figure 13 direction), in quick mode.
func TestFig13UniformShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f, _ := FigureByID("fig13")
	sweeps, err := RunFigure(f, Options{Quick: true, Seed: 5, Warmup: 1500, Measure: 5000})
	if err != nil {
		t.Fatal(err)
	}
	var xy, bestPA float64
	for _, s := range sweeps {
		thr, _ := s.MaxSustainable()
		if s.Algorithm == "xy" {
			xy = thr
		} else if thr > bestPA {
			bestPA = thr
		}
	}
	if xy < bestPA*0.95 {
		t.Errorf("uniform traffic: xy (%.0f) should not lose to partially adaptive (%.0f)", xy, bestPA)
	}
}

// TestPaperOrderCoversRegistry: every registered experiment has a place
// in the presentation order.
func TestPaperOrderCoversRegistry(t *testing.T) {
	rank := map[string]bool{}
	for _, id := range paperOrder {
		rank[id] = true
	}
	for _, e := range All() {
		if !rank[e.ID] {
			t.Errorf("experiment %q missing from paperOrder", e.ID)
		}
	}
}

// TestFigureJSON: the machine-readable rendering round-trips through
// encoding/json with the expected fields.
func TestFigureJSON(t *testing.T) {
	f, _ := FigureByID("fig13")
	o := Options{Quick: true, Seed: 3, Warmup: 300, Measure: 1000, Loads: []float64{0.5}}
	sweeps, err := RunFigure(f, o)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFigureJSON(&buf, f, sweeps); err != nil {
		t.Fatal(err)
	}
	var back FigureJSON
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.ID != "fig13" || len(back.Series) != 4 {
		t.Fatalf("bad JSON figure: %+v", back)
	}
	for _, s := range back.Series {
		if len(s.Points) != 1 || s.Points[0].Throughput <= 0 {
			t.Errorf("series %s malformed: %+v", s.Algorithm, s.Points)
		}
	}
}

// TestSymmetryInvariance: applying any symmetry of the square to a
// one-turn-per-cycle prohibition preserves its deadlock-freedom verdict
// — the formal backing for counting "unique" prohibitions up to
// symmetry.
func TestSymmetryInvariance(t *testing.T) {
	topo := topology.NewMesh(5, 5)
	for _, set := range core.OneTurnPerCyclePairs2D() {
		want := deadlock.CheckTurnSet(topo, set).DeadlockFree
		for _, sy := range core.Symmetries2D() {
			if got := deadlock.CheckTurnSet(topo, sy.Set(set)).DeadlockFree; got != want {
				t.Fatalf("%s changed the verdict for %v", sy.Name(), set)
			}
		}
	}
}

// TestFindSaturation: the bisection lands between a clearly sustainable
// and a clearly saturated load, and its edge throughput is at least the
// grid estimate at the floor.
func TestFindSaturation(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	topo := topology.NewMesh(8, 8)
	base := sim.Config{Algorithm: routing.NewDimensionOrder(topo), Pattern: traffic.NewUniform(topo)}
	o := Options{Seed: 6, Warmup: 1000, Measure: 5000}
	sat, err := FindSaturation(base, 0.5, 12, 6, o)
	if err != nil {
		t.Fatal(err)
	}
	if sat.Load < 0.5 || sat.Load >= 12 {
		t.Errorf("saturation load %.2f out of the probed range", sat.Load)
	}
	if sat.Throughput <= 0 || !sat.Result.Sustainable {
		t.Errorf("edge measurement invalid: %+v", sat.Result)
	}
	// A floor that already saturates reports zero.
	zero, err := FindSaturation(base, 50, 60, 3, o)
	if err != nil {
		t.Fatal(err)
	}
	if zero.Load != 0 {
		t.Errorf("unsustainable floor should report zero, got %+v", zero)
	}
}
