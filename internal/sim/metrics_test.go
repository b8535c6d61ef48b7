package sim

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"turnmodel/internal/fault"
	"turnmodel/internal/metrics"
	"turnmodel/internal/routing"
	"turnmodel/internal/topology"
	"turnmodel/internal/traffic"
)

// TestMetricsDoNotPerturbResults: attaching a collector must leave the
// simulation bit-identical — same rng stream, same schedule, same
// Result — with metrics both disabled and enabled (the golden-figure
// invariant, at single-run granularity).
func TestMetricsDoNotPerturbResults(t *testing.T) {
	run := func(m *metrics.Collector) Result {
		topo := topology.NewMesh(8, 8)
		res, err := Run(Config{
			Algorithm:     routing.NewWestFirst(topo),
			Pattern:       traffic.NewMeshTranspose(topo),
			OfferedLoad:   1.5,
			WarmupCycles:  1000,
			MeasureCycles: 4000,
			Seed:          7,
			Metrics:       m,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(nil)
	withMetrics := run(metrics.New(metrics.Config{Interval: 250, ExactLatencies: true}))
	if base != withMetrics {
		t.Errorf("metrics perturbed the run:\n  off: %+v\n  on:  %+v", base, withMetrics)
	}
	// And a misroute-capable config, which shares the profitability
	// computation between the patience discipline and the counter.
	runMis := func(m *metrics.Collector) Result {
		topo := topology.NewMesh(8, 8)
		res, err := Run(Config{
			Algorithm:     routing.NewWestFirst(topo),
			Pattern:       traffic.NewUniform(topo),
			OfferedLoad:   2.0,
			MisrouteAfter: 8,
			WarmupCycles:  800,
			MeasureCycles: 2000,
			Seed:          11,
			Metrics:       m,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if a, b := runMis(nil), runMis(metrics.New(metrics.Config{})); a != b {
		t.Errorf("metrics perturbed the misroute run:\n  off: %+v\n  on:  %+v", a, b)
	}
}

// TestMetricsCounterConsistency: the collector's totals reconcile with
// the run's own accounting — injected equals delivered flits on a
// drained scripted run, grants count one allocation per router visited
// (hops + ejection), and the channel counters agree with the
// Observer-based occupancy recorder.
func TestMetricsCounterConsistency(t *testing.T) {
	topo := topology.NewMesh(6, 6)
	m := metrics.New(metrics.Config{Interval: 50})
	occ := NewChannelOccupancy(topo)
	var script []ScriptedMessage
	flits := 0
	for i := 0; i < 24; i++ {
		src := topology.NodeID((i * 5) % topo.Nodes())
		dst := topology.NodeID((i*13 + 7) % topo.Nodes())
		if src == dst {
			continue
		}
		script = append(script, ScriptedMessage{Cycle: int64(2 * i), Src: src, Dst: dst, Length: 8})
		flits += 8
	}
	e, err := New(Config{
		Algorithm: routing.NewNegativeFirst(topo),
		Script:    script,
		Metrics:   m,
		Observer:  occ.Observer(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var hopSum int
	e.onDeliver = func(p *packet) { hopSum += p.hops }
	res := e.run()
	if res.Deadlocked || res.PacketsDelivered != int64(len(script)) {
		t.Fatalf("bad run: %+v", res)
	}
	if m.InjectedFlits != int64(flits) || m.DeliveredFlits != int64(flits) {
		t.Errorf("injected/delivered = %d/%d, want %d/%d", m.InjectedFlits, m.DeliveredFlits, flits, flits)
	}
	var grants, denials int64
	for v := range m.Grants {
		grants += m.Grants[v]
		denials += m.Denials[v]
	}
	// One grant per router traversed: hops network outputs plus the
	// destination's ejection channel.
	if want := int64(hopSum + len(script)); grants != want {
		t.Errorf("grants = %d, want hops+deliveries = %d", grants, want)
	}
	if denials < 0 {
		t.Errorf("negative denial count %d", denials)
	}
	// Per-channel flit counts must agree with the Forward-event
	// recorder: same total, same per-channel values.
	var chanTotal int64
	for i, f := range m.ChannelFlits {
		if i%(2*topo.NumDims()+1) == 2*topo.NumDims() {
			continue // ejection slot
		}
		chanTotal += f
	}
	if chanTotal != occ.Total() {
		t.Errorf("metrics network flits %d != observer total %d", chanTotal, occ.Total())
	}
	hot, hotCount := occ.Hottest()
	nphys := 2*topo.NumDims() + 1
	if got := m.ChannelFlits[int(hot.From)*nphys+hot.Dir.Index()]; got != hotCount {
		t.Errorf("hottest channel %v: metrics %d != observer %d", hot, got, hotCount)
	}
	// All buffers drained: the occupancy gauges are back to zero and
	// the latency histogram saw every packet.
	for v, o := range m.Occupancy {
		if o != 0 {
			t.Errorf("router %d occupancy %d after drain, want 0", v, o)
		}
	}
	if m.Latencies().N() != int64(len(script)) {
		t.Errorf("latency histogram N = %d, want %d", m.Latencies().N(), len(script))
	}
	if m.Cycles() != res.Cycles {
		t.Errorf("collector cycles %d != run cycles %d", m.Cycles(), res.Cycles)
	}
	if len(m.Samples()) == 0 {
		t.Error("no time-series samples recorded")
	}
}

// TestScriptedUtilizationWindow: regression for the measurement-window
// bug where scripted runs had to temporarily overwrite
// cfg.MeasureCycles so hottestChannel divided by the right window.
// Scripted utilization must be positive, at most 1.0 (a channel cannot
// carry more than one flit per cycle), and exactly consistent with a
// Forward-event recount; replaying a recorded stream workload must
// report nearly the same peak utilization as the stream run.
func TestScriptedUtilizationWindow(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	streamCfg := Config{
		Algorithm:     routing.NewDimensionOrder(topo),
		Pattern:       traffic.NewMeshTranspose(topo),
		OfferedLoad:   2.0,
		WarmupCycles:  500,
		MeasureCycles: 4000,
		Seed:          17,
	}
	stream, err := Run(streamCfg)
	if err != nil {
		t.Fatal(err)
	}
	msgs, err := RecordWorkload(streamCfg, 4500)
	if err != nil {
		t.Fatal(err)
	}
	occ := NewChannelOccupancy(topo)
	scripted, err := Run(Config{
		Algorithm:         routing.NewDimensionOrder(topo),
		Script:            msgs,
		DeadlockThreshold: 100000,
		DrainDeadline:     1 << 20,
		Observer:          occ.Observer(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if scripted.Deadlocked {
		t.Fatalf("replay deadlocked: %+v", scripted)
	}
	if scripted.MaxChannelUtilization <= 0 || scripted.MaxChannelUtilization > 1 {
		t.Errorf("scripted utilization %v out of (0,1]", scripted.MaxChannelUtilization)
	}
	if stream.MaxChannelUtilization <= 0 || stream.MaxChannelUtilization > 1 {
		t.Errorf("stream utilization %v out of (0,1]", stream.MaxChannelUtilization)
	}
	// The scripted run measures from cycle zero, so utilization *
	// cycles must equal the hottest channel's exact flit count.
	_, hotCount := occ.Hottest()
	if got := scripted.MaxChannelUtilization * float64(scripted.Cycles); int64(got+0.5) != hotCount {
		t.Errorf("scripted utilization*cycles = %.1f, observer counted %d flits", got, hotCount)
	}
	// Stream and replay drive the same workload. Their measurement
	// windows differ slightly (the scripted run also counts drain
	// cycles), so the argmax channel can flip between near-ties, but
	// the peak utilization must agree closely. Before the window fix
	// a scripted run divided by the wrong denominator, so this ratio
	// was off by the run-length/measure-window factor.
	if d := math.Abs(stream.MaxChannelUtilization - scripted.MaxChannelUtilization); d > 0.1 {
		t.Errorf("peak utilization differs by %.3f: stream %.3f, scripted %.3f",
			d, stream.MaxChannelUtilization, scripted.MaxChannelUtilization)
	}
	// And the stream's own hottest channel must be roughly as busy in
	// the replay as the stream run claims.
	if got := float64(occ.Count(stream.HottestChannel)) / float64(scripted.Cycles); math.Abs(got-stream.MaxChannelUtilization) > 0.1 {
		t.Errorf("stream hottest channel %v replayed at utilization %.3f, stream measured %.3f",
			stream.HottestChannel, got, stream.MaxChannelUtilization)
	}
}

// promSample matches one sample line of the Prometheus text exposition
// format: a metric name, optional labels, and a value.
var promSample = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?|NaN|[+-]Inf)$`)

// TestMetricsDumpFiles: the files WriteFiles writes after a real run —
// what turnsim -metrics leaves in its directory — are well formed: a
// manifest that parses, with sane totals and one block per router;
// Prometheus text whose every line is a HELP/TYPE comment or a sample;
// and a non-empty heatmap.
func TestMetricsDumpFiles(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	m := metrics.New(metrics.Config{Interval: 500})
	if _, err := Run(Config{
		Algorithm:     routing.NewWestFirst(topo),
		Pattern:       traffic.NewMeshTranspose(topo),
		OfferedLoad:   1.5,
		WarmupCycles:  500,
		MeasureCycles: 2000,
		Seed:          1,
		Metrics:       m,
	}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := m.WriteFiles(dir); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(filepath.Join(dir, metrics.ManifestFile))
	if err != nil {
		t.Fatal(err)
	}
	var man metrics.Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatalf("%s: %v", metrics.ManifestFile, err)
	}
	if s := man.Summary; s.Cycles <= 0 || s.DeliveredFlits == 0 || s.InjectedFlits < s.DeliveredFlits ||
		s.MaxChannelUtilization < 0 || s.MaxChannelUtilization > 1 {
		t.Errorf("%s: implausible summary %+v", metrics.ManifestFile, s)
	}
	if len(man.Routers) != topo.Nodes() {
		t.Errorf("%s: %d router blocks, want %d", metrics.ManifestFile, len(man.Routers), topo.Nodes())
	}

	data, err = os.ReadFile(filepath.Join(dir, metrics.PrometheusFile))
	if err != nil {
		t.Fatal(err)
	}
	samples := 0
	for i, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			if f := strings.Fields(line); len(f) < 3 || (f[1] != "HELP" && f[1] != "TYPE") {
				t.Errorf("%s:%d: malformed comment line %q", metrics.PrometheusFile, i+1, line)
			}
			continue
		}
		if !promSample.MatchString(line) {
			t.Errorf("%s:%d: malformed sample line %q", metrics.PrometheusFile, i+1, line)
		}
		samples++
	}
	if samples == 0 {
		t.Errorf("%s: no sample lines", metrics.PrometheusFile)
	}

	data, err = os.ReadFile(filepath.Join(dir, metrics.HeatmapFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(strings.TrimSpace(string(data))) == 0 {
		t.Errorf("%s is empty", metrics.HeatmapFile)
	}
}

// TestEpochLatenciesPerRun: per-epoch latencies are numbered from the
// fault set a run begins with, not from the topology's first run. Two
// runs of one fault campaign on one topology (Run heals the faults on
// exit, so it can host the second) must write byte-identical manifests.
func TestEpochLatenciesPerRun(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	plan, err := fault.NewCampaign(topo, fault.Campaign{Seed: 7, Horizon: 6000, Rate: 4, MTTR: 500})
	if err != nil {
		t.Fatal(err)
	}
	var manifests [2]bytes.Buffer
	var epochs [2]int
	for i := range manifests {
		m := metrics.New(metrics.Config{Interval: 1000})
		if _, err := Run(Config{
			Algorithm:         routing.NewFullyAdaptive(topo),
			Pattern:           traffic.NewUniform(topo),
			OfferedLoad:       1.0,
			WarmupCycles:      1000,
			MeasureCycles:     5000,
			Seed:              7,
			FaultPlan:         plan,
			RecoveryThreshold: 512,
			Metrics:           m,
		}); err != nil {
			t.Fatal(err)
		}
		if epochs[i] = m.Summarize().FaultEpochs; epochs[i] < 2 {
			t.Fatalf("run %d: %d fault epochs; the campaign changed no fault set", i, epochs[i])
		}
		if err := m.WriteManifest(&manifests[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(manifests[0].Bytes(), manifests[1].Bytes()) {
		t.Errorf("two runs of one campaign wrote different manifests (fault_epochs %d, then %d)", epochs[0], epochs[1])
	}
}
