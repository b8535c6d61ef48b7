package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"regexp"
	"strings"
	"testing"

	"turnmodel/internal/topology"
)

// fill binds a collector to a 4x4 mesh and loads it with a small
// synthetic run: 10 cycles, traffic on two channels, three delivered
// packets.
func fill(cfg Config) *Collector {
	m := New(cfg)
	topo := topology.NewMesh(4, 4)
	m.Bind(topo, 2*topo.NumDims()+1)
	m.ChannelFlits[0*m.nphys+1] = 30        // router 0, east
	m.ChannelFlits[1*m.nphys+3] = 12        // router 1, north
	m.ChannelFlits[2*m.nphys+m.nphys-1] = 9 // router 2, ejection
	m.Grants[0] = 5
	m.Denials[1] = 2
	m.Misroutes[1] = 1
	m.WaitCycles[0] = 7
	m.InjectedFlits = 42
	m.Occupancy[3] = 2
	for c := int64(0); c < 10; c++ {
		m.EndCycle()
		m.DeliveredFlits += 3
		if m.SampleDue(c) {
			m.TakeSample(c, 1, 4)
		}
	}
	for _, lat := range []float64{10, 20, 30} {
		m.RecordLatency(lat)
	}
	return m
}

func TestCollectorAccumulates(t *testing.T) {
	m := fill(Config{Interval: 4})
	if m.Cycles() != 10 {
		t.Errorf("cycles = %d, want 10", m.Cycles())
	}
	if m.OccIntegral[3] != 20 {
		t.Errorf("occupancy integral = %d, want 2 flits x 10 cycles = 20", m.OccIntegral[3])
	}
	// Samples at cycles 4 and 8 (interval 4, first due at cycle 4).
	s := m.Samples()
	if len(s) != 2 || s[0].Cycle != 4 || s[1].Cycle != 8 {
		t.Fatalf("samples = %+v, want cycles 4 and 8", s)
	}
	// 3 flits/cycle delivered throughout.
	if math.Abs(s[1].WindowThroughput-3) > 1e-9 {
		t.Errorf("window throughput = %v, want 3", s[1].WindowThroughput)
	}
	sum := m.Summarize()
	// A router's forwarded flits are its channel slots, ejection
	// included: 30 + 12 + router 2's 9 ejected flits.
	if sum.FlitsForwarded != 51 || sum.Grants != 5 || sum.Denials != 2 || sum.Misroutes != 1 || sum.WaitCycles != 7 {
		t.Errorf("summary totals wrong: %+v", sum)
	}
	if sum.MaxChannelUtilization != 3.0 {
		t.Errorf("max utilization = %v, want 30 flits / 10 cycles = 3", sum.MaxChannelUtilization)
	}
	if sum.HottestChannel == "" || strings.Contains(sum.HottestChannel, "ejection") {
		t.Errorf("hottest channel %q should name a network channel", sum.HottestChannel)
	}
	if sum.LatencyCount != 3 || sum.LatencyMeanCycles != 20 {
		t.Errorf("latency summary wrong: %+v", sum)
	}
}

func TestExactLatenciesFlag(t *testing.T) {
	with := fill(Config{ExactLatencies: true})
	if got := with.ExactLatencies(); len(got) != 3 || got[1] != 20 {
		t.Errorf("exact latencies = %v, want [10 20 30]", got)
	}
	without := fill(Config{})
	if len(without.ExactLatencies()) != 0 {
		t.Error("exact latencies recorded without the flag")
	}
	// The histogram is maintained either way.
	if without.Latencies().N() != 3 {
		t.Errorf("histogram N = %d, want 3", without.Latencies().N())
	}
}

func TestManifestJSONRoundTrip(t *testing.T) {
	m := fill(Config{Interval: 4, ExactLatencies: true})
	var buf bytes.Buffer
	if err := m.WriteManifest(&buf); err != nil {
		t.Fatal(err)
	}
	var man Manifest
	if err := json.Unmarshal(buf.Bytes(), &man); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
	if len(man.Routers) != 16 {
		t.Errorf("manifest has %d routers, want 16", len(man.Routers))
	}
	// Channels are sorted hottest first and only carry nonzero entries.
	if len(man.Channels) != 3 || man.Channels[0].Flits != 30 {
		t.Errorf("channels = %+v, want 3 entries, hottest first", man.Channels)
	}
	if man.Summary.DeliveredFlits != 30 {
		t.Errorf("summary delivered = %d, want 30", man.Summary.DeliveredFlits)
	}
	if len(man.ExactLatencies) != 3 {
		t.Errorf("exact latencies missing from manifest: %+v", man.ExactLatencies)
	}
	if len(man.Samples) != 2 {
		t.Errorf("samples missing from manifest")
	}
}

// promLine matches one Prometheus text-format sample line.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?|NaN)$`)

func TestPrometheusFormat(t *testing.T) {
	m := fill(Config{Interval: 4})
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	typed := map[string]bool{}
	for i, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("line %d: malformed TYPE: %q", i+1, line)
			}
			typed[f[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("line %d does not parse as a Prometheus sample: %q", i+1, line)
		}
		name := line
		if j := strings.IndexAny(line, "{ "); j >= 0 {
			name = line[:j]
		}
		base := strings.TrimSuffix(strings.TrimSuffix(name, "_sum"), "_count")
		if base == "turnsim_packet_latency_cycles_count" {
			base = "turnsim_packet_latency_cycles"
		}
		if !typed[name] && !typed[base] {
			t.Errorf("line %d: sample %q has no preceding TYPE", i+1, name)
		}
	}
	for _, want := range []string{
		"turnsim_router_flits_forwarded_total",
		"turnsim_channel_flits_total",
		"turnsim_flits_delivered_total",
		"turnsim_packet_latency_cycles",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %s", want)
		}
	}
}

func TestHeatmapMesh(t *testing.T) {
	m := fill(Config{})
	hm := m.Heatmap()
	if !strings.Contains(hm, "east") || !strings.Contains(hm, "scale:") {
		t.Errorf("mesh heatmap missing direction panels or scale:\n%s", hm)
	}
	// The hottest cell renders with the densest ramp character.
	if !strings.Contains(hm, "@") {
		t.Errorf("heatmap has no saturated cell:\n%s", hm)
	}
}

func TestHeatmapFallbackNonMesh(t *testing.T) {
	m := New(Config{})
	topo := topology.NewHypercube(4)
	m.Bind(topo, 2*topo.NumDims()+1)
	m.ChannelFlits[3] = 5
	m.EndCycle()
	hm := m.Heatmap()
	if !strings.Contains(hm, "busiest channels") {
		t.Errorf("non-mesh topology should fall back to a channel table:\n%s", hm)
	}
}

func TestBindResets(t *testing.T) {
	m := fill(Config{Interval: 4})
	topo := topology.NewMesh(4, 4)
	m.Bind(topo, 2*topo.NumDims()+1)
	if m.Cycles() != 0 || m.DeliveredFlits != 0 || len(m.Samples()) != 0 || m.Latencies().N() != 0 {
		t.Error("Bind should reset all counters")
	}
}
