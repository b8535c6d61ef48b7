package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"turnmodel/internal/stats"
	"turnmodel/internal/topology"
)

// Manifest is the machine-readable run record written by WriteManifest.
// All times are cycles and all traffic quantities flits.
type Manifest struct {
	// Summary repeats the network-wide totals.
	Summary Summary `json:"summary"`
	// SampleInterval echoes the configured cadence (0 = disabled).
	SampleInterval int64 `json:"sample_interval_cycles"`
	// Routers holds per-router counters, indexed by node id.
	Routers []RouterMetrics `json:"routers"`
	// Channels holds per-channel flit counts for channels that carried
	// traffic, hottest first.
	Channels []ChannelMetrics `json:"channels"`
	// Samples is the windowed time series.
	Samples []Sample `json:"samples"`
	// ExactLatencies is the per-packet latency record in cycles, only
	// present when exact recording was enabled.
	ExactLatencies []float64 `json:"exact_latencies_cycles,omitempty"`
	// EpochLatencies breaks delivered-packet latency down by fault
	// epoch, present when per-epoch attribution ran (fault campaigns).
	EpochLatencies []EpochLatencyMetrics `json:"epoch_latencies,omitempty"`
}

// EpochLatencyMetrics summarizes delivered-packet latency within one
// fault epoch.
type EpochLatencyMetrics struct {
	// Epoch numbers the fault sets of the run: 0 is the one it began
	// with, and each fault-set change adds one.
	Epoch int `json:"epoch"`
	// Count, MeanCycles and MaxCycles summarize the epoch's deliveries.
	Count      int64   `json:"count"`
	MeanCycles float64 `json:"mean_cycles"`
	MaxCycles  float64 `json:"max_cycles"`
}

// RouterMetrics is one router's counter block.
type RouterMetrics struct {
	// Router is the node id; Coord its coordinate vector.
	Router int   `json:"router"`
	Coord  []int `json:"coord"`
	// FlitsForwarded etc. mirror the Collector's per-router counters.
	FlitsForwarded    int64   `json:"flits_forwarded"`
	Grants            int64   `json:"allocation_grants"`
	Denials           int64   `json:"allocation_denials"`
	Misroutes         int64   `json:"misroutes"`
	WaitCycles        int64   `json:"allocation_wait_cycles"`
	MeanOccupancy     float64 `json:"mean_buffer_occupancy_flits"`
	OccupancyIntegral int64   `json:"buffer_occupancy_integral_flit_cycles"`
}

// ChannelMetrics is one channel's counter block.
type ChannelMetrics struct {
	// Channel names the channel, e.g. "(3,2)->+x"; Ejection marks a
	// router-to-processor channel.
	Channel  string `json:"channel"`
	Ejection bool   `json:"ejection,omitempty"`
	// Flits carried and the resulting utilization in flits/cycle.
	Flits       int64   `json:"flits"`
	Utilization float64 `json:"utilization"`
}

// BuildManifest assembles the manifest struct.
func (m *Collector) BuildManifest() Manifest {
	man := Manifest{
		Summary:        m.Summarize(),
		SampleInterval: m.cfg.Interval,
		Samples:        m.samples,
		ExactLatencies: m.exact,
	}
	for v, f := range m.forwarded() {
		r := RouterMetrics{
			Router:            v,
			Coord:             m.topo.Coord(topology.NodeID(v)),
			FlitsForwarded:    f,
			Grants:            m.Grants[v],
			Denials:           m.Denials[v],
			Misroutes:         m.Misroutes[v],
			WaitCycles:        m.WaitCycles[v],
			OccupancyIntegral: m.OccIntegral[v],
		}
		if m.cycles > 0 {
			r.MeanOccupancy = float64(m.OccIntegral[v]) / float64(m.cycles)
		}
		man.Routers = append(man.Routers, r)
	}
	for i, f := range m.ChannelFlits {
		if f == 0 {
			continue
		}
		c := ChannelMetrics{Flits: f, Utilization: m.channelUtilization(i)}
		if m.isEjection(i) {
			c.Channel = fmt.Sprintf("%v->ejection", m.topo.Coord(topology.NodeID(i/m.nphys)))
			c.Ejection = true
		} else {
			c.Channel = m.channelOf(i).String()
		}
		man.Channels = append(man.Channels, c)
	}
	sort.SliceStable(man.Channels, func(i, j int) bool {
		return man.Channels[i].Flits > man.Channels[j].Flits
	})
	for epoch := range m.epochLats {
		a := &m.epochLats[epoch]
		if a.N() == 0 {
			continue
		}
		man.EpochLatencies = append(man.EpochLatencies, EpochLatencyMetrics{
			Epoch:      epoch,
			Count:      a.N(),
			MeanCycles: a.Mean(),
			MaxCycles:  a.Max(),
		})
	}
	return man
}

// WriteManifest writes the run manifest as indented JSON.
func (m *Collector) WriteManifest(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m.BuildManifest())
}

// promEscape escapes a Prometheus label value.
func promEscape(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// WritePrometheus writes the counters in the Prometheus text exposition
// format (version 0.0.4). Metric names carry the turnsim_ prefix;
// routers are labeled by id and coordinate, channels by source router
// and direction.
func (m *Collector) WritePrometheus(w io.Writer) error {
	bw := &errWriter{w: w}
	counter := func(name, help string, emit func()) {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		emit()
	}
	routerLabel := func(v int) string {
		return fmt.Sprintf(`router="%d",coord="%s"`, v, promEscape(coordString(m.topo.Coord(topology.NodeID(v)))))
	}
	perRouter := func(name, help string, vals []int64) {
		counter(name, help, func() {
			for v, x := range vals {
				fmt.Fprintf(bw, "%s{%s} %d\n", name, routerLabel(v), x)
			}
		})
	}
	perRouter("turnsim_router_flits_forwarded_total", "Flits forwarded by the router, ejections included.", m.forwarded())
	perRouter("turnsim_router_allocation_grants_total", "Output-channel allocations granted.", m.Grants)
	perRouter("turnsim_router_allocation_denials_total", "Allocation attempts with every permitted output busy.", m.Denials)
	perRouter("turnsim_router_misroutes_total", "Granted outputs that did not reduce distance to the destination.", m.Misroutes)
	perRouter("turnsim_router_allocation_wait_cycles_total", "Cycles granted headers spent waiting for allocation.", m.WaitCycles)
	perRouter("turnsim_router_buffer_occupancy_flit_cycles_total", "Time integral of buffered flits.", m.OccIntegral)
	counter("turnsim_channel_flits_total", "Flits carried per physical channel.", func() {
		for i, f := range m.ChannelFlits {
			if f == 0 {
				continue
			}
			v := i / m.nphys
			dir := "ejection"
			if !m.isEjection(i) {
				dir = m.channelOf(i).Dir.String()
			}
			fmt.Fprintf(bw, "turnsim_channel_flits_total{%s,dir=%q} %d\n", routerLabel(v), dir, f)
		}
	})
	counter("turnsim_flits_injected_total", "Flits injected into the network.", func() {
		fmt.Fprintf(bw, "turnsim_flits_injected_total %d\n", m.InjectedFlits)
	})
	counter("turnsim_flits_delivered_total", "Flits delivered to destination processors.", func() {
		fmt.Fprintf(bw, "turnsim_flits_delivered_total %d\n", m.DeliveredFlits)
	})
	counter("turnsim_cycles_total", "Simulated cycles observed by the collector.", func() {
		fmt.Fprintf(bw, "turnsim_cycles_total %d\n", m.cycles)
	})
	counter("turnsim_recoveries_total", "Worms aborted regressively by deadlock recovery.", func() {
		fmt.Fprintf(bw, "turnsim_recoveries_total %d\n", m.Recoveries)
	})
	counter("turnsim_retries_total", "Source-level packet re-injections after recovery aborts.", func() {
		fmt.Fprintf(bw, "turnsim_retries_total %d\n", m.Retries)
	})
	counter("turnsim_packets_dropped_total", "Packets dropped after exhausting the recovery retry budget.", func() {
		fmt.Fprintf(bw, "turnsim_packets_dropped_total %d\n", m.PacketsDropped)
	})
	counter("turnsim_drained_flits_total", "Flits removed from network buffers by recovery aborts.", func() {
		fmt.Fprintf(bw, "turnsim_drained_flits_total %d\n", m.DrainedFlits)
	})
	fmt.Fprintf(bw, "# HELP turnsim_packet_latency_cycles Delivered-packet latency distribution.\n# TYPE turnsim_packet_latency_cycles summary\n")
	if n := m.latencies.N(); n > 0 {
		for _, q := range []float64{0.5, 0.95, 0.99} {
			fmt.Fprintf(bw, "turnsim_packet_latency_cycles{quantile=\"%g\"} %g\n", q, m.latencies.Percentile(q))
		}
		fmt.Fprintf(bw, "turnsim_packet_latency_cycles_sum %g\n", m.latencies.Mean()*float64(n))
		fmt.Fprintf(bw, "turnsim_packet_latency_cycles_count %d\n", n)
	} else {
		fmt.Fprintf(bw, "turnsim_packet_latency_cycles_count 0\n")
	}
	return bw.err
}

// coordString renders a coordinate vector as "x,y,...".
func coordString(c []int) string {
	parts := make([]string, len(c))
	for i, x := range c {
		parts[i] = fmt.Sprint(x)
	}
	return strings.Join(parts, ",")
}

// errWriter folds write errors so the exporter can use Fprintf freely.
type errWriter struct {
	w   io.Writer
	err error
}

// Write implements io.Writer, dropping writes after the first error.
func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return len(p), nil
	}
	n, err := e.w.Write(p)
	e.err = err
	return n, nil
}

// Heatmap renders the channel-utilization heat of the run. For
// two-dimensional meshes and tori it draws one ASCII density map per
// direction (stats.Heatmap), each cell the utilization of that router's
// outgoing channel; for other topologies it falls back to a table of
// the busiest channels.
func (m *Collector) Heatmap() string {
	var b strings.Builder
	if len(m.topo.Dims()) == 2 && !m.topo.IsHypercube() {
		w, h := m.topo.Dims()[0], m.topo.Dims()[1]
		for di := 0; di < m.nphys-1; di++ {
			dir := topology.DirectionFromIndex(di)
			fmt.Fprintf(&b, "channel utilization %v (flits/cycle):\n", dir)
			b.WriteString(stats.Heatmap(h, w, func(r, c int) float64 {
				v := int(m.topo.ID(topology.Coord{c, r}))
				return m.channelUtilization(v*m.nphys + di)
			}))
			b.WriteByte('\n')
		}
		return b.String()
	}
	man := m.BuildManifest()
	fmt.Fprintf(&b, "busiest channels (flits/cycle):\n")
	tbl := stats.NewTable("channel", "flits", "utilization")
	top := man.Channels
	if len(top) > 16 {
		top = top[:16]
	}
	for _, c := range top {
		if c.Ejection {
			continue
		}
		tbl.AddRow(c.Channel, c.Flits, fmt.Sprintf("%.3f", c.Utilization))
	}
	b.WriteString(tbl.String())
	return b.String()
}
