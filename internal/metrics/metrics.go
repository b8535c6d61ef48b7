// Package metrics is the simulator's low-overhead observability layer:
// per-router and per-channel counters, windowed time-series samples and
// latency histograms, collected by cheap inline counter increments on
// the engine's hot path (the callback Observer in internal/sim remains
// the tracing interface; this package is the counting one).
//
// A Collector is attached to a run through sim.Config.Metrics. The
// engine binds it at construction and then increments its allocation
// and occupancy counters directly — no interface dispatch, no per-event
// closures, no allocation in steady state. Counts the engine keeps
// anyway are not kept twice: ChannelFlits is the engine's per-link
// count, and the network-wide totals are copies of the engine's. When
// no Collector is attached the engine's hot path pays exactly one nil
// check per hook, preserving the zero-overhead-when-disabled invariant
// guarded by TestAllocateZeroAllocs. Both engine move paths, worm
// trains and per-flit, fill a Collector alike.
//
// All quantities are in simulator cycles and flits; exporters report
// the raw units and leave unit conversion to consumers.
package metrics

import (
	"turnmodel/internal/stats"
	"turnmodel/internal/topology"
)

// Config parameterizes a Collector.
type Config struct {
	// Interval is the time-series sampling cadence in cycles. Zero
	// disables sampling; counters are still collected.
	Interval int64
	// ExactLatencies additionally records every delivered packet's
	// latency exactly (unbounded memory on long runs — a debugging
	// flag). The histogram, with 1-cycle buckets, is always maintained.
	ExactLatencies bool
}

// Sample is one windowed time-series observation, taken every
// Config.Interval cycles.
type Sample struct {
	// Cycle is the sample time.
	Cycle int64 `json:"cycle"`
	// DeliveredFlits is the cumulative flit deliveries at the sample.
	DeliveredFlits int64 `json:"delivered_flits"`
	// WindowThroughput is flits delivered per cycle since the previous
	// sample.
	WindowThroughput float64 `json:"window_throughput_flits_per_cycle"`
	// InFlight is the number of packets generated but not yet fully
	// delivered.
	InFlight int64 `json:"in_flight_packets"`
	// BacklogFlits is the flits waiting in source queues.
	BacklogFlits int64 `json:"backlog_flits"`
}

// Collector accumulates one run's metrics. The exported slice fields
// are the engine-facing counters, indexed as documented; everything
// else is accessed through methods. A Collector must not be shared
// between concurrent runs.
type Collector struct {
	cfg Config

	// Per-router counters, indexed by router (node) id.

	// Grants counts output-channel allocations granted at each router
	// (one per packet per router traversed, ejection included).
	Grants []int64
	// Denials counts allocation attempts that found every permitted
	// output busy. Attempt-based: a sleeping router (off the
	// event-driven allocation worklist) is not re-counted every cycle.
	Denials []int64
	// Misroutes counts granted outputs that did not reduce the distance
	// to the packet's destination.
	Misroutes []int64
	// WaitCycles integrates, over granted headers, the cycles spent
	// between head arrival at the router and allocation. Headers still
	// blocked at the end of the run are not included.
	WaitCycles []int64
	// Occupancy is the current number of buffered flits at each router
	// (all input buffers, injection included); OccIntegral is its
	// per-cycle time integral.
	Occupancy   []int32
	OccIntegral []int64

	// ChannelFlits counts flits per physical output channel, indexed
	// router*nphys+phys exactly like the engine's linkUsed array; slot
	// nphys-1 of each router is the ejection channel. It is the slice
	// the engine counts its links into, from cycle zero.
	ChannelFlits []int64

	// Network-wide totals, copied from the engine's counters before each
	// sample and at run end: flits injected and delivered, and, when
	// deadlock recovery is enabled (sim.Config.RecoveryThreshold > 0),
	// regressive worm aborts, source-level re-injections, retry-budget
	// exhaustions and flits the aborts removed from network buffers.
	InjectedFlits  int64
	DeliveredFlits int64
	Recoveries     int64
	Retries        int64
	PacketsDropped int64
	DrainedFlits   int64

	topo       *topology.Topology
	nphys      int
	cycles     int64
	nextSample int64
	samples    []Sample
	lastDel    int64
	latencies  *stats.Histogram
	// epoch0 is the topology's fault epoch at Bind, where the run's
	// epoch numbering starts.
	epoch0    int
	epochLats []stats.Accumulator
	exact     []float64
}

// New returns an unbound Collector; the engine binds it to a topology
// when the run is constructed.
func New(cfg Config) *Collector {
	return &Collector{cfg: cfg, latencies: stats.NewHistogram(1)}
}

// Bind sizes the counters for a run on topology t with nphys physical
// output slots per router (2*dims + 1, the last being ejection). The
// engine calls it from New; rebinding resets all counters.
func (m *Collector) Bind(t *topology.Topology, nphys int) {
	n := t.Nodes()
	m.topo = t
	m.nphys = nphys
	m.Grants = make([]int64, n)
	m.Denials = make([]int64, n)
	m.Misroutes = make([]int64, n)
	m.WaitCycles = make([]int64, n)
	m.Occupancy = make([]int32, n)
	m.OccIntegral = make([]int64, n)
	m.ChannelFlits = make([]int64, n*nphys)
	m.InjectedFlits = 0
	m.DeliveredFlits = 0
	m.Recoveries = 0
	m.Retries = 0
	m.PacketsDropped = 0
	m.DrainedFlits = 0
	m.epoch0 = t.FaultEpoch()
	m.epochLats = m.epochLats[:0]
	m.cycles = 0
	m.nextSample = m.cfg.Interval
	m.samples = m.samples[:0]
	m.lastDel = 0
	m.latencies = stats.NewHistogram(1)
	m.exact = m.exact[:0]
}

// EndCycle accumulates the per-cycle time integrals. The engine calls
// it once per simulated cycle.
func (m *Collector) EndCycle() {
	for i, occ := range m.Occupancy {
		m.OccIntegral[i] += int64(occ)
	}
	m.cycles++
}

// SampleDue reports whether a time-series sample is due at cycle; the
// engine then computes the (more expensive) sampled quantities and
// calls TakeSample. Split so the backlog scan runs only at the
// sampling cadence.
func (m *Collector) SampleDue(cycle int64) bool {
	return m.cfg.Interval > 0 && cycle >= m.nextSample
}

// TakeSample records one time-series sample at cycle.
func (m *Collector) TakeSample(cycle, inFlight, backlogFlits int64) {
	window := m.cfg.Interval
	if len(m.samples) > 0 {
		window = cycle - m.samples[len(m.samples)-1].Cycle
	} else if cycle > 0 {
		window = cycle
	}
	thr := 0.0
	if window > 0 {
		thr = float64(m.DeliveredFlits-m.lastDel) / float64(window)
	}
	m.samples = append(m.samples, Sample{
		Cycle:            cycle,
		DeliveredFlits:   m.DeliveredFlits,
		WindowThroughput: thr,
		InFlight:         inFlight,
		BacklogFlits:     backlogFlits,
	})
	m.lastDel = m.DeliveredFlits
	for m.nextSample <= cycle {
		m.nextSample += m.cfg.Interval
	}
}

// RecordLatency records one delivered packet's latency in cycles.
func (m *Collector) RecordLatency(cycles float64) {
	m.latencies.Add(cycles)
	if m.cfg.ExactLatencies {
		m.exact = append(m.exact, cycles)
	}
}

// RecordEpochLatency attributes one delivered packet's latency to the
// fault epoch the delivery happened in, so fault campaigns can compare
// latency across fault-set changes. epoch is the topology's fault epoch
// counter; the collector numbers it from the epoch at Bind, and the
// accumulator slice grows to the highest run epoch seen.
func (m *Collector) RecordEpochLatency(epoch int, cycles float64) {
	epoch -= m.epoch0
	if epoch < 0 {
		return
	}
	for len(m.epochLats) <= epoch {
		m.epochLats = append(m.epochLats, stats.Accumulator{})
	}
	m.epochLats[epoch].Add(cycles)
}

// Samples returns the recorded time series.
func (m *Collector) Samples() []Sample { return m.samples }

// Latencies returns the latency histogram (cycles).
func (m *Collector) Latencies() *stats.Histogram { return m.latencies }

// ExactLatencies returns the per-packet latency record, empty unless
// Config.ExactLatencies was set.
func (m *Collector) ExactLatencies() []float64 { return m.exact }

// Cycles returns the number of cycles the collector observed.
func (m *Collector) Cycles() int64 { return m.cycles }

// Topology returns the bound topology (nil before Bind).
func (m *Collector) Topology() *topology.Topology { return m.topo }

// channelUtilization returns flits/cycle for channel slot i, guarding
// against an unstarted run.
func (m *Collector) channelUtilization(i int) float64 {
	if m.cycles == 0 {
		return 0
	}
	return float64(m.ChannelFlits[i]) / float64(m.cycles)
}

// forwarded returns the flits each router forwarded, ejections
// included: the sum of its channel slots.
func (m *Collector) forwarded() []int64 {
	out := make([]int64, len(m.Grants))
	for i, f := range m.ChannelFlits {
		out[i/m.nphys] += f
	}
	return out
}

// isEjection reports whether channel slot i is a router's ejection
// channel rather than a network link.
func (m *Collector) isEjection(i int) bool { return i%m.nphys == m.nphys-1 }

// channelOf maps a non-ejection channel slot to its topology channel.
func (m *Collector) channelOf(i int) topology.Channel {
	return topology.Channel{
		From: topology.NodeID(i / m.nphys),
		Dir:  topology.DirectionFromIndex(i % m.nphys),
	}
}

// Summary condenses a run's metrics into network-wide totals, for
// per-figure dumps where full per-router arrays would drown the
// output.
type Summary struct {
	// Cycles observed by the collector.
	Cycles int64 `json:"cycles"`
	// FlitsForwarded is the network-wide flit-forward total (ejections
	// included).
	FlitsForwarded int64 `json:"flits_forwarded"`
	// InjectedFlits and DeliveredFlits are the network-wide totals.
	InjectedFlits  int64 `json:"injected_flits"`
	DeliveredFlits int64 `json:"delivered_flits"`
	// Grants, Denials, Misroutes and WaitCycles are the per-router
	// counters summed over all routers.
	Grants     int64 `json:"allocation_grants"`
	Denials    int64 `json:"allocation_denials"`
	Misroutes  int64 `json:"misroutes"`
	WaitCycles int64 `json:"allocation_wait_cycles"`
	// MeanOccupancy is the mean buffered flits per router per cycle.
	MeanOccupancy float64 `json:"mean_buffer_occupancy_flits"`
	// MaxChannelUtilization is the busiest network channel's flits per
	// cycle, and HottestChannel names it.
	MaxChannelUtilization float64 `json:"max_channel_utilization"`
	HottestChannel        string  `json:"hottest_channel"`
	// LatencyP50Cycles etc. summarize the latency histogram, in cycles.
	LatencyCount      int64   `json:"latency_count"`
	LatencyMeanCycles float64 `json:"latency_mean_cycles"`
	LatencyP50Cycles  float64 `json:"latency_p50_cycles"`
	LatencyP95Cycles  float64 `json:"latency_p95_cycles"`
	LatencyP99Cycles  float64 `json:"latency_p99_cycles"`
	// Samples counts the recorded time-series points.
	Samples int `json:"samples"`
	// Recovery totals; all zero when deadlock recovery was disabled.
	Recoveries     int64 `json:"recoveries,omitempty"`
	Retries        int64 `json:"retries,omitempty"`
	PacketsDropped int64 `json:"packets_dropped,omitempty"`
	DrainedFlits   int64 `json:"drained_flits,omitempty"`
	// FaultEpochs is the highest fault epoch of the run that recorded a
	// delivery via RecordEpochLatency, plus one (0 when per-epoch
	// attribution never ran). Epoch 0 is the fault set the run began
	// with.
	FaultEpochs int `json:"fault_epochs,omitempty"`
}

// Summarize computes the run's Summary.
func (m *Collector) Summarize() Summary {
	s := Summary{
		Cycles:         m.cycles,
		InjectedFlits:  m.InjectedFlits,
		DeliveredFlits: m.DeliveredFlits,
		Samples:        len(m.samples),
		Recoveries:     m.Recoveries,
		Retries:        m.Retries,
		PacketsDropped: m.PacketsDropped,
		DrainedFlits:   m.DrainedFlits,
		FaultEpochs:    len(m.epochLats),
	}
	for i, f := range m.forwarded() {
		s.FlitsForwarded += f
		s.Grants += m.Grants[i]
		s.Denials += m.Denials[i]
		s.Misroutes += m.Misroutes[i]
		s.WaitCycles += m.WaitCycles[i]
	}
	var occ int64
	for _, o := range m.OccIntegral {
		occ += o
	}
	if m.cycles > 0 && len(m.OccIntegral) > 0 {
		s.MeanOccupancy = float64(occ) / float64(m.cycles) / float64(len(m.OccIntegral))
	}
	best, bestIdx := int64(-1), -1
	for i, f := range m.ChannelFlits {
		if m.isEjection(i) {
			continue
		}
		if f > best {
			best, bestIdx = f, i
		}
	}
	if bestIdx >= 0 {
		s.MaxChannelUtilization = m.channelUtilization(bestIdx)
		s.HottestChannel = m.channelOf(bestIdx).String()
	}
	if n := m.latencies.N(); n > 0 {
		s.LatencyCount = n
		s.LatencyMeanCycles = m.latencies.Mean()
		s.LatencyP50Cycles = m.latencies.Percentile(0.50)
		s.LatencyP95Cycles = m.latencies.Percentile(0.95)
		s.LatencyP99Cycles = m.latencies.Percentile(0.99)
	}
	return s
}
