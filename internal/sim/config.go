// Package sim is a deterministic, cycle-accurate flit-level simulator
// for wormhole-routed direct networks, reproducing the simulation model
// of Section 6:
//
//   - a pair of unidirectional channels connects each pair of
//     neighboring routers and each router to its local processor;
//   - all channels have the same bandwidth, 20 flits/microsecond — one
//     simulator cycle transfers one flit, so a cycle is 0.05 us;
//   - each input channel has a buffer of a configurable number of flits
//     (one, in the paper);
//   - the routers "operate asynchronously and synchronize to
//     simultaneously transmit the flits in a packet": when a worm's head
//     advances, trailing flits follow into the freed buffers in the same
//     cycle (chained advance; an ablation mode disables it);
//   - when multiple input channels hold header flits waiting for the
//     same output channel, the local first-come-first-served input
//     selection policy grants the header that arrived first;
//   - when a header has several output channels available, an output
//     selection policy picks one; the paper's policy ("xy") prefers the
//     lowest dimension;
//   - processors generate messages at exponentially distributed
//     intervals; each message is one packet of 10 or 200 flits with
//     equal probability; blocked messages queue at the source; arriving
//     messages are consumed immediately.
package sim

import (
	"fmt"

	"turnmodel/internal/fault"
	"turnmodel/internal/metrics"
	"turnmodel/internal/routing"
	"turnmodel/internal/topology"
	"turnmodel/internal/traffic"
)

// CyclesPerMicrosecond converts simulator cycles to the paper's time
// unit: channels carry 20 flits/us and a cycle moves one flit.
const CyclesPerMicrosecond = 20.0

// OutputPolicy selects one output direction when a header flit has
// several available (Section 6's output selection policy).
type OutputPolicy int

const (
	// LowestDimension is the paper's "xy" policy: the available output
	// channel along the lowest dimension wins, negative before positive.
	LowestDimension OutputPolicy = iota
	// HighestDimension prefers the highest dimension, an ablation foil
	// for LowestDimension.
	HighestDimension
	// RandomPolicy picks uniformly among the available candidates.
	RandomPolicy
)

func (p OutputPolicy) String() string {
	switch p {
	case LowestDimension:
		return "xy(lowest-dimension)"
	case HighestDimension:
		return "highest-dimension"
	default:
		return "random"
	}
}

// InputPolicy arbitrates when multiple input channels hold header flits
// waiting for the same output channel (Section 6's input selection
// policy). The paper uses local first-come-first-served and defers the
// study of alternatives to its companion paper [19]; the alternatives
// here are provided for that ablation.
type InputPolicy int

const (
	// LocalFCFS grants the header that arrived at the router first,
	// breaking ties by port index. Fair, so it prevents indefinite
	// postponement (the paper's choice).
	LocalFCFS InputPolicy = iota
	// PortOrder grants the lowest-numbered input port, an unfair policy
	// that can postpone high-numbered ports indefinitely.
	PortOrder
	// RandomInput grants a uniformly random waiting header.
	RandomInput
)

func (p InputPolicy) String() string {
	switch p {
	case LocalFCFS:
		return "local-fcfs"
	case PortOrder:
		return "port-order"
	default:
		return "random-input"
	}
}

// ScriptedMessage injects one specific message, for constructing exact
// scenarios such as the four-packet deadlock of Figure 1.
type ScriptedMessage struct {
	// Cycle is the cycle the message joins its source queue, and the
	// origin of its latency. A stochastic run enqueues a message at the
	// first whole cycle after its generation time but counts latency
	// from the cycle before. So a recorded workload (RecordWorkload)
	// replays that run's events exactly, under deterministic selection
	// policies, with latencies one cycle shorter.
	Cycle int64
	// Src and Dst are the endpoints; Dst must differ from Src.
	Src, Dst topology.NodeID
	// Length is the packet length in flits.
	Length int
	// FirstDir, if non-nil, restricts the packet's first hop to the
	// given direction when the routing relation offers it (it is ignored
	// if the relation does not offer that direction, so deadlock-free
	// algorithms keep their guarantees).
	FirstDir *topology.Direction
}

// Config parameterizes a simulation run.
type Config struct {
	// Algorithm is the routing relation under test (it carries the
	// topology). Exactly one of Algorithm and VCAlgorithm must be set.
	Algorithm routing.Algorithm

	// VCAlgorithm is a virtual-channel routing relation (e.g. dateline
	// dimension-order torus routing). When set, the simulator multiplexes
	// NumVCs virtual channels onto every physical channel, each with its
	// own input buffer, sharing the physical link's one-flit-per-cycle
	// bandwidth.
	VCAlgorithm routing.VCAlgorithm

	// Pattern generates message destinations. Sources whose destination
	// under the pattern equals the source (e.g. the diagonal of a matrix
	// transpose) generate no traffic, as in the paper.
	Pattern traffic.Pattern

	// OfferedLoad is the applied load in flits per microsecond per node.
	// Message interarrival times are exponential with mean
	// MeanLength / (OfferedLoad/20) cycles.
	OfferedLoad float64

	// Lengths and LengthWeights give the packet length distribution in
	// flits; defaults to {10, 200} with equal probability.
	Lengths       []int
	LengthWeights []float64

	// BufferDepth is the per-input-channel buffer size in flits
	// (default 1, the paper's value).
	BufferDepth int

	// Policy is the output selection policy (default LowestDimension).
	Policy OutputPolicy

	// Input is the input selection policy (default LocalFCFS).
	Input InputPolicy

	// Switching selects wormhole (default), store-and-forward, or
	// virtual cut-through flow control.
	Switching Switching

	// RouterDelay adds extra cycles of route-computation latency beyond
	// the baseline one-cycle routing pipeline: a header flit becomes
	// eligible for output allocation only 1+RouterDelay cycles after
	// arriving at a router. The paper's Section 7 warns that
	// "adaptive routing can require more complex control logic for route
	// selection ... and this may increase node delay"; setting a larger
	// delay for adaptive algorithms quantifies that trade-off.
	RouterDelay int64

	// MisrouteAfter tunes nonminimal routing. Zero (default) follows the
	// routing relation as-is: the output policy picks among whatever the
	// relation offers, minimal or not. A positive value makes headers
	// prefer distance-reducing ("profitable") outputs and take a detour
	// only after waiting that many cycles — the discipline that routes
	// around faults and congestion with a nonminimal relation (e.g.
	// turn-set routing with minimal=false) without inflating paths at
	// low load. Livelock freedom holds for every turn-model relation
	// either way: their routes follow strictly monotone channel numbers,
	// so a packet can never revisit a channel (Section 2).
	MisrouteAfter int64

	// StrictAdvance disables chained advance: by default (false) a
	// worm's trailing flits may move into buffers freed in the same
	// cycle — the paper's synchronized-worm behaviour — while in strict
	// mode a flit may only enter a buffer that had space at the start of
	// the cycle. Strict mode exists as an ablation.
	StrictAdvance bool

	// WarmupCycles and MeasureCycles set the measurement window. Both
	// must be positive unless a Script is given.
	WarmupCycles, MeasureCycles int64

	// DrainDeadline caps the post-measurement drain when Script is set:
	// the run ends when all scripted packets are delivered, deadlock is
	// detected, or the deadline passes.
	DrainDeadline int64

	// Seed makes the run reproducible.
	Seed int64

	// DeadlockThreshold is the number of consecutive cycles without any
	// flit movement, while flits are in flight, after which the run is
	// declared deadlocked (default 10000).
	DeadlockThreshold int64

	// Script, if non-nil, replaces stochastic generation with the given
	// messages.
	Script []ScriptedMessage

	// Observer, if non-nil, receives simulation events (injections,
	// allocations, flit forwards, deliveries). Only an observer selects
	// the per-flit move path, whose Forward order it pins: results are
	// the same, but a run that would otherwise move worms as trains (one
	// virtual channel, 1-flit wormhole buffers, chained advance) is slower.
	Observer Observer

	// FaultPlan, if non-nil, schedules channel faults and repairs on
	// simulated-cycle timestamps: the engine applies due events at the
	// top of every cycle through the topology's DisableChannel/
	// EnableChannel fault-epoch path, so routing tables recompile and
	// candidate caches invalidate exactly as for static faults. The plan
	// is validated against the topology at construction. Run restores
	// the topology's pre-run fault state on exit, so the same topology
	// can host further runs.
	FaultPlan *fault.Plan

	// RecoveryThreshold, when positive, arms the per-worm progress
	// watchdog: a packet none of whose flits advanced for this many
	// cycles while its header sits unallocated is aborted regressively —
	// its in-network flits are drained, its held output channels
	// released — and re-injected at the source after a backoff, up to
	// RetryLimit times. Zero (the default) disables recovery entirely;
	// the engine is then bit-identical to earlier versions. Must exceed
	// RouterDelay when set (a header is not even eligible for allocation
	// before that).
	RecoveryThreshold int64

	// RetryLimit bounds source-level re-injections per packet when
	// recovery is enabled: a packet aborted more than RetryLimit times
	// is dropped (counted in Result.PacketsDropped). Zero picks the
	// default of 8; a negative value drops on the first abort.
	RetryLimit int

	// RetryBackoff is the base re-injection delay in cycles after an
	// abort; the actual delay doubles with each retry of the same packet
	// (capped at 8x the base). Zero picks RecoveryThreshold.
	RetryBackoff int64

	// CheckInvariants runs the engine's structural invariant checker
	// (flit conservation, channel-hold bijection, buffer bounds; see
	// Engine.CheckInvariants) periodically during the run and once at
	// the end, recording the first violation in
	// Result.InvariantViolation. Intended for tests and the -check
	// flags; it scans every buffer, so leave it off in benchmarks.
	CheckInvariants bool

	// Metrics, if non-nil, attaches a counter collector to the run: the
	// engine binds it at construction and fills its per-router and
	// per-channel counters, time series and latency histogram over the
	// whole run (cycle zero onward). Its channel counters are the
	// engine's own link counts, and its network-wide totals are copied
	// from the engine's. Attaching a collector never changes simulation
	// results or the move path: a worm-train-class run stays on the
	// train path. The Observer interface remains the tracing path.
	Metrics *metrics.Collector

	// Stop, if non-nil, is polled once every 1024 cycles; when it
	// returns true the run ends early with Result.Stopped set. It is
	// the cooperative cancellation hook for callers that host
	// long-running simulations (the turnserver's per-job cancellation):
	// the engine still tears down normally — fault state restored —
	// and a stopped run's measurements cover
	// only the cycles that actually ran, so callers should treat the
	// result as partial. Leaving it nil costs nothing.
	Stop func() bool
}

func (c *Config) withDefaults() (Config, error) {
	cfg := *c
	if cfg.Algorithm == nil && cfg.VCAlgorithm == nil {
		return cfg, fmt.Errorf("sim: config requires an Algorithm or a VCAlgorithm")
	}
	if cfg.Algorithm != nil && cfg.VCAlgorithm != nil {
		return cfg, fmt.Errorf("sim: set only one of Algorithm and VCAlgorithm")
	}
	if len(cfg.Lengths) == 0 {
		cfg.Lengths = []int{10, 200}
		cfg.LengthWeights = []float64{0.5, 0.5}
	}
	if len(cfg.LengthWeights) == 0 {
		cfg.LengthWeights = make([]float64, len(cfg.Lengths))
		for i := range cfg.LengthWeights {
			cfg.LengthWeights[i] = 1
		}
	}
	if len(cfg.LengthWeights) != len(cfg.Lengths) {
		return cfg, fmt.Errorf("sim: %d lengths but %d weights", len(cfg.Lengths), len(cfg.LengthWeights))
	}
	for _, l := range cfg.Lengths {
		if l < 1 {
			return cfg, fmt.Errorf("sim: packet length %d < 1", l)
		}
	}
	if cfg.BufferDepth == 0 {
		cfg.BufferDepth = 1
	}
	if cfg.BufferDepth < 0 {
		return cfg, fmt.Errorf("sim: negative buffer depth")
	}
	if cfg.DeadlockThreshold == 0 {
		cfg.DeadlockThreshold = 10000
	}
	if cfg.RecoveryThreshold < 0 {
		return cfg, fmt.Errorf("sim: negative recovery threshold %d", cfg.RecoveryThreshold)
	}
	if cfg.RecoveryThreshold > 0 {
		if cfg.RecoveryThreshold <= cfg.RouterDelay {
			return cfg, fmt.Errorf("sim: recovery threshold %d must exceed router delay %d",
				cfg.RecoveryThreshold, cfg.RouterDelay)
		}
		if cfg.RetryLimit == 0 {
			cfg.RetryLimit = 8
		}
		if cfg.RetryBackoff < 0 {
			return cfg, fmt.Errorf("sim: negative retry backoff %d", cfg.RetryBackoff)
		}
		if cfg.RetryBackoff == 0 {
			cfg.RetryBackoff = cfg.RecoveryThreshold
		}
	}
	if cfg.Script == nil {
		if cfg.Pattern == nil {
			return cfg, fmt.Errorf("sim: config requires a Pattern or a Script")
		}
		if cfg.OfferedLoad <= 0 {
			return cfg, fmt.Errorf("sim: OfferedLoad must be positive, got %v", cfg.OfferedLoad)
		}
		if cfg.WarmupCycles <= 0 || cfg.MeasureCycles <= 0 {
			return cfg, fmt.Errorf("sim: warmup and measure cycles must be positive")
		}
	} else if cfg.DrainDeadline == 0 {
		cfg.DrainDeadline = 1 << 20
	}
	return cfg, nil
}

// validateAgainst runs the validation that needs the resolved topology:
// scripted endpoints must name real, distinct nodes and the fault
// plan's channels must exist. New calls it so malformed configurations
// fail at construction time with an error instead of panicking (or
// corrupting flat-array state) mid-run.
func (c *Config) validateAgainst(t *topology.Topology) error {
	for i, m := range c.Script {
		if err := t.CheckNode(m.Src); err != nil {
			return fmt.Errorf("sim: script message %d: src: %w", i, err)
		}
		if err := t.CheckNode(m.Dst); err != nil {
			return fmt.Errorf("sim: script message %d: dst: %w", i, err)
		}
		if m.Src == m.Dst {
			return fmt.Errorf("sim: script message %d: src == dst (%d)", i, m.Src)
		}
		if m.Length < 1 {
			return fmt.Errorf("sim: script message %d: length %d < 1", i, m.Length)
		}
	}
	if c.FaultPlan != nil {
		if err := c.FaultPlan.Validate(t); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	return nil
}

// vcAlgorithm returns the routing relation in virtual-channel form.
func (c *Config) vcAlgorithm() routing.VCAlgorithm {
	if c.VCAlgorithm != nil {
		return c.VCAlgorithm
	}
	return routing.AsVC(c.Algorithm)
}

// MeanLength returns the expected packet length in flits under the
// configured distribution.
func (c *Config) MeanLength() float64 {
	lengths := c.Lengths
	weights := c.LengthWeights
	if len(lengths) == 0 {
		lengths = []int{10, 200}
		weights = []float64{0.5, 0.5}
	}
	var sum, wsum float64
	for i, l := range lengths {
		w := 1.0
		if i < len(weights) {
			w = weights[i]
		}
		sum += w * float64(l)
		wsum += w
	}
	return sum / wsum
}
