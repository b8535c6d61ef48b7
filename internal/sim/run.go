package sim

import (
	"fmt"

	"turnmodel/internal/topology"
)

// Result summarizes one simulation run. Latencies are in microseconds
// and throughput in flits delivered per microsecond network-wide, the
// units of Figures 13-16.
type Result struct {
	// Config echoes the run parameters.
	Algorithm string
	Pattern   string
	// OfferedLoad is the applied load in flits/us/node.
	OfferedLoad float64

	// Throughput is the measured network throughput in flits/us
	// delivered during the measurement window.
	Throughput float64
	// AvgLatency is the mean message latency in us from generation
	// (including source queueing) to tail delivery.
	AvgLatency float64
	// AvgNetLatency is the mean latency from header injection to tail
	// delivery.
	AvgNetLatency float64
	// MaxLatency is the largest message latency observed, in us.
	MaxLatency float64
	// LatencyP50, LatencyP95 and LatencyP99 are latency percentiles in
	// us over the measurement window.
	LatencyP50, LatencyP95, LatencyP99 float64
	// AvgHops is the mean number of network channels traversed.
	AvgHops float64

	// PacketsDelivered counts packets delivered in the measurement window
	// (a scripted run's is the whole run); PacketsGenerated counts the
	// whole run's generations, like PacketsGeneratedTotal.
	PacketsDelivered int64
	PacketsGenerated int64

	// Sustainable reports the paper's criterion: the number of packets
	// queued at their source processors stays small and bounded. For a
	// stochastic run it is true when the run did not deadlock and the
	// source backlog grew by at most 5% of the flits generated during
	// measurement plus 2 flits per node. A scripted run has no
	// generation rate to compare against; it is sustainable when it did
	// not deadlock.
	Sustainable bool
	// BacklogGrowth is the growth of queued source flits over the
	// measurement window.
	BacklogGrowth int64

	// Stopped reports that Config.Stop ended the run before its
	// configured window completed; the measurements cover only the
	// cycles that ran and should be treated as partial.
	Stopped bool

	// Deadlocked reports that no flit moved for DeadlockThreshold cycles
	// while traffic was in flight. With recovery enabled
	// (Config.RecoveryThreshold > 0) stalled worms are aborted and
	// retried instead, so deadlock becomes one outcome among recovered,
	// dropped and delivered; even then a deadlocked result remains
	// possible (e.g. a retry backoff longer than the deadlock threshold
	// on an otherwise idle network).
	Deadlocked bool
	// DeadlockCycle is the cycle deadlock was declared, if any.
	DeadlockCycle int64

	// Recoveries counts worms the recovery watchdog aborted
	// regressively, Retries the re-injections released after backoff,
	// PacketsDropped the packets whose retry budget ran out, and
	// FlitsDrained the flits recovery removed from network buffers. All
	// zero when recovery is disabled.
	Recoveries     int64
	Retries        int64
	PacketsDropped int64
	FlitsDrained   int64

	// StrandedFlits counts flits still sitting in network buffers when
	// the run ended — nonzero for deadlocked or deadline-capped runs,
	// where it measures how much traffic died in the network.
	StrandedFlits int64

	// PacketsGeneratedTotal and PacketsDeliveredTotal count generations
	// and deliveries over the whole run, not just the measurement
	// window, and PacketsInFlight the packets generated but neither
	// delivered nor dropped by the end. Together with PacketsDropped
	// they account for every generated packet:
	// PacketsGeneratedTotal == PacketsDeliveredTotal + PacketsDropped +
	// PacketsInFlight.
	PacketsGeneratedTotal int64
	PacketsDeliveredTotal int64
	PacketsInFlight       int64

	// InvariantViolation holds the first structural invariant violation
	// detected when Config.CheckInvariants was set, or "" for a clean
	// run (and always "" when the checker was off).
	InvariantViolation string

	// Cycles is the total number of simulated cycles.
	Cycles int64

	// MaxChannelUtilization is the busiest network channel's fraction of
	// cycles carrying a flit during the measurement window, and
	// HottestChannel identifies it. Ejection channels are excluded.
	MaxChannelUtilization float64
	HottestChannel        topology.Channel
}

func (r Result) String() string {
	status := "sustainable"
	if r.Deadlocked {
		status = fmt.Sprintf("DEADLOCK@%d", r.DeadlockCycle)
	} else if !r.Sustainable {
		status = "saturated"
	}
	if r.Recoveries > 0 || r.PacketsDropped > 0 {
		status += fmt.Sprintf(" recoveries=%d retries=%d dropped=%d", r.Recoveries, r.Retries, r.PacketsDropped)
	}
	if r.InvariantViolation != "" {
		status += " INVARIANT-VIOLATION"
	}
	return fmt.Sprintf("%s/%s offered=%.2f flits/us/node: throughput=%.1f flits/us latency=%.2f us (net %.2f) hops=%.2f [%s]",
		r.Algorithm, r.Pattern, r.OfferedLoad, r.Throughput, r.AvgLatency, r.AvgNetLatency, r.AvgHops, status)
}

// step advances the simulation by one cycle's phases: fault-plan
// application and deadlock recovery (both usually disabled and then
// free), message generation, output allocation, link reset, and flit
// movement. The caller owns the cycle counter (it increments e.cycle
// afterwards). Faults and recovery run first, so allocation always sees
// a consistent fault set and drained buffers, and recovery observer
// events precede every other event of the same cycle.
func (e *Engine) step() {
	if e.faults != nil {
		e.advanceFaults()
	}
	if e.cfg.RecoveryThreshold > 0 {
		e.recoverStep()
	}
	e.generate()
	e.allocate()
	// Reset only the link and injection usage flags set last cycle.
	for _, i := range e.dirtyLinks {
		e.linkUsed[i] = false
	}
	e.dirtyLinks = e.dirtyLinks[:0]
	for _, i := range e.dirtyInj {
		e.injUsed[i] = false
	}
	e.dirtyInj = e.dirtyInj[:0]
	e.move()
	if e.m != nil {
		e.m.EndCycle()
		// The backlog scan is deferred behind SampleDue so it runs only
		// at the sampling cadence, not every cycle.
		if e.m.SampleDue(e.cycle) {
			e.syncMetrics()
			e.m.TakeSample(e.cycle, int64(e.inFlight), e.backlogFlits())
		}
	}
}

// syncMetrics copies the engine's network-wide totals into the attached
// collector, which keeps no count of its own for them.
func (e *Engine) syncMetrics() {
	e.m.InjectedFlits = e.flitsInjectedEver
	e.m.DeliveredFlits = e.flitsDeliveredEver
	e.m.Recoveries = e.recov.recoveries
	e.m.Retries = e.recov.retries
	e.m.PacketsDropped = e.recov.drops
	e.m.DrainedFlits = e.recov.flitsDrained
}

// openWindow opens the measurement window. Its flit counts are whole-run
// counters minus the snapshots taken here.
func (e *Engine) openWindow() {
	s := &e.stats
	s.measuring = true
	s.windowStart = e.cycle
	s.backlogStartFlits = e.backlogFlits()
	s.deliveredStart = e.flitsDeliveredEver
	s.generatedStart = s.flitsGenerated
	if e.countLinks {
		e.linkStart = append([]int64(nil), e.linkFlits...)
	}
	e.countLinks = true
}

// Run executes the configured simulation to completion and returns its
// measurements.
func Run(cfg Config) (Result, error) {
	e, err := New(cfg)
	if err != nil {
		return Result{}, err
	}
	return e.run(), nil
}

func (e *Engine) run() Result {
	defer e.restoreFaults() // heal whatever the fault plan left disabled
	res := Result{
		Algorithm:   e.alg.Name(),
		OfferedLoad: e.cfg.OfferedLoad,
	}
	if e.cfg.Pattern != nil {
		res.Pattern = e.cfg.Pattern.Name()
	} else {
		res.Pattern = "scripted"
	}

	end := e.cfg.WarmupCycles + e.cfg.MeasureCycles
	scripted := e.script != nil
	if scripted {
		// Scripted runs measure everything from cycle zero.
		e.openWindow()
	}
	for {
		if e.cfg.Stop != nil && e.cycle&1023 == 0 && e.cfg.Stop() {
			res.Stopped = true
			break
		}
		if scripted {
			done := e.scriptAt == len(e.script) && e.inFlight == 0
			if done || e.cycle >= e.cfg.DrainDeadline {
				break
			}
		} else {
			if e.cycle >= end {
				break
			}
			if e.cycle == e.cfg.WarmupCycles {
				e.openWindow()
			}
		}

		e.step()

		if e.cfg.CheckInvariants && e.cycle%1024 == 1023 {
			e.checkInvariantsNow("periodic")
		}
		if e.inFlight > 0 && e.cycle-e.lastMove >= e.cfg.DeadlockThreshold {
			res.Deadlocked = true
			res.DeadlockCycle = e.cycle
			break
		}
		e.cycle++
	}

	res.Cycles = e.cycle
	s := &e.stats
	if e.cfg.CheckInvariants {
		e.checkInvariantsNow("end of run")
	}
	if e.m != nil {
		e.syncMetrics()
	}
	res.Recoveries = e.recov.recoveries
	res.Retries = e.recov.retries
	res.PacketsDropped = e.recov.drops
	res.FlitsDrained = e.recov.flitsDrained
	res.StrandedFlits = e.flitsInjectedEver - e.flitsDeliveredEver - e.recov.flitsDrained
	res.PacketsGenerated = e.nextPktID
	res.PacketsGeneratedTotal = e.nextPktID
	res.PacketsDeliveredTotal = s.totalDeliveredEver
	res.PacketsInFlight = int64(e.inFlight)
	res.InvariantViolation = e.invariantErr
	// A window that never opened (the run ended in warmup) counted
	// nothing.
	var delivered, generated int64
	if s.measuring {
		delivered = e.flitsDeliveredEver - s.deliveredStart
		generated = s.flitsGenerated - s.generatedStart
	}
	if scripted {
		res.PacketsDelivered = s.totalDeliveredEver
		res.Sustainable = !res.Deadlocked
		if s.packetsDelivered > 0 {
			res.AvgLatency = s.sumLatency / float64(s.packetsDelivered) / CyclesPerMicrosecond
			res.AvgNetLatency = s.sumNetLatency / float64(s.packetsDelivered) / CyclesPerMicrosecond
			res.AvgHops = s.sumHops / float64(s.packetsDelivered)
			res.MaxLatency = s.maxLatency / CyclesPerMicrosecond
			res.LatencyP50 = s.latencies.Percentile(0.50) / CyclesPerMicrosecond
			res.LatencyP95 = s.latencies.Percentile(0.95) / CyclesPerMicrosecond
			res.LatencyP99 = s.latencies.Percentile(0.99) / CyclesPerMicrosecond
		}
		if e.cycle > 0 {
			res.Throughput = float64(delivered) / (float64(e.cycle) / CyclesPerMicrosecond)
			// Scripted runs measure from cycle zero, so the whole run is
			// the utilization window.
			res.MaxChannelUtilization, res.HottestChannel = e.hottestChannel(e.cycle)
		}
		return res
	}
	// Deadlocked (or otherwise truncated) runs measure over the cycles
	// actually simulated inside the window, so their partial throughput
	// and utilization are meaningful instead of diluted by the cycles
	// that never ran. Completed runs see exactly MeasureCycles here.
	window := e.cfg.MeasureCycles
	if res.Deadlocked && s.measuring {
		if w := e.cycle - s.windowStart; w > 0 && w < window {
			window = w
		}
	}
	measureUs := float64(window) / CyclesPerMicrosecond
	res.Throughput = float64(delivered) / measureUs
	if s.packetsDelivered > 0 {
		res.AvgLatency = s.sumLatency / float64(s.packetsDelivered) / CyclesPerMicrosecond
		res.AvgNetLatency = s.sumNetLatency / float64(s.packetsDelivered) / CyclesPerMicrosecond
		res.AvgHops = s.sumHops / float64(s.packetsDelivered)
		res.MaxLatency = s.maxLatency / CyclesPerMicrosecond
		res.LatencyP50 = s.latencies.Percentile(0.50) / CyclesPerMicrosecond
		res.LatencyP95 = s.latencies.Percentile(0.95) / CyclesPerMicrosecond
		res.LatencyP99 = s.latencies.Percentile(0.99) / CyclesPerMicrosecond
	}
	res.PacketsDelivered = s.packetsDelivered
	if s.measuring {
		res.MaxChannelUtilization, res.HottestChannel = e.hottestChannel(window)
	}
	res.BacklogGrowth = e.backlogFlits() - s.backlogStartFlits
	res.Sustainable = !res.Deadlocked && float64(res.BacklogGrowth) <= 0.05*float64(generated)+float64(2*e.topo.Nodes())
	return res
}
