// Package turnmodel is a Go implementation of the turn model for
// adaptive routing (Glass & Ni), together with everything needed to
// reproduce the paper: mesh, torus and hypercube topologies; the
// nonadaptive xy/e-cube baselines; the partially adaptive west-first,
// north-last, negative-first, ABONF, ABOPL and p-cube algorithms; a
// channel-dependency-graph deadlock verifier; a cycle-accurate flit-level
// wormhole simulator; the paper's traffic patterns; and adaptiveness
// analysis.
//
// This root package is a facade re-exporting the library surface from
// the internal packages. Typical use:
//
//	mesh := turnmodel.NewMesh(16, 16)
//	alg := turnmodel.NewNegativeFirst(mesh)
//	fmt.Println(turnmodel.CheckDeadlockFree(alg))
//	res, _ := turnmodel.Simulate(turnmodel.SimConfig{
//		Algorithm:   alg,
//		Pattern:     turnmodel.NewMeshTranspose(mesh),
//		OfferedLoad: 1.5, WarmupCycles: 10000, MeasureCycles: 40000,
//	})
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record.
package turnmodel

import (
	"io"

	"turnmodel/internal/adapt"
	"turnmodel/internal/analytic"
	"turnmodel/internal/core"
	"turnmodel/internal/deadlock"
	"turnmodel/internal/routing"
	"turnmodel/internal/sim"
	"turnmodel/internal/topology"
	"turnmodel/internal/traffic"
)

// Topologies.

// Topology is an n-dimensional mesh or k-ary n-cube; see NewMesh,
// NewTorus and NewHypercube.
type Topology = topology.Topology

// NodeID identifies a node.
type NodeID = topology.NodeID

// Coord is a coordinate vector.
type Coord = topology.Coord

// Direction is a movement along one dimension.
type Direction = topology.Direction

// Channel is a unidirectional network channel.
type Channel = topology.Channel

// NewMesh returns an n-dimensional mesh with the given side lengths.
func NewMesh(dims ...int) *Topology { return topology.NewMesh(dims...) }

// NewTorus returns a k-ary n-cube.
func NewTorus(k, n int) *Topology { return topology.NewTorus(k, n) }

// NewHypercube returns a binary n-cube.
func NewHypercube(n int) *Topology { return topology.NewHypercube(n) }

// Routing algorithms.

// Algorithm is a routing relation bound to a topology.
type Algorithm = routing.Algorithm

// InPort describes how a packet arrived at a router.
type InPort = routing.InPort

// NewDimensionOrder returns nonadaptive dimension-order routing: the xy
// algorithm on 2D meshes, e-cube on hypercubes.
func NewDimensionOrder(t *Topology) Algorithm { return routing.NewDimensionOrder(t) }

// NewWestFirst returns the west-first algorithm for 2D meshes
// (Section 3.1).
func NewWestFirst(t *Topology) Algorithm { return routing.NewWestFirst(t) }

// NewNorthLast returns the north-last algorithm for 2D meshes
// (Section 3.2).
func NewNorthLast(t *Topology) Algorithm { return routing.NewNorthLast(t) }

// NewNegativeFirst returns the negative-first algorithm for
// n-dimensional meshes (Section 3.3 and 4.1); on hypercubes it is the
// p-cube algorithm of Section 5.
func NewNegativeFirst(t *Topology) Algorithm { return routing.NewNegativeFirst(t) }

// NewABONF returns the all-but-one-negative-first algorithm
// (Section 4.1) excluding the given dimension from the first phase.
func NewABONF(t *Topology, excluded int) Algorithm { return routing.NewABONF(t, excluded) }

// NewABOPL returns the all-but-one-positive-last algorithm
// (Section 4.1) with the given special dimension.
func NewABOPL(t *Topology, special int) Algorithm { return routing.NewABOPL(t, special) }

// NewPCube returns the minimal p-cube algorithm in its bitwise Figure 11
// form (equivalent to NewNegativeFirst on the same hypercube).
func NewPCube(t *Topology) Algorithm { return routing.NewPCube(t) }

// NewFullyAdaptive returns the minimal fully adaptive relation — NOT
// deadlock free without extra channels; the adaptiveness reference.
func NewFullyAdaptive(t *Topology) Algorithm { return routing.NewFullyAdaptive(t) }

// NewWrapFirstHop extends a mesh algorithm to a k-ary n-cube, allowing
// wraparound channels only on the first hop (Section 4.2).
func NewWrapFirstHop(inner Algorithm) Algorithm { return routing.NewWrapFirstHop(inner) }

// NewNegativeFirstTorus returns negative-first routing on a torus with
// wraparound channels classified by routing direction (Section 4.2).
func NewNegativeFirstTorus(t *Topology) Algorithm { return routing.NewNegativeFirstTorus(t) }

// NewTurnSetRouting returns the routing relation induced by an arbitrary
// turn set — the general construction of Section 2. With minimal=false
// the relation is nonminimal: more adaptive and fault tolerant.
func NewTurnSetRouting(t *Topology, set *TurnSet, minimal bool) Algorithm {
	return routing.NewTurnGraphRouting(t, set, minimal)
}

// Walk traces one packet's route; sel nil uses the paper's
// lowest-dimension output selection.
func Walk(alg Algorithm, src, dst NodeID, sel Selector) ([]NodeID, error) {
	return routing.Walk(alg, src, dst, sel)
}

// Selector picks one candidate direction during a Walk.
type Selector = routing.Selector

// GreedySelector prefers profitable candidates; useful with nonminimal
// relations.
func GreedySelector(t *Topology) Selector { return routing.GreedySelector(t) }

// FormatPath renders a node path with coordinates.
func FormatPath(t *Topology, path []NodeID) string { return routing.FormatPath(t, path) }

// Turn model.

// TurnSet records which turns are allowed in an n-dimensional mesh.
type TurnSet = core.Set

// Turn is an ordered pair of directions.
type Turn = core.Turn

// NewTurnSet returns a set with every 90-degree turn allowed.
func NewTurnSet(n int) *TurnSet { return core.NewSet(n) }

// WestFirstTurns, NorthLastTurns and NegativeFirstTurns are the
// allowed-turn sets of Figures 5a, 9a and 10a.
func WestFirstTurns() *TurnSet { return core.WestFirstSet() }

// NorthLastTurns returns the north-last turn set (Figure 9a).
func NorthLastTurns() *TurnSet { return core.NorthLastSet() }

// NegativeFirstTurns returns the negative-first turn set for n
// dimensions (Figure 10a for n=2).
func NegativeFirstTurns(n int) *TurnSet { return core.NegativeFirstSet(n) }

// AbstractCycles enumerates the n(n-1) abstract turn cycles of an
// n-dimensional mesh (Figure 2).
func AbstractCycles(n int) []core.Cycle { return core.AbstractCycles(n) }

// Deadlock analysis.

// DeadlockResult summarizes a deadlock-freedom check.
type DeadlockResult = deadlock.Result

// CheckDeadlockFree builds the channel dependency graph of alg and
// reports whether it is acyclic (Dally-Seitz condition).
func CheckDeadlockFree(alg Algorithm) DeadlockResult { return deadlock.Check(alg) }

// CheckTurnSetDeadlockFree checks the destination-free relation induced
// by a turn set, the sense in which Figure 4's six turns allow deadlock.
func CheckTurnSetDeadlockFree(t *Topology, set *TurnSet) DeadlockResult {
	return deadlock.CheckTurnSet(t, set)
}

// Simulation.

// SimConfig parameterizes a wormhole simulation run (Section 6 model).
type SimConfig = sim.Config

// SimResult is a run's measurements.
type SimResult = sim.Result

// ScriptedMessage injects one specific message in a scripted run.
type ScriptedMessage = sim.ScriptedMessage

// Simulate runs one wormhole simulation.
func Simulate(cfg SimConfig) (SimResult, error) { return sim.Run(cfg) }

// Traffic patterns.

// Pattern selects message destinations.
type Pattern = traffic.Pattern

// NewUniform returns the uniform pattern.
func NewUniform(t *Topology) Pattern { return traffic.NewUniform(t) }

// NewMeshTranspose returns the matrix-transpose pattern for square 2D
// meshes.
func NewMeshTranspose(t *Topology) Pattern { return traffic.NewMeshTranspose(t) }

// NewHypercubeTranspose returns the paper's embedded matrix-transpose
// pattern for hypercubes.
func NewHypercubeTranspose(t *Topology) Pattern { return traffic.NewHypercubeTranspose(t) }

// NewReverseFlip returns the reverse-flip pattern for hypercubes.
func NewReverseFlip(t *Topology) Pattern { return traffic.NewReverseFlip(t) }

// NewBitComplement returns the coordinate-complement pattern.
func NewBitComplement(t *Topology) Pattern { return traffic.NewBitComplement(t) }

// NewHotspot returns a pattern directing fraction p of traffic at hot.
func NewHotspot(t *Topology, hot NodeID, p float64) Pattern { return traffic.NewHotspot(t, hot, p) }

// Adaptiveness analysis.

// CountShortestPaths exhaustively counts the shortest paths a relation
// allows between two nodes (S_algorithm of Section 3.4).
func CountShortestPaths(alg Algorithm, src, dst NodeID) int64 {
	return adapt.CountShortestPaths(alg, src, dst).Int64()
}

// Virtual channels (Step 1 of the turn model treats multiple channels
// per physical direction as distinct virtual directions).

// VCAlgorithm is a routing relation over virtual channels.
type VCAlgorithm = routing.VCAlgorithm

// VirtualDirection is one virtual channel of a physical direction.
type VirtualDirection = routing.VirtualDirection

// NewDatelineDOR returns minimal dimension-order torus routing with two
// virtual channels per physical channel, deadlock free by the
// Dally-Seitz dateline discipline — the extra-channel approach the paper
// contrasts the turn model with (Section 4.2).
func NewDatelineDOR(t *Topology) VCAlgorithm { return routing.NewDatelineDOR(t) }

// NewTorusDOR returns minimal dimension-order torus routing WITHOUT
// virtual channels; it is not deadlock free (Section 4.2's
// impossibility) and exists for demonstration.
func NewTorusDOR(t *Topology) Algorithm { return routing.NewTorusDOR(t) }

// VCDeadlockResult summarizes a virtual-channel deadlock check.
type VCDeadlockResult = deadlock.VCResult

// CheckVCDeadlockFree builds the virtual channel dependency graph of a
// VC-aware relation and reports whether it is acyclic.
func CheckVCDeadlockFree(alg VCAlgorithm) VCDeadlockResult { return deadlock.CheckVC(alg) }

// Switching and policy knobs of the simulator.

// Switching selects wormhole, store-and-forward or virtual cut-through
// flow control.
type Switching = sim.Switching

// The switching techniques of the introduction's latency comparison.
const (
	Wormhole          = sim.Wormhole
	StoreAndForward   = sim.StoreAndForward
	VirtualCutThrough = sim.VirtualCutThrough
)

// OutputPolicy selects among available output channels.
type OutputPolicy = sim.OutputPolicy

// InputPolicy arbitrates among waiting header flits.
type InputPolicy = sim.InputPolicy

// Analysis.

// TopologySummary describes a topology's static figures of merit.
type TopologySummary = analytic.Summary

// SummarizeTopology computes channel count, bisection width, diameter
// and average minimal hops (the Section 1 comparison).
func SummarizeTopology(t *Topology) TopologySummary { return analytic.Summarize(t) }

// ChannelLoads computes per-channel expected traversal rates under a
// deterministic pattern with flow split evenly among a relation's
// candidates; see SaturationBound.
func ChannelLoads(alg Algorithm, pat Pattern) []float64 { return analytic.ChannelLoads(alg, pat) }

// UniformChannelLoads is ChannelLoads under uniform traffic.
func UniformChannelLoads(alg Algorithm) []float64 { return analytic.UniformChannelLoads(alg) }

// MaxChannelLoad returns the largest channel load and its channel.
func MaxChannelLoad(t *Topology, loads []float64) (float64, Channel) {
	return analytic.MaxLoad(t, loads)
}

// SaturationBound converts a maximum channel load into an upper bound on
// sustainable injection in flits/us per traffic-generating node.
func SaturationBound(maxLoad float64) float64 { return analytic.SaturationBound(maxLoad) }

// Workload traces: record the stochastic workload once and replay it
// against different algorithms (common random numbers).

// RecordWorkload generates the message workload a configuration would
// produce over the given horizon in cycles, without simulating the
// network; replay it via SimConfig.Script. Each message's Cycle is the
// cycle the stochastic run enqueues it, so a replay on the same
// configuration with deterministic selection policies moves every flit
// as that run does, and reads each latency one cycle shorter (the run
// counts from its generation time rounded down).
func RecordWorkload(cfg SimConfig, horizon int64) ([]ScriptedMessage, error) {
	return sim.RecordWorkload(cfg, horizon)
}

// WriteTrace serializes messages in the one-line-per-message trace
// format; ReadTrace parses it back.
func WriteTrace(w io.Writer, msgs []ScriptedMessage) error { return sim.WriteTrace(w, msgs) }

// ReadTrace parses a workload trace.
func ReadTrace(r io.Reader) ([]ScriptedMessage, error) { return sim.ReadTrace(r) }

// RenderPath draws a route on a 2D mesh as ASCII art in the style of
// the paper's example-path figures.
func RenderPath(t *Topology, path []NodeID) string { return routing.RenderPathGrid(t, path) }

// NewDoubleY returns the fully adaptive double-y-channel relation for
// 2D meshes — the turn model applied to a network with one extra y
// channel (the companion work the paper's Section 2 previews). Verify
// with CheckVCDeadlockFree; simulate via SimConfig.VCAlgorithm.
func NewDoubleY(t *Topology) VCAlgorithm { return routing.NewDoubleY(t) }

// Simulation observation.

// SimObserver receives simulation events for debugging and custom
// measurement; see ObserverFuncs for a field-wise adapter.
type SimObserver = sim.Observer

// ObserverFuncs adapts individual callbacks to SimObserver.
type ObserverFuncs = sim.ObserverFuncs

// ChannelOccupancy accumulates per-channel flit counts from a run.
type ChannelOccupancy = sim.ChannelOccupancy

// NewChannelOccupancy returns an occupancy recorder for t; pass its
// Observer to SimConfig.Observer.
func NewChannelOccupancy(t *Topology) *ChannelOccupancy { return sim.NewChannelOccupancy(t) }
