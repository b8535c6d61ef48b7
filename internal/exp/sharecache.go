package exp

// Cross-leaf compile cache. A wide sweep runs dozens of leaf
// simulations over a handful of distinct (topology, algorithm) pairs,
// and each distinct pair costs a topology construction plus a route-
// table compilation (quadratic in the node count). Interning the
// instances here makes every leaf of every sweep in the process share
// one topology, one relation and — since routing keeps each relation's
// compiled table on its topology — one compiled table per distinct
// (topology, algorithm, fault epoch), instead of paying the setup per
// leaf or per sweep.
//
// Ownership rules:
//
//   - Shared instances are PRISTINE. A caller must never attach a
//     fault plan to, or otherwise mutate, a shared topology: the
//     instances are served concurrently to every sweep in the process,
//     and a fault epoch bump would invalidate every sharer's table
//     mid-run. Fault-mutating runs (degrade's campaign rows,
//     faultstorm-style chaos drivers) construct private copies — the
//     fault driver heals them afterwards, but even transient mutation
//     disqualifies an instance from sharing.
//   - The intern key includes the topology's fault epoch, so even if a
//     shared topology were mutated in violation of the rule above, a
//     later SharedAlgorithm call would intern (and compile) a fresh
//     instance rather than serve a relation whose table is stale.
//   - Shared instances, and so their compiled tables, live for the life
//     of the process.

import (
	"fmt"
	"sync"

	"turnmodel/internal/routing"
	"turnmodel/internal/topology"
)

var (
	sharedMu    sync.Mutex
	sharedTopos = map[string]*topology.Topology{}
	sharedAlgs  = map[string]routing.Algorithm{}
)

// SharedTopology interns the topology mk builds under its canonical
// name (e.g. "mesh16x16"): the first caller's instance is kept and
// every later caller with a structurally identical topology gets it
// back. Shared topologies must stay pristine — see the ownership rules
// above.
func SharedTopology(mk func() *topology.Topology) *topology.Topology {
	t := mk()
	sharedMu.Lock()
	defer sharedMu.Unlock()
	if got, ok := sharedTopos[t.String()]; ok {
		return got
	}
	sharedTopos[t.String()] = t
	return t
}

// SharedAlgorithm interns the relation mk builds on t under (topology,
// algorithm name, fault epoch). Relation names are parameter-qualified
// (e.g. "abonf(excl 2)", "turns(west-first,minimal)"), so the name
// distinguishes differently parameterized instances of one constructor.
// t should itself be a SharedTopology instance; interning a relation on
// a private topology would leak the private instance into every later
// sharer.
func SharedAlgorithm(t *topology.Topology, mk func(*topology.Topology) routing.Algorithm) routing.Algorithm {
	return internAlg(t, mk(t))
}

// SharedAlgorithms interns every relation of algs (all built on t), in
// order. It is the slice form of SharedAlgorithm for FigureSpec.Algs
// sets.
func SharedAlgorithms(t *topology.Topology, algs []routing.Algorithm) []routing.Algorithm {
	out := make([]routing.Algorithm, len(algs))
	for i, a := range algs {
		out[i] = internAlg(t, a)
	}
	return out
}

func internAlg(t *topology.Topology, alg routing.Algorithm) routing.Algorithm {
	key := fmt.Sprintf("%s@%d/%s", t.String(), t.FaultEpoch(), alg.Name())
	sharedMu.Lock()
	defer sharedMu.Unlock()
	if got, ok := sharedAlgs[key]; ok {
		return got
	}
	sharedAlgs[key] = alg
	return alg
}
