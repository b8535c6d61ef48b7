package routing

import (
	"math/rand"
	"testing"

	"turnmodel/internal/core"
	"turnmodel/internal/topology"
)

// TestTurnSetRoutingMatchesPhaseAlgorithms: the general turn-graph
// construction instantiated with the Figure 5a/9a/10a sets must offer
// exactly the same candidate sets as the dedicated phase implementations
// on every feasible state.
func TestTurnSetRoutingMatchesPhaseAlgorithms(t *testing.T) {
	topo := topology.NewMesh(5, 5)
	cases := []struct {
		phase Algorithm
		turns Algorithm
	}{
		{NewWestFirst(topo), NewTurnGraphRouting(topo, core.WestFirstSet(), true)},
		{NewNorthLast(topo), NewTurnGraphRouting(topo, core.NorthLastSet(), true)},
		{NewNegativeFirst(topo), NewTurnGraphRouting(topo, core.NegativeFirstSet(2), true)},
		{NewDimensionOrder(topo), NewTurnGraphRouting(topo, core.DimensionOrderSet(2), true)},
	}
	for _, c := range cases {
		for src := topology.NodeID(0); src < topology.NodeID(topo.Nodes()); src++ {
			for dst := topology.NodeID(0); dst < topology.NodeID(topo.Nodes()); dst++ {
				if src == dst {
					continue
				}
				var walkStates func(cur topology.NodeID, in InPort, seen map[[2]int]bool)
				walkStates = func(cur topology.NodeID, in InPort, seen map[[2]int]bool) {
					if cur == dst {
						return
					}
					a := CandidateList(c.phase, cur, dst, in)
					b := CandidateList(c.turns, cur, dst, in)
					if len(a) != len(b) {
						t.Fatalf("%s vs %s at %d->%d in=%v: %v vs %v",
							c.phase.Name(), c.turns.Name(), src, dst, in, a, b)
					}
					for i := range a {
						if a[i] != b[i] {
							t.Fatalf("%s vs %s at %d->%d in=%v: %v vs %v",
								c.phase.Name(), c.turns.Name(), src, dst, in, a, b)
						}
					}
					for _, d := range a {
						next, _ := topo.Neighbor(cur, d)
						key := [2]int{int(next), d.Index()}
						if !seen[key] {
							seen[key] = true
							walkStates(next, Arrived(d), seen)
						}
					}
				}
				walkStates(src, Injected, map[[2]int]bool{})
			}
		}
	}
}

// TestTurnSetRoutingConnectivity: each of the 12 deadlock-free
// one-turn-per-cycle prohibitions leaves every pair minimally routable;
// the four reverse-pair prohibitions disconnect some pairs in minimal
// mode (their deadlock, in minimal form, manifests as unroutability).
func TestTurnSetRoutingConnectivity(t *testing.T) {
	topo := topology.NewMesh(5, 5)
	reversePairs := 0
	for _, set := range core.OneTurnPerCyclePairs2D() {
		alg := NewTurnGraphRouting(topo, set, true)
		p := set.Prohibited()
		isReverse := len(p) == 2 && p[0].From == p[1].To && p[0].To == p[1].From
		if isReverse {
			reversePairs++
		}
		allRoutable := true
		for src := topology.NodeID(0); src < topology.NodeID(topo.Nodes()) && allRoutable; src++ {
			for dst := topology.NodeID(0); dst < topology.NodeID(topo.Nodes()); dst++ {
				if src != dst && !alg.CanRoute(src, dst) {
					allRoutable = false
					break
				}
			}
		}
		if isReverse && allRoutable {
			t.Errorf("%v: reverse pair should break minimal connectivity", set)
		}
		if !isReverse && !allRoutable {
			t.Errorf("%v: non-reverse pair should keep all pairs routable", set)
		}
	}
	if reversePairs != 4 {
		t.Errorf("found %d reverse pairs among the 16, want 4", reversePairs)
	}
}

// TestTurnSetRoutingNonminimalConnectivity: in nonminimal mode the 12
// deadlock-free one-turn-per-cycle sets route every pair. (The four
// reverse-pair sets break connectivity even nonminimally on a mesh —
// the boundary leaves no room for the three-left-turns detour — while
// still admitting waiting cycles in the interior, the Figure 4
// deadlock.)
func TestTurnSetRoutingNonminimalConnectivity(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	for _, set := range core.OneTurnPerCyclePairs2D() {
		p := set.Prohibited()
		if len(p) == 2 && p[0].From == p[1].To && p[0].To == p[1].From {
			continue // reverse pair: connectivity not guaranteed
		}
		alg := NewTurnGraphRouting(topo, set, false)
		for src := topology.NodeID(0); src < topology.NodeID(topo.Nodes()); src++ {
			for dst := topology.NodeID(0); dst < topology.NodeID(topo.Nodes()); dst++ {
				if src != dst && !alg.CanRoute(src, dst) {
					t.Fatalf("%v: nonminimal relation cannot route %d->%d", set, src, dst)
				}
			}
		}
	}
}

// TestTurnSetNonminimalWalksTerminate: greedy walks over nonminimal
// relations reach the destination.
func TestTurnSetNonminimalWalksTerminate(t *testing.T) {
	topo := topology.NewMesh(6, 6)
	alg := NewTurnGraphRouting(topo, core.WestFirstSet(), false)
	sel := GreedySelector(topo)
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 300; trial++ {
		src := topology.NodeID(rng.Intn(topo.Nodes()))
		dst := topology.NodeID(rng.Intn(topo.Nodes()))
		if src == dst {
			continue
		}
		path, err := Walk(alg, src, dst, sel)
		if err != nil {
			t.Fatalf("%d->%d: %v", src, dst, err)
		}
		if path[len(path)-1] != dst {
			t.Fatalf("walk ended at %d, want %d", path[len(path)-1], dst)
		}
	}
}

// TestTurnSetRoutingHonorsFaults: disabling a channel removes routes
// through it; the nonminimal relation detours; re-enabling restores the
// minimal route (cache invalidation).
func TestTurnSetRoutingHonorsFaults(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	src := topo.ID(topology.Coord{1, 3})
	dst := topo.ID(topology.Coord{6, 3})
	minimal := NewTurnGraphRouting(topo, core.WestFirstSet(), true)
	nonmin := NewTurnGraphRouting(topo, core.WestFirstSet(), false)

	if _, err := Walk(minimal, src, dst, nil); err != nil {
		t.Fatalf("healthy walk failed: %v", err)
	}
	broken := topology.Channel{From: topo.ID(topology.Coord{3, 3}), Dir: topology.Direction{Dim: 0, Pos: true}}
	topo.DisableChannel(broken)
	defer topo.EnableChannel(broken)

	if minimal.CanRoute(src, dst) {
		t.Error("minimal west-first should be disconnected by the row fault")
	}
	path, err := Walk(nonmin, src, dst, GreedySelector(topo))
	if err != nil {
		t.Fatalf("nonminimal detour failed: %v", err)
	}
	for i := 1; i < len(path); i++ {
		if path[i-1] == broken.From && path[i] == topo.ChannelTo(broken) {
			t.Fatal("detour used the disabled channel")
		}
	}

	topo.EnableChannel(broken)
	if !minimal.CanRoute(src, dst) {
		t.Error("re-enabling the channel should restore minimal routability")
	}
}

// TestTurnSetRoutingRespectsItsSet: no walk transition uses a prohibited
// turn, minimal or not.
func TestTurnSetRoutingRespectsItsSet(t *testing.T) {
	topo := topology.NewMesh(6, 6)
	rng := rand.New(rand.NewSource(11))
	for _, minimal := range []bool{true, false} {
		set := core.NorthLastSet()
		alg := NewTurnGraphRouting(topo, set, minimal)
		sel := GreedySelector(topo)
		for trial := 0; trial < 200; trial++ {
			src := topology.NodeID(rng.Intn(topo.Nodes()))
			dst := topology.NodeID(rng.Intn(topo.Nodes()))
			if src == dst {
				continue
			}
			path, err := Walk(alg, src, dst, sel)
			if err != nil {
				t.Fatal(err)
			}
			var prev *topology.Direction
			for i := 1; i < len(path); i++ {
				var d topology.Direction
				for dim := 0; dim < 2; dim++ {
					diff := topo.CoordOf(path[i], dim) - topo.CoordOf(path[i-1], dim)
					if diff != 0 {
						d = topology.Direction{Dim: dim, Pos: diff > 0}
					}
				}
				if prev != nil && !set.Allowed(core.Turn{From: *prev, To: d}) {
					t.Fatalf("walk used prohibited turn %v->%v on %v", *prev, d, path)
				}
				dd := d
				prev = &dd
			}
		}
	}
}

// TestCanRouteSelf: trivially true.
func TestCanRouteSelf(t *testing.T) {
	topo := topology.NewMesh(3, 3)
	alg := NewTurnGraphRouting(topo, core.WestFirstSet(), true)
	if !alg.CanRoute(4, 4) {
		t.Error("CanRoute(self) should be true")
	}
}

func TestTurnSetRoutingDimsMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for dims mismatch")
		}
	}()
	NewTurnGraphRouting(topology.NewMesh(4, 4, 4), core.WestFirstSet(), true)
}

// TestUnroutablePairsFastPathAgrees: UnroutablePairs answers turn-graph
// relations through their CanRoute fast path; it must count exactly
// what the reverse state search counts, for minimal and nonminimal
// relations, as faults accumulate.
func TestUnroutablePairsFastPathAgrees(t *testing.T) {
	sets := []*core.Set{core.WestFirstSet(), core.NorthLastSet(), core.NegativeFirstSet(2)}
	rng := rand.New(rand.NewSource(7))
	for _, set := range sets {
		for _, minimal := range []bool{true, false} {
			mesh := topology.NewMesh(6, 6)
			alg := NewTurnGraphRouting(mesh, set, minimal)
			var chans []topology.Channel
			mesh.Channels(func(c topology.Channel) { chans = append(chans, c) })
			seen := 0
			for round := 0; round < 6; round++ {
				for k := 0; k < 3; k++ {
					if err := mesh.DisableChannel(chans[rng.Intn(len(chans))]); err != nil {
						t.Fatal(err)
					}
				}
				fast, search := UnroutablePairs(alg), UnroutablePairsVC(AsVC(alg))
				if fast != search {
					t.Fatalf("%s round %d: fast path counts %d unroutable pairs, search %d", alg.Name(), round, fast, search)
				}
				seen += fast
			}
			if seen == 0 {
				t.Errorf("%s: no round left a pair unroutable; the comparison is vacuous", alg.Name())
			}
		}
	}
}
