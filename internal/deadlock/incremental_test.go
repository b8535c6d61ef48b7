package deadlock

import (
	"math/rand"
	"testing"

	"turnmodel/internal/core"
	"turnmodel/internal/topology"
)

// TestIncrementalGrayWalkAgreesWithRebuild walks the entire 2D design
// space in Gray-code order, toggling one turn family per step, and
// checks at every step that the incremental verdict and edge count
// match a from-scratch BuildTurnCDG of the same set.
func TestIncrementalGrayWalkAgreesWithRebuild(t *testing.T) {
	topo := topology.NewMesh(6, 6)
	ic := NewIncrementalTurn(topo, core.SetFromKey2D(core.GrayKey2D(0)))
	turns := core.AllTurns(2)
	prev := core.GrayKey2D(0)
	for i := 0; i < core.NumSets2D; i++ {
		key := core.GrayKey2D(i)
		if i > 0 {
			diff := key ^ prev
			bit := 0
			for diff>>uint(bit) != 1 {
				bit++
			}
			ic.SetAllowed(turns[bit], key&(1<<uint(bit)) == 0)
		}
		prev = key
		set := core.SetFromKey2D(key)
		want := CheckTurnSet(topo, set)
		if got := ic.Acyclic(); got != want.DeadlockFree {
			t.Fatalf("key %#02x: incremental acyclic=%v, rebuild says %v", key, got, want.DeadlockFree)
		}
		if got := ic.NumEdges(); got != want.Edges {
			t.Fatalf("key %#02x: incremental has %d edges, rebuild has %d", key, got, want.Edges)
		}
	}
}

// TestIncrementalRandomToggles applies a long random sequence of
// single-turn toggles (not restricted to Gray adjacency, so arbitrary
// jumps between cyclic and acyclic states) and cross-checks the verdict
// against a rebuild at every step.
func TestIncrementalRandomToggles(t *testing.T) {
	topo := topology.NewMesh(5, 4)
	rng := rand.New(rand.NewSource(9))
	turns := core.AllTurns(2)
	key := uint16(0)
	ic := NewIncrementalTurn(topo, core.SetFromKey2D(key))
	for step := 0; step < 2000; step++ {
		bit := rng.Intn(8)
		key ^= 1 << uint(bit)
		ic.SetAllowed(turns[bit], key&(1<<uint(bit)) == 0)
		want := CheckTurnSet(topo, core.SetFromKey2D(key))
		if got := ic.Acyclic(); got != want.DeadlockFree {
			t.Fatalf("step %d key %#02x: incremental acyclic=%v, rebuild says %v", step, key, got, want.DeadlockFree)
		}
		if got := ic.NumEdges(); got != want.Edges {
			t.Fatalf("step %d key %#02x: %d edges, rebuild has %d", step, key, got, want.Edges)
		}
	}
}

// TestIncrementalSync jumps directly between distant sets (multi-turn
// deltas in one call) and checks each landing state, including the
// named sets and the fully prohibited extreme.
func TestIncrementalSync(t *testing.T) {
	topo := topology.NewMesh(6, 6)
	ic := NewIncrementalTurn(topo, nil)
	jumps := []*core.Set{
		core.WestFirstSet(),
		core.SetFromKey2D(0xff),
		core.Figure4Set(),
		core.FullyAdaptiveSet(2),
		core.DimensionOrderSet(2),
		core.NegativeFirstSet(2),
		core.SetFromKey2D(0x0f),
		core.NorthLastSet(),
	}
	for _, set := range jumps {
		ic.Sync(set)
		want := CheckTurnSet(topo, set)
		if got := ic.Acyclic(); got != want.DeadlockFree {
			t.Fatalf("%s: incremental acyclic=%v, rebuild says %v", set.Name(), got, want.DeadlockFree)
		}
		if got := ic.NumEdges(); got != want.Edges {
			t.Fatalf("%s: %d edges, rebuild has %d", set.Name(), got, want.Edges)
		}
	}
}

// TestIncrementalRedundantUpdates: re-applying the current state is a
// no-op and keeps counts consistent.
func TestIncrementalRedundantUpdates(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	set := core.WestFirstSet()
	ic := NewIncrementalTurn(topo, set)
	base := ic.NumEdges()
	for _, tn := range core.AllTurns(2) {
		ic.SetAllowed(tn, set.Allowed(tn))
	}
	ic.Sync(set)
	if ic.NumEdges() != base {
		t.Fatalf("redundant updates changed edge count: %d -> %d", base, ic.NumEdges())
	}
	if !ic.Acyclic() {
		t.Fatal("west-first must stay acyclic")
	}
}

// TestCheckTurnSetWitnessRotation: the witness cycle starts at the
// channel with the lowest dense ID, and the result is stable across
// repeated checks despite map-iteration nondeterminism upstream.
func TestCheckTurnSetWitnessRotation(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	set := core.Figure4Set()
	first := CheckTurnSet(topo, set)
	if first.DeadlockFree {
		t.Fatal("figure-4 set must deadlock")
	}
	minID := topo.ChannelID(first.Cycle[0])
	for _, c := range first.Cycle {
		if topo.ChannelID(c) < minID {
			t.Fatalf("witness does not start at its lowest channel ID: %v", first.Cycle)
		}
	}
	for i := 0; i < 5; i++ {
		again := CheckTurnSet(topo, set)
		if len(again.Cycle) != len(first.Cycle) {
			t.Fatalf("witness length changed: %d vs %d", len(again.Cycle), len(first.Cycle))
		}
		for j := range again.Cycle {
			if again.Cycle[j] != first.Cycle[j] {
				t.Fatalf("witness not deterministic at position %d: %v vs %v", j, again.Cycle, first.Cycle)
			}
		}
	}
}

// BenchmarkScreen2D screens the whole 256-set 2D design space on a
// 16x16 mesh per op: "rebuild" builds the turn CDG afresh per set,
// "incremental" walks the sets in Gray-code order with one
// IncrementalTurn, as explore.Screen does. Both assert the 221
// deadlock-free sets, so a wrong answer can never pass as a fast one.
func BenchmarkScreen2D(b *testing.B) {
	const free = 221
	topo := topology.NewMesh(16, 16)
	b.Run("rebuild", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			acyclic := 0
			for key := 0; key < core.NumSets2D; key++ {
				if CheckTurnSet(topo, core.SetFromKey2D(uint16(key))).DeadlockFree {
					acyclic++
				}
			}
			if acyclic != free {
				b.Fatalf("rebuild screening found %d deadlock-free sets, want %d", acyclic, free)
			}
		}
	})
	b.Run("incremental", func(b *testing.B) {
		b.ReportAllocs()
		turns := core.AllTurns(2)
		for i := 0; i < b.N; i++ {
			ic := NewIncrementalTurn(topo, core.SetFromKey2D(0))
			acyclic := 0
			prev := uint16(0)
			for j := 0; j < core.NumSets2D; j++ {
				key := core.GrayKey2D(j)
				if j > 0 {
					bit := 0
					for (key^prev)>>uint(bit) != 1 {
						bit++
					}
					ic.SetAllowed(turns[bit], key&(1<<uint(bit)) == 0)
				}
				if ic.Acyclic() {
					acyclic++
				}
				prev = key
			}
			if acyclic != free {
				b.Fatalf("incremental screening found %d deadlock-free sets, want %d", acyclic, free)
			}
		}
	})
}
