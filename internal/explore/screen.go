// Package explore exhaustively explores the 2D turn-set design space:
// it enumerates all 256 subsets of the eight 90-degree turns, folds
// them into symmetry classes under the mesh isometry group, screens
// every class for deadlock freedom with an incrementally maintained
// channel dependency graph, and benchmarks the surviving
// representatives through the exp sweep machinery with a streamed,
// resumable checkpoint log. The cmd/turnscan binary is a thin wrapper.
package explore

import (
	"fmt"
	"sort"

	"turnmodel/internal/core"
	"turnmodel/internal/deadlock"
	"turnmodel/internal/routing"
	"turnmodel/internal/topology"
)

// Class is one symmetry class of 2D turn sets: the sets reachable from
// one another by rotating or reflecting the mesh. All members share
// every structural property, so the class is screened once through its
// canonical representative.
type Class struct {
	// Canon is the representative key (core.CanonicalKey2D of every
	// member).
	Canon uint16
	// Members lists the raw keys of the class in ascending order,
	// including Canon itself.
	Members []uint16
	// DeadlockFree reports that the class's destination-free turn CDG
	// is acyclic on the screening mesh.
	DeadlockFree bool
	// Connected reports that the minimal turn-graph relation of the
	// representative delivers between every ordered pair of the
	// screening mesh's nodes. Deadlock-free but disconnected classes
	// (e.g. the all-prohibited set) are screened out of simulation.
	Connected bool
	// Name labels the classes of the paper's named algorithms
	// (west-first, north-last, negative-first, dimension-order,
	// fully-adaptive); empty otherwise.
	Name string
}

// Screening is the result of exhaustively screening the 2D design
// space on one mesh.
type Screening struct {
	// Dims are the screening mesh's dimensions.
	Dims []int
	// DeadlockFree[key] is the per-set verdict for all 256 raw keys.
	DeadlockFree [core.NumSets2D]bool
	// Canon[key] maps every raw key to its class representative, the
	// witness that key was covered by screening Canon[key] once.
	Canon [core.NumSets2D]uint16
	// Classes lists the symmetry classes in ascending canonical-key
	// order.
	Classes []Class
}

// namedClasses labels the canonical keys of the paper's named sets.
func namedClasses() map[uint16]string {
	return map[uint16]string{
		core.CanonicalKey2D(core.FullyAdaptiveSet(2).Key()):  "fully-adaptive",
		core.CanonicalKey2D(core.WestFirstSet().Key()):       "west-first",
		core.CanonicalKey2D(core.NorthLastSet().Key()):       "north-last",
		core.CanonicalKey2D(core.NegativeFirstSet(2).Key()):  "negative-first",
		core.CanonicalKey2D(core.DimensionOrderSet(2).Key()): "dimension-order",
	}
}

// Screen screens all 256 turn sets on t. The per-set verdicts come
// from one Gray-code walk over the design space — consecutive sets
// differ by a single turn, so each step is one incremental CDG delta
// (deadlock.IncrementalTurn) instead of a rebuild. Connectivity is
// then checked once per class representative.
func Screen(t *topology.Topology) *Screening {
	if t.NumDims() != 2 {
		panic(fmt.Sprintf("explore: 2D design space needs a 2D mesh, got %d dims", t.NumDims()))
	}
	s := &Screening{Dims: t.Dims()}
	turns := core.AllTurns(2)
	ic := deadlock.NewIncrementalTurn(t, core.SetFromKey2D(core.GrayKey2D(0)))
	prev := core.GrayKey2D(0)
	s.DeadlockFree[prev] = ic.Acyclic()
	for i := 1; i < core.NumSets2D; i++ {
		key := core.GrayKey2D(i)
		bit := 0
		for (key^prev)>>uint(bit) != 1 {
			bit++
		}
		ic.SetAllowed(turns[bit], key&(1<<uint(bit)) == 0)
		s.DeadlockFree[key] = ic.Acyclic()
		prev = key
	}

	members := map[uint16][]uint16{}
	for key := 0; key < core.NumSets2D; key++ {
		canon := core.CanonicalKey2D(uint16(key))
		s.Canon[key] = canon
		members[canon] = append(members[canon], uint16(key))
	}
	names := namedClasses()
	canons := make([]uint16, 0, len(members))
	for canon := range members {
		canons = append(canons, canon)
	}
	sort.Slice(canons, func(i, j int) bool { return canons[i] < canons[j] })
	for _, canon := range canons {
		ms := members[canon]
		sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
		c := Class{
			Canon:        canon,
			Members:      ms,
			DeadlockFree: s.DeadlockFree[canon],
			Name:         names[canon],
		}
		if c.DeadlockFree {
			c.Connected = minimalConnected(t, canon)
		}
		s.Classes = append(s.Classes, c)
	}
	return s
}

// minimalConnected reports whether the minimal turn-graph relation of
// key delivers between every ordered pair of t's nodes.
func minimalConnected(t *topology.Topology, key uint16) bool {
	return connected(routing.NewTurnGraphRouting(t, core.SetFromKey2D(key), true))
}

// connected reports whether alg delivers between every ordered pair of
// its topology's nodes.
func connected(alg *routing.TurnGraphRouting) bool {
	n := topology.NodeID(alg.Topology().Nodes())
	for src := topology.NodeID(0); src < n; src++ {
		for dst := topology.NodeID(0); dst < n; dst++ {
			if src != dst && !alg.CanRoute(src, dst) {
				return false
			}
		}
	}
	return true
}

// Survivors returns the classes worth simulating: deadlock free and
// connected under the minimal relation, in canonical-key order.
func (s *Screening) Survivors() []Class {
	var out []Class
	for _, c := range s.Classes {
		if c.DeadlockFree && c.Connected {
			out = append(out, c)
		}
	}
	return out
}

// Counts summarizes a screening for reports and smoke checks.
type Counts struct {
	// Sets and Classes are the design-space totals (256 and the orbit
	// count of the symmetry group).
	Sets, Classes int
	// FreeSets and FreeClasses count the deadlock-free raw sets and
	// symmetry classes.
	FreeSets, FreeClasses int
	// Survivors counts the deadlock-free classes that are also
	// connected under the minimal relation.
	Survivors int
}

// DedupRatio is the symmetry saving on the deadlock-free frontier: raw
// deadlock-free sets per deadlock-free class.
func (c Counts) DedupRatio() float64 { return float64(c.FreeSets) / float64(c.FreeClasses) }

// Counts tallies the screening.
func (s *Screening) Counts() Counts {
	c := Counts{Sets: core.NumSets2D, Classes: len(s.Classes)}
	for _, v := range s.DeadlockFree {
		if v {
			c.FreeSets++
		}
	}
	for _, cl := range s.Classes {
		if cl.DeadlockFree {
			c.FreeClasses++
			if cl.Connected {
				c.Survivors++
			}
		}
	}
	return c
}

// SelfCheck verifies the screening against the paper's Section 3
// ground truth before anything expensive runs: of the 16 ways to
// prohibit one turn from each abstract cycle, exactly 12 are deadlock
// free, and the 12 fold into exactly 3 symmetry classes (west-first,
// north-last, negative-first). A mismatch voids the whole screening.
func (s *Screening) SelfCheck() error {
	pairs := core.OneTurnPerCyclePairs2D()
	if len(pairs) != 16 {
		return fmt.Errorf("explore: %d one-turn-per-cycle sets, want 16", len(pairs))
	}
	free := 0
	classes := map[uint16]bool{}
	for _, set := range pairs {
		if s.DeadlockFree[set.Key()] {
			free++
			classes[s.Canon[set.Key()]] = true
		}
	}
	if free != 12 {
		return fmt.Errorf("explore: %d of 16 one-turn-per-cycle sets deadlock free, paper says 12", free)
	}
	if len(classes) != 3 {
		return fmt.Errorf("explore: 12 deadlock-free pair sets fold into %d classes, paper says 3", len(classes))
	}
	for canon := range classes {
		switch s.Classes[classIndex(s.Classes, canon)].Name {
		case "west-first", "north-last", "negative-first":
		default:
			return fmt.Errorf("explore: pair-set class %#02x is not a named family", canon)
		}
	}
	return nil
}

// classIndex locates canon in the sorted class list.
func classIndex(classes []Class, canon uint16) int {
	i := sort.Search(len(classes), func(i int) bool { return classes[i].Canon >= canon })
	if i == len(classes) || classes[i].Canon != canon {
		panic(fmt.Sprintf("explore: class %#02x not found", canon))
	}
	return i
}
