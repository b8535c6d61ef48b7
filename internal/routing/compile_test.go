package routing

import (
	"testing"

	"turnmodel/internal/core"
	"turnmodel/internal/topology"
)

// directCands is the reference the compiled table must match: a fresh
// CandidatesVC evaluation pushed through the filter the simulator
// applies per packet, written out independently of the compiler.
func directCands(alg VCAlgorithm, cur, dst topology.NodeID, in VCInPort) []Candidate {
	t := alg.Topology()
	vcs := alg.NumVCs()
	var out []Candidate
	for _, vd := range alg.CandidatesVC(cur, dst, in, nil) {
		if vd.VC < 0 || vd.VC >= vcs || !t.Enabled(topology.Channel{From: cur, Dir: vd.Dir}) {
			continue
		}
		next := t.ChannelTo(topology.Channel{From: cur, Dir: vd.Dir})
		out = append(out, Candidate{
			Out:  OutIndex(cur, vd.Dir, vd.VC, t.NumDims(), vcs),
			Dir:  uint8(vd.Dir.Index()),
			VC:   uint8(vd.VC),
			Prof: t.Distance(next, dst) < t.Distance(cur, dst),
		})
	}
	return out
}

// checkTableMatchesDirect requires every Lookup of tab to equal a direct
// evaluation: the injected list for an injected header, and the arrived
// list for every port a header can arrive at cur on.
func checkTableMatchesDirect(t *testing.T, alg VCAlgorithm, tab *Table) {
	t.Helper()
	topo := alg.Topology()
	n := topology.NodeID(topo.Nodes())
	for cur := topology.NodeID(0); cur < n; cur++ {
		ports := arrivalPorts(topo, cur, alg.NumVCs())
		for dst := topology.NodeID(0); dst < n; dst++ {
			if cur == dst {
				continue
			}
			want := directCands(alg, cur, dst, VCInjected)
			if got := tab.Lookup(cur, dst, true); !candsEqual(got, want) {
				t.Fatalf("%s on %v: injected lookup %d->%d = %v, want %v", alg.Name(), topo, cur, dst, got, want)
			}
			arr := tab.Lookup(cur, dst, false)
			for _, in := range ports {
				if want := directCands(alg, cur, dst, in); !candsEqual(arr, want) {
					t.Fatalf("%s on %v: arrived lookup %d->%d via %v = %v, want %v", alg.Name(), topo, cur, dst, in, arr, want)
				}
			}
		}
	}
}

// arrivalPorts enumerates every (direction, vc) a packet can arrive at
// cur on.
func arrivalPorts(t *topology.Topology, cur topology.NodeID, vcs int) []VCInPort {
	var ports []VCInPort
	for di := 0; di < 2*t.NumDims(); di++ {
		d := topology.DirectionFromIndex(di)
		if !t.HasChannel(cur, d.Opposite()) {
			continue
		}
		for vc := 0; vc < vcs; vc++ {
			ports = append(ports, VCInPort{Dir: d, VC: vc})
		}
	}
	return ports
}

// TestCompileMatchesDirect: for every built-in relation, topology pair
// and arrival port, Table.Lookup returns exactly the filtered list a
// direct evaluation produces.
func TestCompileMatchesDirect(t *testing.T) {
	mesh := topology.NewMesh(5, 4)
	cube := topology.NewHypercube(4)
	torus := topology.NewTorus(5, 2)
	algs := []VCAlgorithm{
		AsVC(NewDimensionOrder(mesh)),
		AsVC(NewWestFirst(mesh)),
		AsVC(NewNorthLast(mesh)),
		AsVC(NewNegativeFirst(mesh)),
		AsVC(NewFullyAdaptive(mesh)),
		AsVC(NewPCube(cube)),
		AsVC(NewTorusDOR(torus)),
		NewDatelineDOR(torus),
		AsVC(NewWrapFirstHop(NewNegativeFirst(torus))),
		AsVC(NewNegativeFirstTorus(torus)),
		NewDoubleY(mesh),
	}
	for _, alg := range algs {
		tab, err := Compile(alg)
		if err != nil {
			t.Errorf("%s: compile failed: %v", alg.Name(), err)
			continue
		}
		checkTableMatchesDirect(t, alg, tab)
	}
}

// TestCompileMatchesDirectAcrossTopologies widens TestCompileMatchesDirect
// to every built-in compilable relation on each topology family it
// routes — 2-D and 3-D meshes, tori and a hypercube — and repeats the
// comparison after a fault forces a recompile, so interning is checked
// against lists that differ only by a disabled channel.
func TestCompileMatchesDirectAcrossTopologies(t *testing.T) {
	relations := []struct {
		topo func() *topology.Topology
		algs func(*topology.Topology) []VCAlgorithm
	}{
		{func() *topology.Topology { return topology.NewMesh(6, 5) }, func(m *topology.Topology) []VCAlgorithm {
			return []VCAlgorithm{
				AsVC(NewDimensionOrder(m)), AsVC(NewWestFirst(m)), AsVC(NewNorthLast(m)),
				AsVC(NewNegativeFirst(m)), AsVC(NewFullyAdaptive(m)), NewDoubleY(m),
			}
		}},
		{func() *topology.Topology { return topology.NewMesh(3, 4, 3) }, func(m *topology.Topology) []VCAlgorithm {
			return []VCAlgorithm{
				AsVC(NewDimensionOrder(m)), AsVC(NewNegativeFirst(m)),
				AsVC(NewABONF(m, 2)), AsVC(NewABOPL(m, 1)), AsVC(NewFullyAdaptive(m)),
			}
		}},
		{func() *topology.Topology { return topology.NewTorus(6, 2) }, func(r *topology.Topology) []VCAlgorithm {
			return []VCAlgorithm{
				AsVC(NewTorusDOR(r)), NewDatelineDOR(r), AsVC(NewNegativeFirstTorus(r)),
				AsVC(NewWrapFirstHop(NewNegativeFirst(r))), AsVC(NewWrapFirstHop(NewWestFirst(r))),
			}
		}},
		{func() *topology.Topology { return topology.NewTorus(4, 3) }, func(r *topology.Topology) []VCAlgorithm {
			return []VCAlgorithm{NewDatelineDOR(r), AsVC(NewWrapFirstHop(NewNegativeFirst(r)))}
		}},
		{func() *topology.Topology { return topology.NewHypercube(5) }, func(c *topology.Topology) []VCAlgorithm {
			return []VCAlgorithm{AsVC(NewPCube(c)), AsVC(NewDimensionOrder(c)), AsVC(NewNegativeFirst(c))}
		}},
	}
	for _, rel := range relations {
		topo := rel.topo()
		algs := rel.algs(topo)
		for _, alg := range algs {
			tab, err := Compile(alg)
			if err != nil {
				t.Fatalf("%s on %v: compile failed: %v", alg.Name(), topo, err)
			}
			checkTableMatchesDirect(t, alg, tab)
		}
		// Break the +0 channel of a node in the middle of the network;
		// every relation must recompile to a table matching direct
		// evaluation under the fault.
		mid := topology.NodeID(topo.Nodes() / 2)
		broken := topology.Channel{From: mid, Dir: topology.Direction{Dim: 0, Pos: topo.CoordOf(mid, 0) == 0}}
		if err := topo.DisableChannel(broken); err != nil {
			t.Fatal(err)
		}
		for _, alg := range algs {
			tab, err := Compile(alg)
			if err != nil {
				t.Fatalf("%s on %v with %v disabled: compile failed: %v", alg.Name(), topo, broken, err)
			}
			if tab.Epoch() != topo.FaultEpoch() {
				t.Fatalf("%s: recompiled table at epoch %d, topology at %d", alg.Name(), tab.Epoch(), topo.FaultEpoch())
			}
			checkTableMatchesDirect(t, alg, tab)
		}
	}
}

// TestCompileAllocsLinear: compiling allocates per source node at most
// (the intern index and the arena grow to their high-water marks), never
// per node pair — evaluating a pair reuses the compiler's scratch.
func TestCompileAllocsLinear(t *testing.T) {
	mesh := topology.NewMesh(16, 16)
	torus := topology.NewTorus(16, 2)
	cube := topology.NewHypercube(8)
	for _, alg := range []VCAlgorithm{
		AsVC(NewNegativeFirst(mesh)),
		AsVC(NewFullyAdaptive(mesh)),
		NewDoubleY(mesh),
		NewDatelineDOR(torus),
		AsVC(NewWrapFirstHop(NewNegativeFirst(torus))),
		AsVC(NewPCube(cube)),
		plainVC{NewDatelineDOR(torus)}, // the verification path
	} {
		n := alg.Topology().Nodes()
		allocs := testing.AllocsPerRun(2, func() {
			if _, err := Compile(alg); err != nil {
				t.Fatal(err)
			}
		})
		if limit := float64(16 * n); allocs > limit {
			t.Errorf("%s on %v: Compile allocates %.0f times, want <= 16 per node (%.0f)", alg.Name(), alg.Topology(), allocs, limit)
		}
	}
}

// TestCompileInterning: a 2-D mesh turn-model relation has one distinct
// candidate list per destination direction class, so each source node
// contributes at most a handful of arena entries, and equal lists at one
// node share a span.
func TestCompileInterning(t *testing.T) {
	mesh := topology.NewMesh(16, 16)
	tab, err := Compile(AsVC(NewNegativeFirst(mesh)))
	if err != nil {
		t.Fatal(err)
	}
	n := mesh.Nodes()
	if want := n * n * 2 * 8; tab.MemoryBytes() > want+n*8*16 {
		t.Errorf("MemoryBytes = %d, want the %d-byte span index plus a few lists per node", tab.MemoryBytes(), want)
	}
	// Every destination up and to the right of (3,3) gets the same list.
	cur := mesh.ID(topology.Coord{3, 3})
	a := tab.Lookup(cur, mesh.ID(topology.Coord{5, 9}), true)
	b := tab.Lookup(cur, mesh.ID(topology.Coord{12, 4}), false)
	if !candsEqual(a, b) || &a[0] != &b[0] {
		t.Errorf("equal lists %v and %v at one node do not share an arena span", a, b)
	}
}

// BenchmarkCompile measures one route-table compile of the largest
// compilable network, a 32x32 mesh.
func BenchmarkCompile(b *testing.B) {
	alg := AsVC(NewNegativeFirst(topology.NewMesh(32, 32)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab, err := Compile(alg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(tab.MemoryBytes()), "table_B")
	}
}

// TestCompileWrapFirstHopSpans: WrapFirstHop offers wraparounds only to
// injected headers, so the table's injected and arrived spans must
// genuinely differ where a wraparound is on a shortest path.
func TestCompileWrapFirstHopSpans(t *testing.T) {
	torus := topology.NewTorus(6, 2)
	alg := AsVC(NewWrapFirstHop(NewNegativeFirst(torus)))
	tab, err := Compile(alg)
	if err != nil {
		t.Fatal(err)
	}
	// Node (0,0) to (5,0): the -x wraparound is the shortest way, offered
	// when injected only.
	cur := torus.ID(topology.Coord{0, 0})
	dst := torus.ID(topology.Coord{5, 0})
	inj := tab.Lookup(cur, dst, true)
	arr := tab.Lookup(cur, dst, false)
	if candsEqual(inj, arr) {
		t.Fatalf("injected and arrived candidates should differ at %d->%d: both %v", cur, dst, inj)
	}
	hasNegX := func(cs []Candidate) bool {
		for _, c := range cs {
			if c.Direction() == (topology.Direction{Dim: 0, Pos: false}) {
				return true
			}
		}
		return false
	}
	if !hasNegX(inj) {
		t.Errorf("injected candidates %v should offer the -x wraparound", inj)
	}
	if hasNegX(arr) {
		t.Errorf("arrived candidates %v should not offer the -x wraparound", arr)
	}
}

// plainVC ignores the arrival port but does not declare
// ArrivalInvariant, exercising the exhaustive verification path.
type plainVC struct{ inner VCAlgorithm }

func (p plainVC) Name() string                 { return "plain-" + p.inner.Name() }
func (p plainVC) Topology() *topology.Topology { return p.inner.Topology() }
func (p plainVC) NumVCs() int                  { return p.inner.NumVCs() }
func (p plainVC) CandidatesVC(cur, dst topology.NodeID, _ VCInPort, buf []VirtualDirection) []VirtualDirection {
	return p.inner.CandidatesVC(cur, dst, VCInjected, buf)
}

func TestCompileVerifiesUnmarkedRelations(t *testing.T) {
	mesh := topology.NewMesh(4, 4)
	alg := plainVC{AsVC(NewNegativeFirst(mesh))}
	if _, ok := VCAlgorithm(alg).(ArrivalInvariant); ok {
		t.Fatal("plainVC must not implement ArrivalInvariant for this test to exercise verification")
	}
	tab, err := Compile(alg)
	if err != nil {
		t.Fatalf("verification should accept an arrival-invariant relation: %v", err)
	}
	cur, dst := topology.NodeID(5), topology.NodeID(10)
	if got, want := tab.Lookup(cur, dst, false), directCands(alg, cur, dst, VCInjected); !candsEqual(got, want) {
		t.Errorf("verified table lookup %v, want %v", got, want)
	}
}

// TestCompileArrivalDependentFails: turn-graph routing genuinely
// consults the arrival direction (it forbids turns), so compilation
// must refuse it and TableFor must report it as uncompilable.
func TestCompileArrivalDependentFails(t *testing.T) {
	mesh := topology.NewMesh(4, 4)
	alg := AsVC(NewTurnGraphRouting(mesh, core.WestFirstSet(), false))
	if _, err := Compile(alg); err == nil {
		t.Fatal("Compile accepted an arrival-dependent relation")
	}
	if tab := TableFor(alg); tab != nil {
		t.Fatal("TableFor returned a table for an arrival-dependent relation")
	}
	// The failure is sticky: a second call short-circuits to nil.
	if tab := TableFor(alg); tab != nil {
		t.Fatal("sticky failure not honored")
	}
}

// TestTableForCacheAndFaultInvalidation: TableFor reuses compilations
// per algorithm value and recompiles when the fault set changes, with
// faulty channels filtered out of the new table.
func TestTableForCacheAndFaultInvalidation(t *testing.T) {
	mesh := topology.NewMesh(4, 4)
	alg := AsVC(NewNegativeFirst(mesh))
	t1 := TableFor(alg)
	if t1 == nil {
		t.Fatal("TableFor failed for a compilable relation")
	}
	if t2 := TableFor(alg); t2 != t1 {
		t.Fatal("TableFor did not reuse the cached table")
	}
	broken := topology.Channel{From: mesh.ID(topology.Coord{1, 1}), Dir: topology.Direction{Dim: 0, Pos: false}}
	mesh.DisableChannel(broken)
	defer mesh.EnableChannel(broken)
	t3 := TableFor(alg)
	if t3 == nil || t3 == t1 {
		t.Fatal("TableFor did not recompile after a fault change")
	}
	if t3.Epoch() != mesh.FaultEpoch() {
		t.Errorf("recompiled table epoch %d, want %d", t3.Epoch(), mesh.FaultEpoch())
	}
	// Every lookup at the faulty node must exclude the disabled channel.
	for dst := topology.NodeID(0); dst < topology.NodeID(mesh.Nodes()); dst++ {
		if dst == broken.From {
			continue
		}
		for _, injected := range []bool{true, false} {
			for _, c := range t3.Lookup(broken.From, dst, injected) {
				if c.Direction() == broken.Dir {
					t.Fatalf("table offers the disabled channel %v for dst %d", broken, dst)
				}
			}
		}
	}
}

// TestCandidateOutIndex: the packed output index matches the canonical
// simulator layout formula for a multi-VC relation.
func TestCandidateOutIndex(t *testing.T) {
	torus := topology.NewTorus(5, 2)
	alg := VCAlgorithm(NewDatelineDOR(torus))
	tab, err := Compile(alg)
	if err != nil {
		t.Fatal(err)
	}
	vcs, ndim := alg.NumVCs(), torus.NumDims()
	vport := 2*ndim*vcs + 1
	for cur := topology.NodeID(0); cur < topology.NodeID(torus.Nodes()); cur++ {
		for dst := topology.NodeID(0); dst < topology.NodeID(torus.Nodes()); dst++ {
			if cur == dst {
				continue
			}
			for _, c := range tab.Lookup(cur, dst, true) {
				want := int32(int(cur)*vport + c.Direction().Index()*vcs + int(c.VC))
				if c.Out != want {
					t.Fatalf("candidate %+v at node %d: out %d, want %d", c, cur, c.Out, want)
				}
			}
		}
	}
}
