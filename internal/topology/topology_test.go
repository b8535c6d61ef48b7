package topology

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestCoordRoundTrip(t *testing.T) {
	tops := []*Topology{
		NewMesh(16, 16),
		NewMesh(3, 4, 5),
		NewHypercube(8),
		NewTorus(8, 2),
		NewMesh(2, 2),
	}
	for _, topo := range tops {
		for id := NodeID(0); id < NodeID(topo.Nodes()); id++ {
			c := topo.Coord(id)
			if got := topo.ID(c); got != id {
				t.Errorf("%v: ID(Coord(%d)) = %d", topo, id, got)
			}
			for dim := 0; dim < topo.NumDims(); dim++ {
				if c[dim] != topo.CoordOf(id, dim) {
					t.Errorf("%v: CoordOf(%d,%d) = %d, want %d", topo, id, dim, topo.CoordOf(id, dim), c[dim])
				}
			}
		}
	}
}

// TestCoordCacheMatchesDivision: the cached coordinates equal the mixed
// radix formula x_dim = id / (k_0 ... k_{dim-1}) mod k_dim for every
// node of non-square, 3-D, torus and hypercube topologies.
func TestCoordCacheMatchesDivision(t *testing.T) {
	for _, topo := range []*Topology{
		NewMesh(5, 3),
		NewMesh(3, 4, 2),
		NewTorus(5, 3),
		NewHypercube(6),
	} {
		c := make(Coord, topo.NumDims())
		for id := NodeID(0); id < NodeID(topo.Nodes()); id++ {
			topo.CoordInto(id, c)
			stride := 1
			for dim, k := range topo.Dims() {
				want := int(id) / stride % k
				if got := topo.CoordOf(id, dim); got != want {
					t.Fatalf("%v: CoordOf(%d, %d) = %d, want %d", topo, id, dim, got, want)
				}
				if c[dim] != want {
					t.Fatalf("%v: CoordInto(%d)[%d] = %d, want %d", topo, id, dim, c[dim], want)
				}
				stride *= k
			}
		}
	}
}

func TestCoordRoundTripProperty(t *testing.T) {
	topo := NewMesh(7, 3, 5, 2)
	f := func(raw uint32) bool {
		id := NodeID(int(raw) % topo.Nodes())
		return topo.ID(topo.Coord(id)) == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNeighborSymmetry(t *testing.T) {
	for _, topo := range []*Topology{NewMesh(5, 7), NewTorus(6, 2), NewHypercube(5), NewMesh(3, 3, 3)} {
		topo.Channels(func(c Channel) {
			to := topo.ChannelTo(c)
			back, ok := topo.Neighbor(to, c.Dir.Opposite())
			if !ok || back != c.From {
				t.Errorf("%v: channel %v not symmetric: back=%d ok=%v", topo, c, back, ok)
			}
		})
	}
}

func TestChannelCounts(t *testing.T) {
	cases := []struct {
		topo *Topology
		want int
	}{
		// An m x n mesh has 2(m-1)n + 2m(n-1) unidirectional channels.
		{NewMesh(16, 16), 2*15*16 + 2*16*15},
		{NewMesh(4, 3), 2*3*3 + 2*4*2},
		// A binary n-cube has n * 2^n.
		{NewHypercube(8), 8 * 256},
		// A k-ary n-cube (k>2) has 2n * k^n.
		{NewTorus(8, 2), 4 * 64},
		{NewTorus(4, 3), 6 * 64},
		// A 2-ary n-cube degenerates to the hypercube.
		{NewTorus(2, 4), 4 * 16},
	}
	for _, c := range cases {
		if got := c.topo.NumChannels(); got != c.want {
			t.Errorf("%v: NumChannels = %d, want %d", c.topo, got, c.want)
		}
	}
}

func TestChannelIDRoundTrip(t *testing.T) {
	for _, topo := range []*Topology{NewMesh(5, 7), NewTorus(4, 3), NewHypercube(6)} {
		seen := make(map[int]bool)
		topo.Channels(func(c Channel) {
			id := topo.ChannelID(c)
			if id < 0 || id >= topo.NumChannelIDs() {
				t.Fatalf("%v: channel ID %d out of range", topo, id)
			}
			if seen[id] {
				t.Fatalf("%v: duplicate channel ID %d", topo, id)
			}
			seen[id] = true
			if got := topo.ChannelFromID(id); got != c {
				t.Fatalf("%v: ChannelFromID(ChannelID(%v)) = %v", topo, c, got)
			}
		})
	}
}

func TestMeshBoundaries(t *testing.T) {
	m := NewMesh(4, 4)
	west := Direction{Dim: 0}
	east := Direction{Dim: 0, Pos: true}
	if m.HasChannel(m.ID(Coord{0, 2}), west) {
		t.Error("mesh west edge should have no west channel")
	}
	if m.HasChannel(m.ID(Coord{3, 2}), east) {
		t.Error("mesh east edge should have no east channel")
	}
	if !m.HasChannel(m.ID(Coord{1, 2}), west) || !m.HasChannel(m.ID(Coord{1, 2}), east) {
		t.Error("interior node missing channels")
	}
}

func TestTorusWraparound(t *testing.T) {
	k := 5
	tor := NewTorus(k, 2)
	east := Direction{Dim: 0, Pos: true}
	west := Direction{Dim: 0}
	edge := tor.ID(Coord{k - 1, 2})
	to, ok := tor.Neighbor(edge, east)
	if !ok || tor.CoordOf(to, 0) != 0 {
		t.Fatalf("torus east wrap: got %d ok=%v", to, ok)
	}
	if !tor.IsWraparound(Channel{From: edge, Dir: east}) {
		t.Error("east channel from the east edge should be a wraparound")
	}
	if tor.IsWraparound(Channel{From: edge, Dir: west}) {
		t.Error("west channel from the east edge is a mesh channel")
	}
	low := tor.ID(Coord{0, 2})
	if !tor.IsWraparound(Channel{From: low, Dir: west}) {
		t.Error("west channel from the west edge should be a wraparound")
	}
}

func TestDistanceMesh(t *testing.T) {
	m := NewMesh(8, 8)
	if d := m.Distance(m.ID(Coord{0, 0}), m.ID(Coord{7, 7})); d != 14 {
		t.Errorf("corner distance = %d, want 14", d)
	}
	if d := m.Distance(m.ID(Coord{3, 4}), m.ID(Coord{3, 4})); d != 0 {
		t.Errorf("self distance = %d, want 0", d)
	}
}

func TestDistanceTorus(t *testing.T) {
	tor := NewTorus(8, 2)
	// Opposite corners are 4+4 away via wraparound, not 7+7.
	if d := tor.Distance(tor.ID(Coord{0, 0}), tor.ID(Coord{7, 7})); d != 2 {
		t.Errorf("torus corner distance = %d, want 2 (wraps)", d)
	}
	if d := tor.Distance(tor.ID(Coord{0, 0}), tor.ID(Coord{4, 0})); d != 4 {
		t.Errorf("torus half-way distance = %d, want 4", d)
	}
}

func TestDistanceTriangleInequalityProperty(t *testing.T) {
	topo := NewTorus(6, 2)
	rng := rand.New(rand.NewSource(1))
	f := func() bool {
		a := NodeID(rng.Intn(topo.Nodes()))
		b := NodeID(rng.Intn(topo.Nodes()))
		c := NodeID(rng.Intn(topo.Nodes()))
		return topo.Distance(a, c) <= topo.Distance(a, b)+topo.Distance(b, c) &&
			topo.Distance(a, b) == topo.Distance(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestMinDeltaMovesCloser(t *testing.T) {
	for _, topo := range []*Topology{NewMesh(7, 7), NewTorus(7, 2), NewHypercube(6)} {
		rng := rand.New(rand.NewSource(2))
		f := func() bool {
			src := NodeID(rng.Intn(topo.Nodes()))
			dst := NodeID(rng.Intn(topo.Nodes()))
			if src == dst {
				return true
			}
			for dim := 0; dim < topo.NumDims(); dim++ {
				d := topo.MinDelta(src, dst, dim)
				if d == 0 {
					continue
				}
				next, ok := topo.Neighbor(src, Direction{Dim: dim, Pos: d > 0})
				if !ok || topo.Distance(next, dst) != topo.Distance(src, dst)-1 {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
			t.Errorf("%v: %v", topo, err)
		}
	}
}

func TestFaults(t *testing.T) {
	m := NewMesh(4, 4)
	ch := Channel{From: m.ID(Coord{1, 1}), Dir: Direction{Dim: 0, Pos: true}}
	if !m.Enabled(ch) {
		t.Fatal("channel should start enabled")
	}
	epoch := m.FaultEpoch()
	m.DisableChannel(ch)
	if m.Enabled(ch) {
		t.Error("disabled channel reported enabled")
	}
	if !m.HasFaults() {
		t.Error("HasFaults should be true")
	}
	if m.FaultEpoch() == epoch {
		t.Error("fault epoch should change on disable")
	}
	m.EnableChannel(ch)
	if !m.Enabled(ch) || m.HasFaults() {
		t.Error("re-enabled channel should be healthy")
	}
}

// TestDerived: a derived value is made once per key, and concurrent
// callers all get that one value.
func TestDerived(t *testing.T) {
	m := NewMesh(4, 4)
	type key struct{ name string }
	var made atomic.Int32
	mk := func() any { made.Add(1); return new(int) }
	var wg sync.WaitGroup
	got := make([]any, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = m.Derived(key{"a"}, mk)
		}(i)
	}
	wg.Wait()
	for _, v := range got {
		if v != got[0] {
			t.Fatal("concurrent callers got different values for one key")
		}
	}
	if m.Derived(key{"b"}, mk) == got[0] {
		t.Error("two keys share one value")
	}
	if n := made.Load(); n != 2 {
		t.Errorf("mk ran %d times for 2 keys, want 2", n)
	}
}

func TestDisableNonexistentChannelErrors(t *testing.T) {
	m := NewMesh(4, 4)
	epoch := m.FaultEpoch()
	if err := m.DisableChannel(Channel{From: m.ID(Coord{0, 0}), Dir: Direction{Dim: 0}}); err == nil {
		t.Error("expected error disabling a boundary channel")
	}
	if err := m.DisableChannel(Channel{From: NodeID(99), Dir: Direction{Dim: 0, Pos: true}}); err == nil {
		t.Error("expected error disabling a channel at an out-of-range node")
	}
	if err := m.DisableChannel(Channel{From: 0, Dir: Direction{Dim: 5, Pos: true}}); err == nil {
		t.Error("expected error disabling a channel in an out-of-range dimension")
	}
	if err := m.EnableChannel(Channel{From: m.ID(Coord{0, 0}), Dir: Direction{Dim: 0}}); err == nil {
		t.Error("expected error enabling a boundary channel")
	}
	if m.FaultEpoch() != epoch {
		t.Error("failed disable/enable calls must not advance the fault epoch")
	}
}

func TestIDCheckedAndCheckNode(t *testing.T) {
	m := NewMesh(4, 4)
	if _, err := m.IDChecked(Coord{1, 2}); err != nil {
		t.Errorf("IDChecked rejected an in-range coordinate: %v", err)
	}
	if _, err := m.IDChecked(Coord{4, 0}); err == nil {
		t.Error("IDChecked accepted an out-of-range coordinate")
	}
	if _, err := m.IDChecked(Coord{1}); err == nil {
		t.Error("IDChecked accepted a coordinate with wrong arity")
	}
	if err := m.CheckNode(15); err != nil {
		t.Errorf("CheckNode rejected a valid node: %v", err)
	}
	if err := m.CheckNode(16); err == nil {
		t.Error("CheckNode accepted an out-of-range node")
	}
	if err := m.CheckNode(-1); err == nil {
		t.Error("CheckNode accepted a negative node")
	}
}

func TestDirectionEncoding(t *testing.T) {
	for i := 0; i < 12; i++ {
		d := DirectionFromIndex(i)
		if d.Index() != i {
			t.Errorf("direction index round trip failed for %d", i)
		}
		if d.Opposite().Opposite() != d {
			t.Errorf("double opposite of %v changed it", d)
		}
		if d.Opposite().Dim != d.Dim || d.Opposite().Pos == d.Pos {
			t.Errorf("opposite of %v wrong: %v", d, d.Opposite())
		}
	}
}

func TestDirectionNames(t *testing.T) {
	cases := map[Direction]string{
		{Dim: 0, Pos: true}:  "east",
		{Dim: 0, Pos: false}: "west",
		{Dim: 1, Pos: true}:  "north",
		{Dim: 1, Pos: false}: "south",
		{Dim: 2, Pos: true}:  "+2",
		{Dim: 3, Pos: false}: "-3",
	}
	for d, want := range cases {
		if d.String() != want {
			t.Errorf("%#v.String() = %q, want %q", d, d.String(), want)
		}
	}
}

func TestTopologyStrings(t *testing.T) {
	cases := map[string]*Topology{
		"16x16 mesh":    NewMesh(16, 16),
		"binary 8-cube": NewHypercube(8),
		"8-ary 2-cube":  NewTorus(8, 2),
		"3x4x5 mesh":    NewMesh(3, 4, 5),
	}
	for want, topo := range cases {
		if topo.String() != want {
			t.Errorf("String() = %q, want %q", topo.String(), want)
		}
	}
}

func TestHypercubeIsMeshAndTorus(t *testing.T) {
	// "A hypercube is an n-dimensional mesh in which k_i = 2 ... or a
	// 2-ary n-cube" — both constructions must agree on the channel set.
	asMesh := NewHypercube(4)
	asTorus := NewTorus(2, 4)
	if !asMesh.IsHypercube() || !asTorus.IsHypercube() {
		t.Fatal("both should report hypercube")
	}
	if asMesh.NumChannels() != asTorus.NumChannels() {
		t.Errorf("channel counts differ: %d vs %d", asMesh.NumChannels(), asTorus.NumChannels())
	}
	for id := NodeID(0); id < NodeID(asMesh.Nodes()); id++ {
		for i := 0; i < 8; i++ {
			d := DirectionFromIndex(i)
			n1, ok1 := asMesh.Neighbor(id, d)
			n2, ok2 := asTorus.Neighbor(id, d)
			if ok1 != ok2 || (ok1 && n1 != n2) {
				t.Fatalf("node %d dir %v: mesh (%d,%v) vs torus (%d,%v)", id, d, n1, ok1, n2, ok2)
			}
		}
	}
}

func TestBadConstructionPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty dims":  func() { NewMesh() },
		"dim too low": func() { NewMesh(4, 1) },
		"bad coord":   func() { NewMesh(4, 4).ID(Coord{4, 0}) },
		"coord dims":  func() { NewMesh(4, 4).ID(Coord{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
