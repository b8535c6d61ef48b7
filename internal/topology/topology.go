// Package topology models the direct-network topologies studied in the
// turn-model paper: n-dimensional meshes, k-ary n-cubes (tori), and
// hypercubes (the k=2 special case of both).
//
// A topology is a set of nodes identified by dense integer IDs, each with
// a coordinate vector, connected by unidirectional channels. Every pair of
// neighboring nodes is connected by a pair of opposite unidirectional
// channels, exactly as in the paper's simulation setup. Channels may be
// disabled to model faults.
package topology

import (
	"fmt"
	"strings"
	"sync"
)

// NodeID identifies a node. IDs are dense in [0, Nodes()).
type NodeID int

// Coord is a coordinate vector (x_0, x_1, ..., x_{n-1}).
type Coord []int

// Direction identifies movement along one dimension, either toward higher
// coordinates (positive) or lower coordinates (negative). In the 2D mesh
// terminology of the paper, -x is west, +x is east, -y is south and +y is
// north.
type Direction struct {
	Dim int
	Pos bool
}

// Index returns a dense encoding of the direction in [0, 2n):
// 2*Dim for the negative direction and 2*Dim+1 for the positive one.
func (d Direction) Index() int {
	i := 2 * d.Dim
	if d.Pos {
		i++
	}
	return i
}

// DirectionFromIndex is the inverse of Direction.Index.
func DirectionFromIndex(i int) Direction {
	return Direction{Dim: i / 2, Pos: i%2 == 1}
}

// Opposite returns the 180-degree reverse of d.
func (d Direction) Opposite() Direction { return Direction{Dim: d.Dim, Pos: !d.Pos} }

// String renders directions using the paper's compass names for the first
// two dimensions and +i/-i beyond.
func (d Direction) String() string {
	if d.Dim < 2 {
		switch {
		case d.Dim == 0 && d.Pos:
			return "east"
		case d.Dim == 0:
			return "west"
		case d.Pos:
			return "north"
		default:
			return "south"
		}
	}
	if d.Pos {
		return fmt.Sprintf("+%d", d.Dim)
	}
	return fmt.Sprintf("-%d", d.Dim)
}

// Channel is a unidirectional network channel leaving node From in
// direction Dir. The destination node is determined by the topology
// (see Topology.ChannelTo).
type Channel struct {
	From NodeID
	Dir  Direction
}

func (c Channel) String() string {
	return fmt.Sprintf("ch(%d %s)", c.From, c.Dir)
}

// Kind distinguishes the topology families supported.
type Kind int

const (
	// KindMesh is an n-dimensional mesh without wraparound channels.
	KindMesh Kind = iota
	// KindTorus is a k-ary n-cube: a mesh plus wraparound channels in
	// every dimension with k > 2.
	KindTorus
)

func (k Kind) String() string {
	if k == KindTorus {
		return "torus"
	}
	return "mesh"
}

// Topology is an n-dimensional mesh or k-ary n-cube.
//
// The zero value is not usable; construct with NewMesh, NewTorus, or
// NewHypercube.
type Topology struct {
	kind    Kind
	dims    []int
	strides []int
	nodes   int
	// coords caches every node's coordinate vector, node-major:
	// coords[id*len(dims)+dim]. CoordOf is the innermost call of
	// Distance, MinDelta and HasChannel, so it is one load instead of two
	// integer divisions.
	coords []int32
	// disabled marks faulty channels by dense channel ID.
	disabled []bool
	// faultEpoch increments whenever the fault set changes, so routing
	// layers can invalidate reachability caches.
	faultEpoch int

	// derivedMu guards derived, the values other packages derive from
	// the topology (see Derived). Lookups may race: several simulations
	// can share one topology.
	derivedMu sync.Mutex
	derived   map[any]any
}

// NewMesh returns an n-dimensional mesh with the given dimension lengths,
// k_i nodes along dimension i. Every k_i must be at least 2.
func NewMesh(dims ...int) *Topology {
	return build(KindMesh, dims)
}

// NewTorus returns a k-ary n-cube. In dimensions of length 2 the
// wraparound channel coincides with the mesh channel (the definition's
// (x±1) mod 2 reaches the same neighbor), so such dimensions behave
// exactly like mesh dimensions, matching the paper's observation that a
// hypercube is both a mesh and a 2-ary n-cube.
func NewTorus(k, n int) *Topology {
	dims := make([]int, n)
	for i := range dims {
		dims[i] = k
	}
	return build(KindTorus, dims)
}

// NewHypercube returns a binary n-cube: an n-dimensional mesh in which
// every k_i = 2.
func NewHypercube(n int) *Topology {
	dims := make([]int, n)
	for i := range dims {
		dims[i] = 2
	}
	return build(KindMesh, dims)
}

func build(kind Kind, dims []int) *Topology {
	if len(dims) == 0 {
		panic("topology: at least one dimension required")
	}
	n := 1
	strides := make([]int, len(dims))
	for i, k := range dims {
		if k < 2 {
			panic(fmt.Sprintf("topology: dimension %d has length %d; need >= 2", i, k))
		}
		strides[i] = n
		n *= k
	}
	t := &Topology{
		kind:    kind,
		dims:    append([]int(nil), dims...),
		strides: strides,
		nodes:   n,
		coords:  make([]int32, n*len(dims)),
	}
	for id := 0; id < n; id++ {
		v := id
		for i, k := range dims {
			t.coords[id*len(dims)+i] = int32(v % k)
			v /= k
		}
	}
	t.disabled = make([]bool, t.NumChannelIDs())
	return t
}

// Kind reports whether the topology is a mesh or a torus.
func (t *Topology) Kind() Kind { return t.kind }

// Dims returns the dimension lengths k_0..k_{n-1}. The caller must not
// modify the returned slice.
func (t *Topology) Dims() []int { return t.dims }

// NumDims returns the number of dimensions n.
func (t *Topology) NumDims() int { return len(t.dims) }

// Nodes returns the total number of nodes.
func (t *Topology) Nodes() int { return t.nodes }

// IsHypercube reports whether every dimension has length 2.
func (t *Topology) IsHypercube() bool {
	for _, k := range t.dims {
		if k != 2 {
			return false
		}
	}
	return true
}

// wraps reports whether dimension dim has wraparound channels distinct
// from mesh channels.
func (t *Topology) wraps(dim int) bool {
	return t.kind == KindTorus && t.dims[dim] > 2
}

// Coord returns the coordinate vector of id, allocating a new slice.
func (t *Topology) Coord(id NodeID) Coord {
	c := make(Coord, len(t.dims))
	t.CoordInto(id, c)
	return c
}

// CoordInto writes the coordinate vector of id into dst, which must have
// length NumDims.
func (t *Topology) CoordInto(id NodeID, dst Coord) {
	for i, c := range t.coords[int(id)*len(t.dims):][:len(t.dims)] {
		dst[i] = int(c)
	}
}

// CoordOf returns the coordinate of node id along dimension dim without
// allocating.
func (t *Topology) CoordOf(id NodeID, dim int) int {
	return int(t.coords[int(id)*len(t.dims)+dim])
}

// ID returns the node at coordinate c. It panics on a malformed
// coordinate; use IDChecked to receive an error instead.
func (t *Topology) ID(c Coord) NodeID {
	id, err := t.IDChecked(c)
	if err != nil {
		panic(err.Error())
	}
	return id
}

// IDChecked returns the node at coordinate c, or an error when the
// coordinate has the wrong arity or a component out of range. It is the
// non-panicking form of ID, for validating externally supplied
// coordinates (configuration files, command-line flags, fault plans).
func (t *Topology) IDChecked(c Coord) (NodeID, error) {
	if len(c) != len(t.dims) {
		return 0, fmt.Errorf("topology: coordinate has %d dims, topology has %d", len(c), len(t.dims))
	}
	v := 0
	for i := len(c) - 1; i >= 0; i-- {
		if c[i] < 0 || c[i] >= t.dims[i] {
			return 0, fmt.Errorf("topology: coordinate %v out of range in dim %d", c, i)
		}
		v = v*t.dims[i] + c[i]
	}
	return NodeID(v), nil
}

// CheckNode reports whether id names a node of the topology, returning
// an error otherwise. Callers validating externally supplied node IDs
// (scripts, fault plans) use it to fail at configuration time instead
// of corrupting state mid-run.
func (t *Topology) CheckNode(id NodeID) error {
	if id < 0 || int(id) >= t.nodes {
		return fmt.Errorf("topology: node %d out of range [0, %d)", id, t.nodes)
	}
	return nil
}

// HasChannel reports whether the channel leaving node from in direction
// dir exists in the topology (ignoring faults). In a mesh, channels off
// the boundary do not exist; in a torus they wrap around.
func (t *Topology) HasChannel(from NodeID, dir Direction) bool {
	x := t.CoordOf(from, dir.Dim)
	k := t.dims[dir.Dim]
	if t.wraps(dir.Dim) {
		return true
	}
	if dir.Pos {
		return x < k-1
	}
	return x > 0
}

// Neighbor returns the node reached by following dir from node from, and
// whether such a channel exists.
func (t *Topology) Neighbor(from NodeID, dir Direction) (NodeID, bool) {
	if !t.HasChannel(from, dir) {
		return from, false
	}
	x := t.CoordOf(from, dir.Dim)
	k := t.dims[dir.Dim]
	stride := t.strides[dir.Dim]
	var nx int
	if dir.Pos {
		nx = x + 1
		if nx == k {
			nx = 0
		}
	} else {
		nx = x - 1
		if nx < 0 {
			nx = k - 1
		}
	}
	return from + NodeID((nx-x)*stride), true
}

// ChannelTo returns the destination node of channel c. It panics if the
// channel does not exist.
func (t *Topology) ChannelTo(c Channel) NodeID {
	to, ok := t.Neighbor(c.From, c.Dir)
	if !ok {
		panic(fmt.Sprintf("topology: channel %v does not exist", c))
	}
	return to
}

// IsWraparound reports whether channel c crosses the torus boundary.
func (t *Topology) IsWraparound(c Channel) bool {
	if !t.wraps(c.Dir.Dim) {
		return false
	}
	x := t.CoordOf(c.From, c.Dir.Dim)
	if c.Dir.Pos {
		return x == t.dims[c.Dir.Dim]-1
	}
	return x == 0
}

// NumChannelIDs returns the size of the dense channel ID space,
// Nodes() * 2*NumDims(). Not every ID corresponds to an existing channel
// (mesh boundaries); use HasChannel or Channels to enumerate real ones.
func (t *Topology) NumChannelIDs() int { return t.nodes * 2 * len(t.dims) }

// ChannelID returns a dense integer ID for channel c, suitable for array
// indexing. IDs are in [0, NumChannelIDs()).
func (t *Topology) ChannelID(c Channel) int {
	return int(c.From)*2*len(t.dims) + c.Dir.Index()
}

// ChannelFromID is the inverse of ChannelID.
func (t *Topology) ChannelFromID(id int) Channel {
	w := 2 * len(t.dims)
	return Channel{From: NodeID(id / w), Dir: DirectionFromIndex(id % w)}
}

// Channels calls fn for every existing channel in the topology,
// including disabled (faulty) ones.
func (t *Topology) Channels(fn func(Channel)) {
	for v := NodeID(0); v < NodeID(t.nodes); v++ {
		for i := 0; i < 2*len(t.dims); i++ {
			c := Channel{From: v, Dir: DirectionFromIndex(i)}
			if t.HasChannel(v, c.Dir) {
				fn(c)
			}
		}
	}
}

// NumChannels returns the number of existing channels.
func (t *Topology) NumChannels() int {
	n := 0
	t.Channels(func(Channel) { n++ })
	return n
}

// DisableChannel marks channel c as faulty. Faulty channels remain part
// of the topology but Enabled reports false for them; routing layers that
// honor faults will not use them. Disabling a channel that does not
// exist (a node out of range, or a direction off a mesh boundary)
// returns an error and changes nothing.
func (t *Topology) DisableChannel(c Channel) error {
	if err := t.checkChannel(c); err != nil {
		return fmt.Errorf("topology: cannot disable %v: %w", c, err)
	}
	t.disabled[t.ChannelID(c)] = true
	t.faultEpoch++
	return nil
}

// EnableChannel clears the fault on channel c (repairing it). Like
// DisableChannel it returns an error for a channel that does not exist.
// Enabling an already healthy channel is a no-op that still advances the
// fault epoch.
func (t *Topology) EnableChannel(c Channel) error {
	if err := t.checkChannel(c); err != nil {
		return fmt.Errorf("topology: cannot enable %v: %w", c, err)
	}
	t.disabled[t.ChannelID(c)] = false
	t.faultEpoch++
	return nil
}

// checkChannel validates that c names an existing channel, including the
// node-range check that ChannelID's dense arithmetic would otherwise
// turn into an out-of-bounds index.
func (t *Topology) checkChannel(c Channel) error {
	if err := t.CheckNode(c.From); err != nil {
		return err
	}
	if c.Dir.Dim < 0 || c.Dir.Dim >= len(t.dims) {
		return fmt.Errorf("direction dimension %d out of range [0, %d)", c.Dir.Dim, len(t.dims))
	}
	if !t.HasChannel(c.From, c.Dir) {
		return fmt.Errorf("channel does not exist")
	}
	return nil
}

// Derived returns the value stored under key, storing mk() there on
// first use. Other packages keep values they derive from the topology
// here (routing keeps its compiled tables), so those values live exactly
// as long as the topology does. A value that depends on the fault set
// must carry the FaultEpoch it was derived at and be rebuilt when the
// epoch moves. key must be comparable; an unexported key type keeps
// packages from colliding. mk runs under the topology's lock, so it must
// be cheap and must not call Derived.
func (t *Topology) Derived(key any, mk func() any) any {
	t.derivedMu.Lock()
	defer t.derivedMu.Unlock()
	v, ok := t.derived[key]
	if !ok {
		if t.derived == nil {
			t.derived = map[any]any{}
		}
		v = mk()
		t.derived[key] = v
	}
	return v
}

// FaultEpoch increments whenever DisableChannel or EnableChannel is
// called. Derived caches (e.g. turn-graph reachability) use it to
// detect stale state.
func (t *Topology) FaultEpoch() int { return t.faultEpoch }

// Enabled reports whether channel c exists and is not faulty.
func (t *Topology) Enabled(c Channel) bool {
	return t.HasChannel(c.From, c.Dir) && !t.disabled[t.ChannelID(c)]
}

// HasFaults reports whether any channel is disabled.
func (t *Topology) HasFaults() bool {
	for _, d := range t.disabled {
		if d {
			return true
		}
	}
	return false
}

// Delta returns dst_i - src_i for dimension dim, without considering
// wraparound. A positive value means dst is in the positive direction.
func (t *Topology) Delta(src, dst NodeID, dim int) int {
	return t.CoordOf(dst, dim) - t.CoordOf(src, dim)
}

// MinDelta returns the signed per-dimension offset of the shortest route
// from src to dst along dimension dim. In a mesh this is Delta; in a
// torus the wraparound direction is used when strictly shorter, and the
// non-wrap direction on ties.
func (t *Topology) MinDelta(src, dst NodeID, dim int) int {
	d := t.Delta(src, dst, dim)
	if !t.wraps(dim) {
		return d
	}
	k := t.dims[dim]
	if d > k/2 {
		return d - k
	}
	if -d > k/2 {
		return d + k
	}
	return d
}

// Distance returns the minimal hop count from src to dst.
func (t *Topology) Distance(src, dst NodeID) int {
	h := 0
	for dim := range t.dims {
		d := t.MinDelta(src, dst, dim)
		if d < 0 {
			d = -d
		}
		h += d
	}
	return h
}

// String describes the topology, e.g. "16x16 mesh" or "8-ary 3-cube".
func (t *Topology) String() string {
	if t.IsHypercube() {
		return fmt.Sprintf("binary %d-cube", len(t.dims))
	}
	if t.kind == KindTorus {
		return fmt.Sprintf("%d-ary %d-cube", t.dims[0], len(t.dims))
	}
	parts := make([]string, len(t.dims))
	for i, k := range t.dims {
		parts[i] = fmt.Sprint(k)
	}
	return strings.Join(parts, "x") + " mesh"
}
