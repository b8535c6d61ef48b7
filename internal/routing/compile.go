package routing

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"

	"turnmodel/internal/topology"
)

// Route-table compilation. A routing relation over a fixed topology is
// a pure function of (current node, destination, arrival port), so for
// the simulator's steady state it can be evaluated once per (node,
// destination) pair and stored in a flat candidate arena — the same
// "routing logic as a lookup table" move hardware routers make. The
// simulator then serves every header's candidate list as a slice into
// the arena instead of re-running the turn-model calculus per packet
// per router.
//
// Arrival ports are folded away: every relation in this package except
// TurnGraphRouting produces the same candidates for every non-injected
// arrival port (most ignore the port entirely; WrapFirstHop branches
// only on Injected). Such relations declare it via the ArrivalInvariant
// marker, and the table keeps just two candidate lists per (node,
// destination) pair — one for injected headers, one for arrived ones.
// Relations without the marker are verified exhaustively at compile
// time; a relation that genuinely depends on the arrival port fails
// compilation and the simulator falls back to direct evaluation.

// MaxTableNodes bounds the topologies worth compiling: a table's route
// index holds one two-byte entry per (node, destination) pair, so it is
// quadratic in the node count, and beyond this size compilation is
// refused and callers fall back to direct evaluation.
const MaxTableNodes = 1024

// A route entry names one of its node's list pairs, of which there are
// at most one per destination; this conversion stops compiling if
// MaxTableNodes outgrows the uint16 entry.
const _ = uint16(MaxTableNodes - 1)

// ArrivalInvariant marks a VCAlgorithm whose CandidatesVC result is
// independent of the arrival port: for fixed (cur, dst), every VCInPort
// with Injected == false yields the same candidate list. (The injected
// case may still differ, as in WrapFirstHop.) Declaring it lets Compile
// evaluate one representative arrival port per node pair instead of
// verifying all of them.
type ArrivalInvariant interface {
	ArrivalInvariant() bool
}

func isArrivalInvariant(alg VCAlgorithm) bool {
	a, ok := alg.(ArrivalInvariant)
	return ok && a.ArrivalInvariant()
}

// Candidate is one precompiled, pre-filtered routing candidate: the
// virtual direction packed into two bytes, its profitability, and its
// resolved output index in the canonical simulator port layout (see
// OutIndex). Only the per-cycle output-busy check remains for the
// simulator to do.
type Candidate struct {
	// Out is OutIndex(cur, Dir, VC) for the node the candidate was
	// compiled at.
	Out int32
	// Dir is topology.Direction.Index() of the output direction.
	Dir uint8
	// VC is the virtual channel.
	VC uint8
	// Prof records whether the hop reduces the distance to the
	// destination (a "profitable" move in the paper's terms).
	Prof bool
}

// Direction unpacks the candidate's output direction.
func (c Candidate) Direction() topology.Direction {
	return topology.DirectionFromIndex(int(c.Dir))
}

// OutIndex returns the canonical dense output index shared between
// compiled tables and the simulator: routers are laid out consecutively
// with 2n*vcs+1 virtual ports each (the last being the
// injection/ejection port), and direction d's virtual channel vc
// occupies port d.Index()*vcs + vc within its router.
func OutIndex(v topology.NodeID, d topology.Direction, vc, ndim, vcs int) int32 {
	vport := 2*ndim*vcs + 1
	return int32(int(v)*vport + d.Index()*vcs + vc)
}

// span is a half-open range into Table.cands.
type span struct{ start, end int32 }

// Table is a compiled routing relation: per (node, destination) pair,
// the filtered candidate lists for injected and arrived headers. A
// table is immutable after compilation and safe for concurrent readers;
// it is valid only at the fault epoch it was compiled at (see Epoch and
// TableFor).
//
// The lists live in one flat arena, interned per source node as
// (injected, arrived) pairs: on a 2-D mesh every destination in one
// direction class shares a pair, so a node holds a handful of pairs and
// each (node, destination) entry is just a two-byte pair index.
type Table struct {
	alg   VCAlgorithm
	epoch int
	n     int
	// route holds, at cur*n+dst, the index of the pair serving that
	// destination within cur's block of pairs.
	route []uint16
	// nodeBase[cur] is where cur's block starts in pairs. Entry 0 of
	// every block is the empty pair, which dst == cur keeps.
	nodeBase []int32
	// pairs holds each node's distinct (injected, arrived) spans. The two
	// spans of a pair alias one arena copy when the lists agree (they
	// differ only under WrapFirstHop).
	pairs [][2]span
	cands []Candidate
}

// Algorithm returns the relation the table was compiled from.
func (t *Table) Algorithm() VCAlgorithm { return t.alg }

// Epoch returns the topology fault epoch the table was compiled at.
// A table is stale once Topology.FaultEpoch moves past it.
func (t *Table) Epoch() int { return t.epoch }

// Lookup returns the compiled candidates for a header at cur destined
// for dst, injected or arrived. The returned slice aliases the table's
// arena with its capacity clipped to its length; callers must treat it
// as read-only.
func (t *Table) Lookup(cur, dst topology.NodeID, injected bool) []Candidate {
	p := &t.pairs[int(t.nodeBase[cur])+int(t.route[int(cur)*t.n+int(dst)])]
	s := p[1]
	if injected {
		s = p[0]
	}
	return t.cands[s.start:s.end:s.end]
}

// MemoryBytes reports the bytes the table's slices hold (their
// capacities), for capacity planning and the DESIGN.md numbers.
func (t *Table) MemoryBytes() int {
	return cap(t.route)*2 + cap(t.nodeBase)*4 + cap(t.pairs)*16 + cap(t.cands)*8
}

// compiler is one compilation's reusable state: the evaluation scratch
// and the per-source-node intern index. Once its buffers have grown to
// the relation's widest candidate list, evaluating a (node, destination)
// pair allocates nothing.
type compiler struct {
	alg  VCAlgorithm
	t    *topology.Topology
	vcs  int
	raw  []VirtualDirection
	dirs []topology.Direction
	// index maps the hash of an (injected, arrived) list pair to the
	// block index of the pair interned under it. It holds one source
	// node's pairs and is reset between nodes, since Candidate.Out makes
	// lists at different nodes distinct.
	index map[uint64]uint16
}

func newCompiler(alg VCAlgorithm) *compiler {
	return &compiler{alg: alg, t: alg.Topology(), vcs: alg.NumVCs(), index: map[uint64]uint16{}}
}

// cands evaluates the relation once and appends to out the result of the
// simulator's candidate filter: virtual channel in range, channel
// existing and not faulty. Profitability is computed unconditionally —
// the simulator reads it only under misroute patience or metrics, so
// precomputing it is behavior-neutral.
func (c *compiler) cands(cur, dst topology.NodeID, in VCInPort, out []Candidate) []Candidate {
	t := c.t
	c.raw, c.dirs = Evaluate(c.alg, cur, dst, in, c.raw[:0], c.dirs)
	ndim := t.NumDims()
	baseDist := t.Distance(cur, dst)
	for _, vd := range c.raw {
		if vd.VC < 0 || vd.VC >= c.vcs {
			continue
		}
		if !t.Enabled(topology.Channel{From: cur, Dir: vd.Dir}) {
			continue
		}
		prof := false
		if next, ok := t.Neighbor(cur, vd.Dir); ok && t.Distance(next, dst) < baseDist {
			prof = true
		}
		out = append(out, Candidate{
			Out:  OutIndex(cur, vd.Dir, vd.VC, ndim, c.vcs),
			Dir:  uint8(vd.Dir.Index()),
			VC:   uint8(vd.VC),
			Prof: prof,
		})
	}
	return out
}

// intern returns the index, within the current node's block of pairs
// starting at base, of a pair holding inj and arr, appending the pair
// (and its lists to the arena) only when the node has not produced an
// equal one yet. Both lists are hashed together, so a pair costs one
// index lookup. A pair whose hash collides with a different pair is
// simply stored again: the table stays exact, only that copy goes
// unshared.
func (c *compiler) intern(tab *Table, base int, inj, arr []Candidate) uint16 {
	h := hashPair(inj, arr)
	if i, ok := c.index[h]; ok {
		p := tab.pairs[base+int(i)]
		if candsEqual(tab.list(p[0]), inj) && candsEqual(tab.list(p[1]), arr) {
			return i
		}
	}
	p := [2]span{appendSpan(tab, inj)}
	if candsEqual(inj, arr) {
		p[1] = p[0]
	} else {
		p[1] = appendSpan(tab, arr)
	}
	i := uint16(len(tab.pairs) - base)
	tab.pairs = append(tab.pairs, p)
	c.index[h] = i
	return i
}

func (t *Table) list(s span) []Candidate { return t.cands[s.start:s.end] }

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hashPair is FNV-1a over inj's candidates, a separator word no
// candidate encodes to (their low byte is 0 or 1), then arr's.
func hashPair(inj, arr []Candidate) uint64 {
	h := (hashCands(fnvOffset, inj) ^ 0xff) * fnvPrime
	return hashCands(h, arr)
}

// hashCands continues the FNV-1a hash h over the candidates' fields.
func hashCands(h uint64, list []Candidate) uint64 {
	for _, c := range list {
		v := uint64(uint32(c.Out))<<24 | uint64(c.Dir)<<16 | uint64(c.VC)<<8
		if c.Prof {
			v |= 1
		}
		h = (h ^ v) * fnvPrime
	}
	return h
}

func candsEqual(a, b []Candidate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// compileCount tallies every compilation attempt (successes and the
// sticky failures, which cost nearly as much: arrival-dependence is
// detected mid-verification). CompileCount exposes it so sweep-level
// tests and benchmarks can assert cross-leaf sharing: a sweep whose
// leaves share relations compiles once per distinct (topology,
// algorithm, fault epoch), not once per leaf.
var compileCount atomic.Int64

// CompileCount returns the number of route-table compilations this
// process has attempted.
func CompileCount() int64 { return compileCount.Load() }

// Compile builds the routing table for alg at its topology's current
// fault epoch. It returns an error — and the caller falls back to
// direct evaluation — when the topology is too large or the relation's
// candidates depend on the arrival port (verified exhaustively unless
// the relation declares ArrivalInvariant).
func Compile(alg VCAlgorithm) (*Table, error) {
	compileCount.Add(1)
	t := alg.Topology()
	n := t.Nodes()
	if n > MaxTableNodes {
		return nil, fmt.Errorf("routing: %s: %d nodes exceed the %d-node table limit", alg.Name(), n, MaxTableNodes)
	}
	vcs := alg.NumVCs()
	if vcs < 1 || vcs > 256 {
		return nil, fmt.Errorf("routing: %s: %d virtual channels not compilable", alg.Name(), vcs)
	}
	ndim2 := 2 * t.NumDims()
	if ndim2 > 256 {
		return nil, fmt.Errorf("routing: %s: direction index does not fit the packed candidate", alg.Name())
	}
	invariant := isArrivalInvariant(alg)
	tab := &Table{
		alg:      alg,
		epoch:    t.FaultEpoch(),
		n:        n,
		route:    make([]uint16, n*n),
		nodeBase: make([]int32, n),
	}
	c := newCompiler(alg)
	var injList, arrList, probe []Candidate
	for cur := 0; cur < n; cur++ {
		curID := topology.NodeID(cur)
		clear(c.index)
		base := len(tab.pairs)
		tab.nodeBase[cur] = int32(base)
		tab.pairs = append(tab.pairs, [2]span{})
		for dst := 0; dst < n; dst++ {
			if dst == cur {
				continue // headers at their destination eject: the empty pair 0
			}
			dstID := topology.NodeID(dst)
			injList = c.cands(curID, dstID, VCInjected, injList[:0])
			if invariant {
				arrList = c.cands(curID, dstID, VCInPort{Dir: topology.Direction{}}, arrList[:0])
			} else {
				// Verify arrival invariance over every port a packet can
				// actually arrive on: travelling d means it came over the
				// channel paired with cur's d.Opposite() channel.
				first := true
				for di := 0; di < ndim2; di++ {
					d := topology.DirectionFromIndex(di)
					if !t.HasChannel(curID, d.Opposite()) {
						continue
					}
					for vc := 0; vc < vcs; vc++ {
						probe = c.cands(curID, dstID, VCInPort{Dir: d, VC: vc}, probe[:0])
						if first {
							arrList = append(arrList[:0], probe...)
							first = false
						} else if !candsEqual(arrList, probe) {
							return nil, fmt.Errorf("routing: %s depends on the arrival port at node %d (dst %d); not compilable",
								alg.Name(), cur, dst)
						}
					}
				}
				if first {
					// No network input can reach cur (isolated by faults);
					// only the injected list matters.
					arrList = append(arrList[:0], injList...)
				}
			}
			tab.route[cur*n+dst] = c.intern(tab, base, injList, arrList)
		}
	}
	return tab, nil
}

func appendSpan(tab *Table, cands []Candidate) span {
	start := int32(len(tab.cands))
	tab.cands = append(tab.cands, cands...)
	return span{start: start, end: int32(len(tab.cands))}
}

// tableEntry is a relation's compiled table, kept on its topology: the
// table at the epoch it was compiled at, or a sticky failure (a relation
// that is not compilable at one epoch will not become compilable at
// another).
type tableEntry struct {
	mu     sync.Mutex
	table  *Table
	failed bool
}

// tableKey keys a relation's tableEntry among its topology's derived
// values.
type tableKey struct{ alg VCAlgorithm }

// TableFor returns the compiled routing table for alg at its topology's
// current fault epoch, compiling on first use. The table is kept on the
// topology (topology.Derived), keyed by the relation value, so it lives
// as long as the topology does, and repeated calls — e.g. one simulation
// per load point sharing one relation — reuse the compilation. After a
// fault-set change the next call recompiles at the new epoch. It returns
// nil when alg is not compilable (arrival-dependent relations, oversized
// topologies, relation values that cannot be map keys); callers fall
// back to direct CandidatesVC evaluation.
func TableFor(alg VCAlgorithm) *Table {
	if !cacheable(alg) {
		return nil
	}
	topo := alg.Topology()
	e := topo.Derived(tableKey{alg}, func() any { return new(tableEntry) }).(*tableEntry)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.failed {
		return nil
	}
	if e.table != nil && e.table.epoch == topo.FaultEpoch() {
		return e.table
	}
	tab, err := Compile(alg)
	if err != nil {
		e.table, e.failed = nil, true
		return nil
	}
	e.table = tab
	return tab
}

// cacheable reports whether alg can key its table entry. The check is
// on the value, not the type: AsVC's comparable wrapper can hold a
// relation whose dynamic type has slice or map fields, and indexing a
// map with it would panic.
func cacheable(alg VCAlgorithm) bool {
	return alg != nil && reflect.ValueOf(alg).Comparable()
}
