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

// MaxTableNodes bounds the topologies worth compiling: a table is
// quadratic in the node count (two spans per node pair), so beyond this
// size compilation is refused and callers fall back to direct
// evaluation.
const MaxTableNodes = 1024

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
// the filtered candidate lists for injected and arrived headers, stored
// in one flat arena. A table is immutable after compilation and safe
// for concurrent readers; it is valid only at the fault epoch it was
// compiled at (see Epoch and TableFor).
type Table struct {
	alg   VCAlgorithm
	topo  *topology.Topology
	epoch int
	n     int
	// spans holds two entries per (cur, dst) pair at (cur*n+dst)*2:
	// the injected list, then the arrived list.
	spans []span
	// cands is the arena. Lists are interned per source node: every span
	// of node cur with equal contents — the injected and arrived lists of
	// one pair (they differ only under WrapFirstHop), and the pairs whose
	// destinations lie in the same direction class — points at one copy,
	// so the arena holds a few lists per node instead of one per pair.
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
	i := (int(cur)*t.n + int(dst)) * 2
	if !injected {
		i++
	}
	s := t.spans[i]
	return t.cands[s.start:s.end:s.end]
}

// MemoryBytes estimates the table's footprint, for capacity planning
// and the DESIGN.md numbers.
func (t *Table) MemoryBytes() int {
	return len(t.spans)*8 + len(t.cands)*8
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
	// index maps a candidate list's hash to the arena span of the list
	// interned under it. It holds one source node's lists and is reset
	// between nodes, since Candidate.Out makes lists at different nodes
	// distinct.
	index map[uint64]span
}

func newCompiler(alg VCAlgorithm) *compiler {
	return &compiler{alg: alg, t: alg.Topology(), vcs: alg.NumVCs(), index: map[uint64]span{}}
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

// intern returns a span of tab's arena holding list, appending list only
// when the current source node has not produced an equal one yet. A
// list whose hash collides with a different list is simply stored
// again: the table stays exact, only that copy goes unshared.
func (c *compiler) intern(tab *Table, list []Candidate) span {
	if len(list) == 0 {
		return span{}
	}
	h := hashCands(list)
	if s, ok := c.index[h]; ok && candsEqual(tab.cands[s.start:s.end], list) {
		return s
	}
	s := appendSpan(tab, list)
	c.index[h] = s
	return s
}

// hashCands is FNV-1a over the candidates' fields.
func hashCands(list []Candidate) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, c := range list {
		v := uint64(uint32(c.Out))<<24 | uint64(c.Dir)<<16 | uint64(c.VC)<<8
		if c.Prof {
			v |= 1
		}
		h = (h ^ v) * prime
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
		alg:   alg,
		topo:  t,
		epoch: t.FaultEpoch(),
		n:     n,
		spans: make([]span, n*n*2),
	}
	c := newCompiler(alg)
	var injList, arrList, probe []Candidate
	for cur := 0; cur < n; cur++ {
		curID := topology.NodeID(cur)
		clear(c.index)
		for dst := 0; dst < n; dst++ {
			if dst == cur {
				continue // headers at their destination eject; both spans stay empty
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
			si := (cur*n + dst) * 2
			tab.spans[si] = c.intern(tab, injList)
			tab.spans[si+1] = c.intern(tab, arrList)
		}
	}
	return tab, nil
}

func appendSpan(tab *Table, cands []Candidate) span {
	start := int32(len(tab.cands))
	tab.cands = append(tab.cands, cands...)
	return span{start: start, end: int32(len(tab.cands))}
}

// tableEntry is one cached compilation: the table at its current epoch,
// or a sticky failure (a relation that is not compilable at one epoch
// will not become compilable at another). pins counts PinTable holds
// and is guarded by tableCacheMu (not e.mu), like the cache map itself.
type tableEntry struct {
	mu     sync.Mutex
	table  *Table
	failed bool
	hooked bool
	pins   int
}

// maxCachedTables caps the process-wide table cache. Tables are a few
// megabytes on the largest figure topologies, and test suites churn
// through many short-lived algorithm instances; beyond the cap an
// arbitrary entry is evicted (its topology hook stays registered but
// only clears a dead entry).
const maxCachedTables = 32

var (
	tableCacheMu sync.Mutex
	tableCache   = map[VCAlgorithm]*tableEntry{}
)

// TableFor returns the compiled routing table for alg at its topology's
// current fault epoch, compiling on first use and caching per algorithm
// value. Repeated calls — e.g. one simulation per load point sharing
// one algorithm instance — reuse the compilation. It returns nil when
// alg is not compilable (arrival-dependent relations, oversized
// topologies, algorithm values that cannot be map keys); callers fall
// back to direct CandidatesVC evaluation.
//
// When the topology's fault set changes, the cached table is dropped by
// the fault-change hook and recompiled at the new epoch on the next
// call.
func TableFor(alg VCAlgorithm) *Table {
	if alg == nil || !reflect.TypeOf(alg).Comparable() {
		return nil
	}
	tableCacheMu.Lock()
	e := cacheEntryLocked(alg)
	tableCacheMu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.failed {
		return nil
	}
	topo := alg.Topology()
	if e.table != nil && e.table.epoch == topo.FaultEpoch() {
		return e.table
	}
	if !e.hooked {
		e.hooked = true
		// Drop the stale table as soon as the fault set changes; the
		// epoch check above is the correctness mechanism, the hook just
		// releases the memory eagerly. notifyFaultChange runs hooks
		// outside the topology's own lock, so taking e.mu here is safe.
		topo.OnFaultChange(func() {
			e.mu.Lock()
			e.table = nil
			e.mu.Unlock()
		})
	}
	tab, err := Compile(alg)
	if err != nil {
		e.failed = true
		return nil
	}
	e.table = tab
	return tab
}

// cacheEntryLocked returns alg's cache entry, creating it (and evicting
// an unpinned entry if the cache is at its cap) when absent. Callers
// hold tableCacheMu. Pinned entries never count as eviction victims;
// when every entry is pinned the cache simply grows past the cap — the
// cap protects against churn through short-lived algorithm instances,
// while pins mark the long-lived shared relations the sweep layer
// deliberately keeps.
func cacheEntryLocked(alg VCAlgorithm) *tableEntry {
	e, ok := tableCache[alg]
	if !ok {
		if len(tableCache) >= maxCachedTables {
			for k, v := range tableCache {
				if v.pins > 0 {
					continue
				}
				delete(tableCache, k)
				break
			}
		}
		e = &tableEntry{}
		tableCache[alg] = e
	}
	return e
}

// PinTable marks alg's compiled-table cache entry as exempt from the
// size-cap eviction, so a long-lived shared relation (internal/exp's
// cross-leaf compile cache) never loses its table to the arbitrary
// eviction that protects against test-suite churn. It does not compile
// anything — the first TableFor call still does that. The returned
// release drops the pin (idempotent); pinning a non-comparable relation
// is a no-op, matching TableFor's refusal to cache it.
func PinTable(alg VCAlgorithm) (release func()) {
	if alg == nil || !reflect.TypeOf(alg).Comparable() {
		return func() {}
	}
	tableCacheMu.Lock()
	e := cacheEntryLocked(alg)
	e.pins++
	tableCacheMu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			tableCacheMu.Lock()
			e.pins--
			tableCacheMu.Unlock()
		})
	}
}
