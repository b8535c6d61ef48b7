package routing

import (
	"turnmodel/internal/topology"
)

// CanRouter is implemented by relations that can answer source-to-
// destination reachability directly (e.g. TurnGraphRouting's cached
// turn-graph reachability). UnroutablePairs uses it as a fast path.
type CanRouter interface {
	// CanRoute reports whether a packet injected at src can reach dst
	// under the topology's current fault set.
	CanRoute(src, dst topology.NodeID) bool
}

// UnroutablePairs counts the ordered (src, dst) pairs, src != dst, that
// alg cannot serve under its topology's current fault set — the pairs a
// fault campaign must expect to drop (or to deadlock on, for relations
// that lose connectivity non-gracefully). Relations implementing
// CanRouter answer directly; the rest go through UnroutablePairsVC's
// search, which honors disabled channels exactly as the simulator's
// allocation does.
func UnroutablePairs(alg Algorithm) int {
	if cr, ok := alg.(CanRouter); ok {
		t := alg.Topology()
		n := t.Nodes()
		bad := 0
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				if s != d && !cr.CanRoute(topology.NodeID(s), topology.NodeID(d)) {
					bad++
				}
			}
		}
		return bad
	}
	return UnroutablePairsVC(AsVC(alg))
}

// UnroutablePairsVC is UnroutablePairs for virtual-channel relations.
// For each destination it builds the state graph whose nodes are
// (router, arrival virtual direction) pairs, plus "injected", and whose
// edges are the relation's candidate moves over enabled channels, then
// runs one reverse search from the destination's states; a source is
// routable iff its injected state reaches the destination. A pair thus
// counts as routable only when a VC-valid path exists — projecting the
// relation onto physical directions would overcount, since a VC
// transition permitted from one arrival channel may be forbidden from
// another (the dateline scheme's whole point).
func UnroutablePairsVC(alg VCAlgorithm) int {
	t := alg.Topology()
	n := t.Nodes()
	ndirs := 2 * t.NumDims()
	vcs := alg.NumVCs()
	ports := ndirs*vcs + 1 // arrival virtual directions plus injected
	nstates := n * ports
	rev := make([][]int32, nstates)
	reach := make([]bool, nstates)
	queue := make([]int32, 0, nstates)
	var buf []VirtualDirection
	var dirs []topology.Direction
	bad := 0
	for dsti := 0; dsti < n; dsti++ {
		dst := topology.NodeID(dsti)
		for i := range rev {
			rev[i] = rev[i][:0]
			reach[i] = false
		}
		queue = queue[:0]
		for v := 0; v < n; v++ {
			if v == dsti {
				// The relation must not be asked for candidates at the
				// destination; its states are the accepting set.
				for ip := 0; ip < ports; ip++ {
					s := int32(v*ports + ip)
					reach[s] = true
					queue = append(queue, s)
				}
				continue
			}
			cur := topology.NodeID(v)
			for ip := 0; ip < ports; ip++ {
				in := VCInjected
				if ip < ndirs*vcs {
					in = VCArrived(VirtualDirection{Dir: topology.DirectionFromIndex(ip / vcs), VC: ip % vcs})
				}
				buf, dirs = Evaluate(alg, cur, dst, in, buf[:0], dirs)
				for _, vd := range buf {
					if !t.Enabled(topology.Channel{From: cur, Dir: vd.Dir}) {
						continue
					}
					u, ok := t.Neighbor(cur, vd.Dir)
					if !ok {
						continue
					}
					to := int32(int(u)*ports + vd.Dir.Index()*vcs + vd.VC)
					rev[to] = append(rev[to], int32(v*ports+ip))
				}
			}
		}
		for len(queue) > 0 {
			s := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, from := range rev[s] {
				if !reach[from] {
					reach[from] = true
					queue = append(queue, from)
				}
			}
		}
		for v := 0; v < n; v++ {
			if v != dsti && !reach[v*ports+ndirs*vcs] {
				bad++
			}
		}
	}
	return bad
}
