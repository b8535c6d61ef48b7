package sim

import "math"

// genHeap is the stochastic source side's schedule: a binary min-heap
// with one entry per node, ordered by the cycle the node's next message
// is due and then by node. generate visits only the due prefix, so a
// cycle's due nodes come out in ascending node order, the order of the
// per-node scan it replaces.
type genHeap []genEntry

// genEntry schedules node v: due is ⌈nextGen[v]⌉, the first cycle c
// with nextGen[v] <= c (see dueCycle).
type genEntry struct {
	due int64
	v   int32
}

func (a genEntry) before(b genEntry) bool {
	return a.due < b.due || a.due == b.due && a.v < b.v
}

// dueCycle returns ⌈t⌉, the first cycle at or after generation time t.
// A time beyond int64's range, such as the +Inf gap of a generation
// rate that underflowed, is never due.
func dueCycle(t float64) int64 {
	if !(t < math.MaxInt64) {
		return math.MaxInt64
	}
	return int64(math.Ceil(t))
}

// init establishes heap order.
func (h genHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// down restores heap order below index i after h[i]'s key grew.
func (h genHeap) down(i int) {
	x := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(x) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
}
