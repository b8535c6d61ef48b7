package sim

// Switching selects the flow control technique. The paper's introduction
// contrasts wormhole routing with store-and-forward and virtual
// cut-through (Kermani & Kleinrock): "In the absence of contention, the
// latencies for store-and-forward are proportional to the product of
// packet length and distance to travel. The latencies for wormhole
// routing [and] virtual cut-through ... are proportional to the sum of
// packet length and distance to travel." The simulator implements all
// three so that claim is reproducible (see the "intro" experiment):
//
//   - Wormhole: flit buffers (BufferDepth, default one flit); a blocked
//     packet's flits wait in place across multiple routers.
//   - StoreAndForward: every router buffers the entire packet before
//     forwarding its first flit; buffers are packet-sized.
//   - VirtualCutThrough: packet-sized buffers, but the header is
//     forwarded as soon as it arrives; a blocked packet collapses into
//     one router instead of stalling across the path.
//
// For StoreAndForward and VirtualCutThrough the per-input buffer
// capacity is the maximum packet length (BufferDepth is ignored) —
// precisely the "enough buffer space to store an entire packet for each
// channel" cost the paper cites as wormhole routing's advantage.
type Switching int

const (
	// Wormhole is the paper's switching technique (default).
	Wormhole Switching = iota
	// StoreAndForward buffers whole packets at every hop.
	StoreAndForward
	// VirtualCutThrough forwards headers immediately but gives every
	// input a whole-packet buffer.
	VirtualCutThrough
)

func (s Switching) String() string {
	switch s {
	case StoreAndForward:
		return "store-and-forward"
	case VirtualCutThrough:
		return "virtual-cut-through"
	default:
		return "wormhole"
	}
}

// maxLength returns the largest configured packet length.
func (c *Config) maxLength() int {
	m := 0
	for _, l := range c.Lengths {
		if l > m {
			m = l
		}
	}
	if m == 0 {
		m = 200
	}
	return m
}

// effectiveDepth returns the input buffer capacity implied by the
// switching technique.
func (c *Config) effectiveDepth() int {
	switch c.Switching {
	case StoreAndForward, VirtualCutThrough:
		return c.maxLength()
	default:
		return c.BufferDepth
	}
}

// holdsWholePacket reports whether a buffer must contain a packet's
// every flit before the front flit may leave (store-and-forward's rule).
// The injection buffer is exempt: the source queue plays the role of the
// source node's packet buffer.
func (c *Config) holdsWholePacket() bool { return c.Switching == StoreAndForward }
