package sim

import (
	"fmt"

	"turnmodel/internal/topology"
)

// CheckInvariants verifies the engine's structural invariants and
// returns the first violation found, or nil. It is safe to call between
// cycles (not from inside a phase). The laws checked:
//
//   - channel-hold bijection: busyBy[out] == in iff inbufs[in].allocOut
//     == out;
//   - buffer bounds: no input buffer exceeds the configured depth;
//   - flowing consistency: an input is marked flowing iff it holds a
//     flit and an allocated output;
//   - stalled consistency: an input is marked stalled iff it holds an
//     output whose downstream buffer is full, and stalledLow iff it is
//     stalled and that buffer's index is below the output's;
//   - flit conservation: flits injected == flits delivered + flits
//     drained by recovery + flits currently sitting in buffers;
//   - packet conservation: the set of distinct packets in source
//     queues, network buffers and the retry queue is exactly the
//     engine's in-flight count;
//   - worm contiguity, for engines in the train class's shape (one
//     virtual channel, 1-flit buffers, chained wormhole; see
//     trainShaped): every held input has a flit, and each worm's
//     n = flitsSent - flitsDelivered in-network flits fill a chain of
//     n buffers linked by the channels it holds, one flit each, with
//     the head flag only at the front, the tail flag only at the back
//     once the worm is fully injected, and the back at the source's
//     injection buffer while it is not. The train move path relies on
//     this shape;
//   - train bookkeeping, when the train path moves (see moveTrain): each
//     worm's back is the last buffer of its chain, and each held
//     output's stamp is at most its holder's move count;
//   - generation schedule, for stochastic engines: the generation heap
//     holds every node exactly once, keyed by ⌈nextGen[v]⌉, in heap
//     order, and no entry is due at or before the last cycle generate
//     ran;
//   - injectable set: every source whose bit is clear has an empty
//     queue or a full injection buffer.
//
// Config.CheckInvariants runs this periodically during Run and once at
// the end, recording the first violation in Result.InvariantViolation;
// tests and the cmd-level -check flags call it directly.
func (e *Engine) CheckInvariants() error {
	for out := range e.busyBy {
		in := e.busyBy[out]
		if in < 0 {
			continue
		}
		if int(in) >= len(e.inbufs) {
			return fmt.Errorf("busyBy[%d] = %d out of range", out, in)
		}
		if got := e.inbufs[in].allocOut; got != int32(out) {
			return fmt.Errorf("busyBy[%d] = %d but inbufs[%d].allocOut = %d", out, in, in, got)
		}
	}
	var buffered int64
	live := make(map[*packet]bool)
	for in := range e.inbufs {
		b := &e.inbufs[in]
		if len(b.q) > e.depth {
			return fmt.Errorf("input %d holds %d flits, depth %d", in, len(b.q), e.depth)
		}
		buffered += int64(len(b.q))
		for i := range b.q {
			live[b.q[i].p] = true
		}
		if b.allocOut >= 0 {
			if int(b.allocOut) >= len(e.busyBy) {
				return fmt.Errorf("inbufs[%d].allocOut = %d out of range", in, b.allocOut)
			}
			if got := e.busyBy[b.allocOut]; got != int32(in) {
				return fmt.Errorf("inbufs[%d].allocOut = %d but busyBy[%d] = %d", in, b.allocOut, b.allocOut, got)
			}
		}
		wantFlowing := b.allocOut >= 0 && len(b.q) > 0
		if got := e.flowing.get(int32(in)); got != wantFlowing {
			return fmt.Errorf("input %d: flowing = %v, want %v (allocOut %d, %d flits)",
				in, got, wantFlowing, b.allocOut, len(b.q))
		}
		wantStalled, wantLow := false, false
		if b.allocOut >= 0 {
			if dest := e.outDest[b.allocOut]; dest >= 0 && len(e.inbufs[dest].q) >= e.depth {
				wantStalled, wantLow = true, dest < b.allocOut
			}
		}
		if got := e.stalled.get(int32(in)); got != wantStalled {
			return fmt.Errorf("input %d: stalled = %v, want %v (allocOut %d)", in, got, wantStalled, b.allocOut)
		}
		if got := e.stalledLow.get(int32(in)); got != wantLow {
			return fmt.Errorf("input %d: stalledLow = %v, want %v (allocOut %d)", in, got, wantLow, b.allocOut)
		}
	}
	if e.trainShaped() {
		if err := e.checkChains(); err != nil {
			return err
		}
	}
	if err := e.checkSourceSide(); err != nil {
		return err
	}
	if e.flitsInjectedEver != e.flitsDeliveredEver+e.recov.flitsDrained+buffered {
		return fmt.Errorf("flit conservation: injected %d != delivered %d + drained %d + buffered %d",
			e.flitsInjectedEver, e.flitsDeliveredEver, e.recov.flitsDrained, buffered)
	}
	for i := range e.queues {
		q := &e.queues[i]
		for j := 0; j < q.len(); j++ {
			live[q.at(j)] = true
		}
	}
	for _, en := range e.recov.pending {
		live[en.p] = true
	}
	if len(live) != e.inFlight {
		return fmt.Errorf("packet conservation: %d distinct live packets, in-flight count %d",
			len(live), e.inFlight)
	}
	return nil
}

// checkChains verifies worm contiguity (see CheckInvariants). A worm's
// front is the buffer holding its header, or, once the header has been
// consumed, the buffer holding the ejection channel; from each front it
// walks the feeder links busyBy[upOut[b]] back to the worm's back.
func (e *Engine) checkChains() error {
	onChain := make([]bool, len(e.inbufs))
	for in := range e.inbufs {
		b := &e.inbufs[in]
		if len(b.q) == 0 {
			if b.allocOut >= 0 {
				return fmt.Errorf("input %d holds output %d but no flit", in, b.allocOut)
			}
			continue
		}
		ejecting := b.allocOut >= 0 && e.outDest[b.allocOut] < 0
		if !b.q[0].head && !ejecting {
			continue // not a front
		}
		p := b.q[0].p
		n := p.flitsSent - p.flitsDelivered
		injected := p.flitsSent == p.length
		cur := int32(in)
		for k := 0; k < n; k++ {
			if k > 0 {
				up := e.upOut[cur]
				if up < 0 || e.busyBy[up] < 0 {
					return fmt.Errorf("packet %d: chain from input %d breaks at input %d after %d of %d buffers",
						p.id, in, cur, k, n)
				}
				cur = e.busyBy[up]
			}
			cb := &e.inbufs[cur]
			if len(cb.q) != 1 || cb.q[0].p != p {
				return fmt.Errorf("packet %d: chain buffer %d of %d (input %d) does not hold exactly one of its flits",
					p.id, k+1, n, cur)
			}
			if onChain[cur] {
				return fmt.Errorf("packet %d: input %d is on two chains", p.id, cur)
			}
			onChain[cur] = true
			f := cb.q[0]
			if f.head != (k == 0 && p.flitsDelivered == 0) {
				return fmt.Errorf("packet %d: head flag %v at chain buffer %d of %d (input %d)", p.id, f.head, k+1, n, cur)
			}
			if f.tail != (injected && k == n-1) {
				return fmt.Errorf("packet %d: tail flag %v at chain buffer %d of %d (input %d, %d of %d flits sent)",
					p.id, f.tail, k+1, n, cur, p.flitsSent, p.length)
			}
		}
		if !injected && cur != e.injectionIn(p.src) {
			return fmt.Errorf("packet %d: partially injected, but its chain ends at input %d, not its source's injection buffer",
				p.id, cur)
		}
		if e.trains && p.back != cur {
			return fmt.Errorf("packet %d: back is input %d, but its chain ends at input %d", p.id, p.back, cur)
		}
	}
	if e.trains {
		for out, in := range e.busyBy {
			if in < 0 {
				continue
			}
			if p := e.inbufs[in].q[0].p; e.linkStamp[out] > p.moves {
				return fmt.Errorf("output %d: stamp %d exceeds its holder packet %d's %d moves",
					out, e.linkStamp[out], p.id, p.moves)
			}
		}
	}
	for in := range e.inbufs {
		if q := e.inbufs[in].q; len(q) > 0 && !onChain[in] {
			return fmt.Errorf("input %d holds a flit of packet %d off its worm's chain", in, q[0].p.id)
		}
	}
	return nil
}

// checkSourceSide verifies the generation schedule and the injectable
// set (see CheckInvariants).
func (e *Engine) checkSourceSide() error {
	if e.script == nil {
		h := e.genHeap
		if len(h) != len(e.nextGen) {
			return fmt.Errorf("generation heap holds %d entries for %d nodes", len(h), len(e.nextGen))
		}
		seen := make([]bool, len(h))
		for i, en := range h {
			if en.v < 0 || int(en.v) >= len(h) || seen[en.v] {
				return fmt.Errorf("generation heap entry %d: node %d out of range or repeated", i, en.v)
			}
			seen[en.v] = true
			if want := dueCycle(e.nextGen[en.v]); en.due != want {
				return fmt.Errorf("generation heap entry %d: node %d due at cycle %d, want %d", i, en.v, en.due, want)
			}
			if parent := (i - 1) / 2; i > 0 && en.before(h[parent]) {
				return fmt.Errorf("generation heap entry %d (node %d, due %d) precedes its parent (node %d, due %d)",
					i, en.v, en.due, h[parent].v, h[parent].due)
			}
			if en.due <= e.lastGen {
				return fmt.Errorf("generation heap: node %d due at cycle %d, but generate ran at cycle %d",
					en.v, en.due, e.lastGen)
			}
		}
	}
	for v := range e.queues {
		if e.injectable.get(int32(v)) || e.queues[v].len() == 0 {
			continue
		}
		if n := len(e.inbufs[e.injectionIn(topology.NodeID(v))].q); n < e.depth {
			return fmt.Errorf("source %d: not injectable, but %d packets queued and its injection buffer holds %d of %d flits",
				v, e.queues[v].len(), n, e.depth)
		}
	}
	return nil
}

// checkInvariantsNow runs the checker and records the first violation
// in invariantErr, tagged with where in the run it was found.
func (e *Engine) checkInvariantsNow(when string) {
	if e.invariantErr != "" {
		return
	}
	if err := e.CheckInvariants(); err != nil {
		e.invariantErr = fmt.Sprintf("%s: %v", when, err)
	}
}
