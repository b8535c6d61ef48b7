package sim

import (
	"math/bits"

	"turnmodel/internal/topology"
)

// This file is the move phase of the train class: one virtual channel,
// one-flit buffers, chained wormhole advance, and no Observer (a metrics
// collector may be attached; see trainShaped and New). In that class a worm's
// n = flitsSent - flitsDelivered in-network flits fill a chain of n
// buffers, one flit each, linked by the channels the worm holds: the
// buffer behind chain buffer b is busyBy[upOut[b]]. In a cycle a chain
// either advances one buffer or stays put, so moveTrain moves a whole
// worm in one step where the per-flit path calls moveOne once per flit.
// At every cycle boundary both paths leave the same buffer, channel-hold,
// bitset and counter state, except that the train path's link counts
// lag by each held link's open interval until flushLinks credits it;
// see DESIGN.md, "Worm trains".

// trainShaped reports whether every worm of this engine's runs is a
// contiguous chain of one-flit buffers: one virtual channel, 1-flit
// buffers, wormhole switching and chained advance. CheckInvariants
// verifies the chains whenever it holds, whichever move path runs.
func (e *Engine) trainShaped() bool {
	return e.vcs == 1 && e.depth == 1 && e.cfg.Switching == Wormhole && !e.cfg.StrictAdvance
}

// moveTrains is the move phase of the train class. At cycle start the
// inputs in flowing &^ stalled are exactly the fronts of the worms that
// can advance on their own (downstream buffer empty, or ejecting): every
// other buffer of a chain is stalled on the next one. Each popped front
// advances its worm; a worm whose tail leaves a buffer pushes the worm
// waiting on that buffer. Each worm waits on at most one other, so which
// worms move does not depend on the order they are popped in.
func (e *Engine) moveTrains() {
	w := &e.scratch
	w.work = w.work[:0]
	for i, word := range e.flowing {
		word &^= e.stalled[i]
		base := int32(i << 6)
		for word != 0 {
			w.work = append(w.work, base+int32(bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	e.injectQueued()
	for len(w.work) > 0 {
		front := w.work[len(w.work)-1]
		w.work = w.work[:len(w.work)-1]
		e.moveTrain(front)
	}
}

// moveTrain advances by one buffer the worm whose front flit sits in
// input buffer front, which holds an output whose downstream buffer is
// empty, or an ejection channel. Every flit between a worm's head and
// tail is {p, false, false}, so the shift rewrites only the front (it
// takes the next flit), the buffer before the back (it takes the tail,
// once the worm is fully injected) and the back (it empties). The back
// is p.back, and the buffer before it is the one its held output leads
// to, so no step walks the worm. Flits are read and written in e.slot,
// the depth-1 arena, by input index. Each held link carries one flit per
// train move: the move counts on p.moves, and a link's flits are
// credited to linkFlits by interval (see linkStamp). A collector's
// Occupancy takes the net of the per-flit path's n single moves: one
// flit more at dest's router, one fewer at the back's. linkUsed stays
// unwritten: each link has one holder, and a worm moves at most once per
// cycle. An emptied injection buffer is refilled at once: its channel is
// unused this cycle, as the buffer was full, so tryInject leaves it full
// again or its source queue empty, and the source's injectable bit may
// stay clear.
func (e *Engine) moveTrain(front int32) {
	fb := &e.inbufs[front]
	f := e.slot[front]
	p := f.p
	out := fb.allocOut
	n := p.flitsSent - p.flitsDelivered
	injected := p.flitsSent == p.length
	p.moves++
	p.lastProgress = e.cycle
	e.lastMove = e.cycle
	dest := e.outDest[out]
	if dest >= 0 {
		// A forwarding front holds the header, and dest is empty with no
		// output held.
		db := &e.inbufs[dest]
		e.slot[dest] = f
		db.q = db.q[:1]
		db.headArrival = e.cycle
		p.hops++
		e.pushAllocWork(dest / int32(e.vport))
		if !f.tail {
			e.stall(front, out, dest)
		}
		if e.m != nil {
			e.m.Occupancy[int(dest)/e.vport]++
		}
	} else {
		p.flitsDelivered++
		e.flitsDeliveredEver++
	}
	back := p.back
	bb := &e.inbufs[back]
	if e.m != nil {
		e.m.Occupancy[int(back)/e.vport]--
	}
	if n > 1 {
		e.slot[front] = flit{p: p}
	}
	bb.q = bb.q[:0]
	if !injected {
		// The back is the source's injection buffer, and stays the back.
		// The source queue's front is this packet and the injection
		// channel is unused this cycle (the buffer was full), so
		// tryInject refills it, and the back stays flowing and stalled.
		e.tryInject(p.src)
		return
	}
	// The tail left the back: the buffer before it takes the tail and
	// becomes the back, or a one-buffer worm's back is dest (nothing,
	// once it ejects). Then the back's channel is freed and its router
	// woken.
	bout := bb.allocOut
	if n > 1 {
		prev := e.outDest[bout]
		e.slot[prev].tail = true
		p.back = prev
	} else {
		p.back = dest
	}
	e.release(back, bout, p)
	e.stalled.clear(back)
	e.stalledLow.clear(back)
	if dest < 0 && f.tail {
		e.deliver(p)
	}
	// The emptied back admits the next packet: the source queue's, or
	// the worm waiting on it.
	if int(bb.port) == e.vport-1 {
		e.tryInject(topology.NodeID(back / int32(e.vport)))
	} else if feeder := e.unstallFeeder(back); feeder >= 0 {
		e.scratch.work = append(e.scratch.work, feeder)
	}
}

// flushLinks makes linkFlits exact on the train path: every held
// output's flits since its stamp are credited (while links are counted)
// and it is restamped. openWindow calls it before its snapshot, so moves
// made before counting starts never count, and run calls it before the
// counts are read. Every held input of the train class holds a flit of
// its holder at a cycle boundary.
func (e *Engine) flushLinks() {
	if !e.trains {
		return
	}
	for out, in := range e.busyBy {
		if in < 0 {
			continue
		}
		moves := e.inbufs[in].q[0].p.moves
		if e.countLinks {
			e.linkFlits[e.physOf[out]] += moves - e.linkStamp[out]
		}
		e.linkStamp[out] = moves
	}
}
