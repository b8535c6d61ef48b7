package sim

import (
	"fmt"

	"turnmodel/internal/topology"
)

// This file implements engine-level deadlock recovery: a per-worm
// progress watchdog that regressively aborts packets that have made no
// progress for Config.RecoveryThreshold cycles — draining their
// in-network flits and releasing the output channels they hold — and
// re-injects them at the source with exponential backoff and a bounded
// retry budget. With recovery, a would-be Deadlocked run becomes a run
// whose packets are each Delivered, retried-and-Delivered, or Dropped,
// with full accounting in Result. See DESIGN.md, "Deadlock recovery".

// retryEntry is one aborted packet waiting out its backoff.
type retryEntry struct {
	due int64 // cycle the packet may re-enter its source queue
	p   *packet
}

// recoveryState is the engine's recovery bookkeeping. The zero value is
// valid for runs with recovery disabled.
type recoveryState struct {
	every   int64        // watchdog scan cadence in cycles (threshold/4)
	pending []retryEntry // aborted packets waiting out their backoff
	victims []int32      // scan scratch: header buffer indices to abort

	// Whole-run counters for Result, copied to a metrics collector.
	recoveries   int64 // worms aborted
	retries      int64 // re-injections released into source queues
	drops        int64 // packets whose retry budget ran out
	flitsDrained int64 // flits removed from buffers by aborts
}

// recoverStep runs once per cycle before generation when recovery is
// enabled: it releases retry-queue packets whose backoff expired back
// into their source queues, and — at the watchdog cadence — scans for
// stalled worms and aborts them. Victims are snapshotted before any
// abort mutates buffer state, so a drain that exposes a new header
// never cascades into aborting a packet that was not itself stale.
func (e *Engine) recoverStep() {
	r := &e.recov
	if len(r.pending) > 0 {
		kept := r.pending[:0]
		for _, en := range r.pending {
			if en.due <= e.cycle {
				e.queues[en.p.src].push(en.p)
				e.injectable.set(int32(en.p.src))
				r.retries++
				// A release is engine-driven liveness: don't let a long
				// backoff with an otherwise idle network read as deadlock.
				e.lastMove = e.cycle
			} else {
				kept = append(kept, en)
			}
		}
		r.pending = kept
	}
	if e.cycle == 0 || e.cycle%r.every != 0 {
		return
	}
	victims := r.victims[:0]
	for in := range e.inbufs {
		b := &e.inbufs[in]
		if b.allocOut >= 0 || len(b.q) == 0 || !b.q[0].head {
			continue
		}
		if e.cycle-b.q[0].p.lastProgress >= e.cfg.RecoveryThreshold {
			victims = append(victims, int32(in))
		}
	}
	r.victims = victims
	for _, in := range victims {
		e.abortWorm(in)
	}
	if len(victims) > 0 && e.cfg.CheckInvariants {
		e.checkInvariantsNow("after recovery drain")
	}
}

// abortWorm regressively aborts the worm whose (stalled, unallocated)
// header flit sits at the front of input buffer hin: every flit of the
// packet is drained from the buffer chain back toward the source, every
// output channel the worm holds is released and the routers woken, and
// the packet is either scheduled for re-injection after its backoff or
// dropped when the retry budget is exhausted.
func (e *Engine) abortWorm(hin int32) {
	hb := &e.inbufs[hin]
	// Revalidate against the snapshot: an earlier abort this scan cannot
	// have granted this header an output (allocation only runs later in
	// the cycle), but defensive staleness checks are cheap.
	if len(hb.q) == 0 || !hb.q[0].head || hb.allocOut >= 0 {
		return
	}
	p := hb.q[0].p
	if e.cycle-p.lastProgress < e.cfg.RecoveryThreshold {
		return
	}
	inNet := p.flitsSent - p.flitsDelivered // header worms have flitsDelivered == 0
	drained := 0
	released := 0
	cur := hin
	// Walk the buffer chain from the header back toward the source. The
	// worm's flits are contiguous at the front of each buffer on the
	// chain (FIFO buffers, and the header is the oldest flit), so each
	// step drains a prefix, then follows the upstream output that feeds
	// cur — releasing it — to the buffer holding it.
	for hop := 0; hop <= len(e.inbufs); hop++ {
		cb := &e.inbufs[cur]
		k := 0
		for k < len(cb.q) && cb.q[k].p == p {
			k++
		}
		if k > 0 {
			rest := len(cb.q) - k
			copy(cb.q, cb.q[k:])
			cb.q = cb.q[:rest]
			drained += k
			router := int(cur) / e.vport
			if e.m != nil {
				e.m.Occupancy[router] -= int32(k)
			}
			if rest == 0 {
				e.flowing.clear(cur)
			} else if cb.q[0].head {
				// The drain exposed a queued header: wake allocation.
				// Its headArrival was recorded on arrival and stands.
				e.pushAllocWork(int32(router))
			}
			// cur is below capacity now: its feeder, whether this worm
			// or a packet queued behind it, is no longer stalled.
			e.unstallFeeder(cur)
		}
		if int(cb.port) == e.vport-1 {
			// Injection buffer: the chain ends at the source, which may
			// inject into the space the drain freed.
			e.injectable.set(cur / int32(e.vport))
			break
		}
		if drained == inNet && p.flitsSent == p.length {
			break // tail drained and fully injected: nothing upstream
		}
		up := e.upOut[cur]
		if up < 0 {
			break
		}
		feeder := e.busyBy[up]
		if feeder < 0 {
			break // channel free: the worm's tail already crossed it
		}
		// The released feeder is not stalled: either the drain above
		// cleared its bits, or cur held none of the worm's flits, and a
		// buffer fed by a channel the worm holds is then empty.
		e.release(feeder, up, p)
		released++
		cur = feeder
	}
	if p.flitsSent < p.length {
		// Partially injected: the un-sent remainder still heads the
		// source queue; remove it so the retry starts from scratch.
		q := &e.queues[p.src]
		if q.len() > 0 && q.front() == p {
			q.pop()
		} else if e.invariantErr == "" {
			e.invariantErr = "recovery: partially injected packet missing from source queue head"
		}
	}
	if drained != inNet && e.invariantErr == "" {
		e.invariantErr = fmt.Sprintf("recovery: drained %d flits of packet %d, expected %d",
			drained, p.id, inNet)
	}
	r := &e.recov
	r.recoveries++
	r.flitsDrained += int64(drained)
	// The abort itself is progress in the liveness sense.
	e.lastMove = e.cycle

	p.flitsSent = 0
	p.flitsDelivered = 0
	p.hops = 0
	p.retries++
	dropped := e.cfg.RetryLimit < 0 || int(p.retries) > e.cfg.RetryLimit
	if e.recObs != nil {
		e.recObs.Abort(e.cycle, p.src, p.dst, drained, released, int(p.retries), dropped)
	}
	if dropped {
		r.drops++
		e.inFlight--
		e.releasePacket(p)
		return
	}
	shift := uint(p.retries - 1)
	if shift > 3 {
		shift = 3 // cap the exponential backoff at 8x the base
	}
	r.pending = append(r.pending, retryEntry{due: e.cycle + e.cfg.RetryBackoff<<shift, p: p})
}

// advanceFaults applies the fault plan's events due at the current
// cycle. Plan events were validated at construction, so an error here
// is a programming bug; it is recorded as an invariant violation rather
// than silently dropped.
func (e *Engine) advanceFaults() {
	if _, err := e.faults.Advance(e.cycle); err != nil && e.invariantErr == "" {
		e.invariantErr = "fault driver: " + err.Error()
	}
}

// restoreFaults re-enables every channel the fault driver still holds
// disabled, restoring the topology's pre-run fault state; run defers it
// so a shared topology can host subsequent runs.
func (e *Engine) restoreFaults() {
	if e.faults == nil {
		return
	}
	if err := e.faults.Reset(); err != nil && e.invariantErr == "" {
		e.invariantErr = "fault driver reset: " + err.Error()
	}
}

// RecoveryObserver extends Observer with recovery events. A
// Config.Observer that also implements it receives an Abort callback
// whenever the watchdog regressively aborts a worm; aborts fire in the
// pre-generate phase, so within a cycle they strictly precede every
// Inject, Allocate, Forward and Deliver event.
type RecoveryObserver interface {
	Observer
	// Abort fires when a stalled worm is aborted: flitsDrained flits
	// were removed from network buffers, channelsReleased held output
	// channels were freed, retry is the abort count for this packet so
	// far, and dropped reports that the retry budget is exhausted (the
	// packet will not be re-injected).
	Abort(cycle int64, src, dst topology.NodeID, flitsDrained, channelsReleased, retry int, dropped bool)
}
