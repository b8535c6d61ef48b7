package sim

import (
	"fmt"
)

// CheckInvariants verifies the engine's structural invariants and
// returns the first violation found, or nil. It is safe to call between
// cycles (not from inside a phase). The laws checked:
//
//   - channel-hold bijection: busyBy[out] == in iff inbufs[in].allocOut
//     == out, and every held input has flits or a grant in progress;
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
//     engine's in-flight count.
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
	if e.flitsInjectedEver != e.flitsDeliveredEver+e.flitsDrainedEver+buffered {
		return fmt.Errorf("flit conservation: injected %d != delivered %d + drained %d + buffered %d",
			e.flitsInjectedEver, e.flitsDeliveredEver, e.flitsDrainedEver, buffered)
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
