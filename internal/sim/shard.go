package sim

import (
	"runtime"
	"sync"
	"sync/atomic"

	"turnmodel/internal/routing"
	"turnmodel/internal/topology"
)

// This file implements the deterministic sharded phases: Config.Shards
// > 1 partitions the routers into contiguous shards and runs the two
// parallelizable per-cycle regions — allocation propose (plus the move
// pre-pass) and the conflict-partitioned move drain — on a persistent
// worker pool, one goroutine per shard. Allocation follows a
// propose/commit discipline: workers only read shared engine state and
// write per-shard scratch, and a serial commit applies every shared
// mutation, observer callback and metric in the serial engine's order.
// The move phase is partitioned by conflict instead: each cycle a
// union-find over the input channels groups the flowing worms into
// independent components (per-link virtual-channel wait chains, feeder
// cascades, destination couplings), whole components are handed to
// shards, and each shard replays the serial drain schedule on its
// components — mutating buffers and channel holds in place, logging
// every cross-component side effect — while a serial commit replays the
// logs in the serial engine's exact order. Results are bit-identical at
// any shard count for every switching class (multi-VC and chained
// store-and-forward included; no serial fallback remains in the move
// phase). Configurations that consume the random stream during
// allocation (RandomInput, RandomPolicy) still fall back to fully
// serial execution (see initShards). DESIGN.md, "Deterministic sharded
// execution", derives the invariants.

// ShardsAuto is the Config.Shards value that sizes the shard count
// automatically: min(GOMAXPROCS, routers/64), at least one. The /64
// floor keeps shards coarse enough that the per-cycle barrier cost is
// amortized over a useful amount of per-shard work.
const ShardsAuto = -1

// Gate phase tags: which parallel region a release starts.
const (
	phaseExit  int32 = -1 // workers return (Close)
	phaseAlloc int32 = 0  // allocation propose + move pre-pass
	phaseMove  int32 = 1  // conflict-partitioned move drain
)

// moveOp kinds: the entries of the per-shard move logs the serial
// commit replays. moChunk is a marker, not an effect: it opens the run
// of ops one seed's drain produced, so the commit can interleave chunks
// from different shards in the serial engine's seed order.
const (
	moChunk   uint8 = iota // a = seed ordinal; starts that seed's op run
	moInject               // a = injection input, p = packet
	moForward              // a = input, b = output
	moEject                // a = input, b = output, p = delivered packet
)

// moveOp bundle flags, capturing post-mutation facts at log time so the
// replay is state-free. fWakeSelf folds the release wake-up and the
// new-front-header wake-up together — both target the moving input's
// own router, and the allocation worklist bit is idempotent.
const (
	fHead      uint8 = 1 << iota // the moved flit was a header
	fTail                        // the moved flit was a tail (deliver/release)
	fFlowSet                     // set the destination's flowing bit
	fFlowClear                   // clear the source's flowing bit
	fWakeSelf                    // wake the source router's allocation scan
	fWakeDest                    // wake the destination router's allocation scan
)

// moveOp is one logged move-phase effect. 16 bytes + the packet pointer;
// per-shard logs are truncated each cycle and grown to their high-water
// mark, so steady state appends without allocating.
type moveOp struct {
	kind uint8
	flag uint8
	a    int32
	b    int32
	p    *packet
}

// shardGate is the per-cycle barrier between the stepping goroutine
// (the coordinator, which doubles as shard zero's worker) and the
// shard workers. It replaces the previous per-cycle channel round
// trips with a sense-reversing spin/park protocol:
//
//   - Release: the coordinator publishes the phase tag and fault epoch,
//     resets the outstanding-worker count, then bumps seq. Workers spin
//     on seq briefly and park on a condvar when the release doesn't
//     arrive in time; the coordinator always broadcasts under the
//     mutex, and parked workers re-check seq under the same mutex, so
//     a wake-up can never be missed.
//   - Join: each worker decrements done; the last one signals the
//     coordinator if (and only if) it observes the coordinator's
//     parked marker and wins the CompareAndSwap that clears it. The
//     coordinator spins on done, then publishes the marker, re-checks
//     done, and either un-publishes the marker itself or receives the
//     signal — both sides race through the same CAS, so exactly one
//     of them consumes each park. The marker is the region's sequence
//     number, not a boolean: a straggling finish from region N that
//     executes its CAS inside region N+1's park window must not be
//     able to deposit a bogus wake-up, and CAS(N -> 0) cannot match a
//     marker holding N+1.
//
// All atomics are sequentially consistent, which is what makes the
// marker/count re-check pairs race-free. The spin budget is zero when
// GOMAXPROCS is 1: spinning can only steal time from the goroutine
// that would satisfy the wait.
type shardGate struct {
	mu   sync.Mutex
	cond *sync.Cond

	seq   atomic.Uint64 // release sequence number, starts at 1
	phase atomic.Int32  // region to run, published before seq
	epoch atomic.Int32  // fault epoch argument (phaseAlloc)
	done  atomic.Int32  // workers still inside the current region

	parked atomic.Uint64 // region seq the coordinator parked in, 0 = none
	joinCh chan struct{} // buffered(1): last worker -> coordinator

	spin int            // spin iterations before parking
	wg   sync.WaitGroup // worker lifetime, for Close
}

func newShardGate(workers int) *shardGate {
	g := &shardGate{joinCh: make(chan struct{}, 1)}
	g.cond = sync.NewCond(&g.mu)
	if runtime.GOMAXPROCS(0) > 1 {
		g.spin = 4096
	}
	g.wg.Add(workers)
	return g
}

// release starts one parallel region on every worker.
func (g *shardGate) release(ph, epoch, workers int32) {
	g.phase.Store(ph)
	g.epoch.Store(epoch)
	g.done.Store(workers)
	g.seq.Add(1)
	g.mu.Lock()
	g.cond.Broadcast()
	g.mu.Unlock()
}

// awaitRelease blocks a worker until the release after last, returning
// the new sequence number.
func (g *shardGate) awaitRelease(last uint64) uint64 {
	for i := 0; i < g.spin; i++ {
		if s := g.seq.Load(); s != last {
			return s
		}
		if i&63 == 63 {
			runtime.Gosched()
		}
	}
	g.mu.Lock()
	for g.seq.Load() == last {
		g.cond.Wait()
	}
	s := g.seq.Load()
	g.mu.Unlock()
	return s
}

// finish marks the calling worker done with region seq and wakes the
// coordinator if it parked in that same region and this was the last
// worker. The seq match is what keeps a straggling finish — preempted
// here after its decrement, resuming cycles later — from consuming a
// later region's park.
func (g *shardGate) finish(seq uint64) {
	if g.done.Add(-1) == 0 {
		if g.parked.CompareAndSwap(seq, 0) {
			g.joinCh <- struct{}{}
		}
	}
}

// awaitDone blocks the coordinator until every worker finished the
// current region.
func (g *shardGate) awaitDone() {
	for i := 0; i < g.spin; i++ {
		if g.done.Load() == 0 {
			return
		}
		if i&63 == 63 {
			runtime.Gosched()
		}
	}
	seq := g.seq.Load() // only the coordinator bumps seq: this is current
	g.parked.Store(seq)
	if g.done.Load() == 0 {
		// The workers may all have finished before the marker was
		// visible. Whoever wins the CAS owns the park: winning here
		// means no worker signalled (or will), losing means the signal
		// is in flight.
		if g.parked.CompareAndSwap(seq, 0) {
			return
		}
	}
	<-g.joinCh
}

// allocState is one shard's scratch: the reusable buffers
// allocateRouter needs plus, when deferred commits are on, the logs the
// serial commit replays — allocation's flow/worklist/observer logs and
// the move drain's op logs. A serial engine owns a single allocState
// with deferred == false, in which case setFlowing, observeAllocate,
// logInject and logMove apply immediately and the logs stay empty.
type allocState struct {
	deferred bool

	// Per-router scratch, reused across routers and cycles.
	waiting   []int32                    // inputs with an eligible header, len vport
	rawCands  []routing.VirtualDirection // CandidatesVC result buffer
	rawDirs   []topology.Direction       // routing.Evaluate scratch
	freeCands []routing.Candidate        // candidates whose output is free
	profCands []routing.Candidate        // distance-reducing subset

	// Deferred-commit logs, truncated each cycle and grown to their
	// high-water mark, so steady state appends without allocating.
	flowSets     []int32      // inputs to mark flowing
	clearRouters []int32      // routers to drop from the allocation worklist
	events       []allocEvent // observer Allocate calls, in grant order

	// Conflict-partitioned move drain state. work is the shard's LIFO
	// movement worklist (the serial engine uses shard zero's). seedIdx
	// holds the ordinals (into Engine.seedOrder) of the seeds whose
	// components this shard drains; injNodes the nodes whose injection
	// sweep it owns. injLog collects the sweep injections' deferred
	// effects, chunkLog the per-seed drain runs delimited by moChunk
	// markers; cur points at whichever of the two the drain is filling.
	work     []int32
	seedIdx  []int32
	injNodes []int32
	injLog   []moveOp
	chunkLog []moveOp
	cur      *[]moveOp
}

// allocEvent is one deferred Observer.Allocate call.
type allocEvent struct {
	at    topology.NodeID
	dir   topology.Direction
	vc    int32
	eject bool
}

// setFlowing marks input in as flowing: immediately when serial,
// deferred to the commit when sharded (the bitset's words are shared
// across shard boundaries).
func (st *allocState) setFlowing(e *Engine, in int32) {
	if st.deferred {
		st.flowSets = append(st.flowSets, in)
		return
	}
	e.flowing.set(in)
}

// observeAllocate reports a grant to the configured observer:
// immediately when serial, deferred when sharded so callbacks arrive in
// the serial engine's ascending-router order. Only called when
// e.cfg.Observer != nil.
func (st *allocState) observeAllocate(e *Engine, at topology.NodeID, dir topology.Direction, vc int, eject bool) {
	if st.deferred {
		st.events = append(st.events, allocEvent{at: at, dir: dir, vc: int32(vc), eject: eject})
		return
	}
	e.cfg.Observer.Allocate(e.cycle, at, dir, vc, eject)
}

// logInject records one injection's shared-state effects: applied
// immediately when serial, appended to the active move log when the
// drain runs sharded (the commit replays sweep injections in ascending
// node order, cascade injections inside their chunk).
func (st *allocState) logInject(e *Engine, in int32, p *packet, flag uint8) {
	if st.deferred {
		*st.cur = append(*st.cur, moveOp{kind: moInject, flag: flag, a: in, p: p})
		return
	}
	e.applyInject(in, p, flag)
}

// logMove records one forward/eject move's shared-state effects:
// applied immediately when serial, appended to the chunk log when the
// drain runs sharded.
func (st *allocState) logMove(e *Engine, kind uint8, in, out int32, flag uint8, p *packet) {
	if st.deferred {
		*st.cur = append(*st.cur, moveOp{kind: kind, flag: flag, a: in, b: out, p: p})
		return
	}
	if kind == moEject {
		e.applyEject(in, out, flag, p)
	} else {
		e.applyForward(in, out, flag)
	}
}

// initShards resolves the configured shard count and builds the
// per-shard scratch. ShardsAuto picks min(GOMAXPROCS, routers/64); the
// effective count is clamped to the router count, and configurations
// whose allocation consumes the shared random stream per visited router
// (RandomInput arbitration, RandomPolicy output selection) force serial
// execution: any partition of those draws would reorder the stream and
// change results.
func (e *Engine) initShards(n, ndim2 int) {
	ns := e.cfg.Shards
	if ns == ShardsAuto {
		ns = runtime.GOMAXPROCS(0)
		if coarse := n / 64; ns > coarse {
			ns = coarse
		}
	}
	if ns > n {
		ns = n
	}
	if ns < 1 || e.cfg.Input == RandomInput || e.cfg.Policy == RandomPolicy {
		ns = 1
	}
	e.nshards = ns
	if ns == 1 {
		e.shards = e.oneShard[:]
	} else {
		e.shards = make([]allocState, ns)
	}
	for s := range e.shards {
		e.shards[s] = allocState{
			deferred:  ns > 1,
			waiting:   make([]int32, e.vport),
			rawCands:  make([]routing.VirtualDirection, 0, ndim2*e.vcs),
			rawDirs:   make([]topology.Direction, 0, ndim2),
			freeCands: make([]routing.Candidate, 0, ndim2*e.vcs),
			profCands: make([]routing.Candidate, 0, ndim2*e.vcs),
		}
	}
	if e.cfg.StrictAdvance {
		e.lenStart = make([]int32, n*e.vport)
	}
	if ns > 1 {
		e.shardLo = make([]int32, ns+1)
		for s := 0; s <= ns; s++ {
			e.shardLo[s] = int32(n * s / ns)
		}
		if e.cfg.holdsWholePacket() {
			e.readyBits = make([]bool, n*e.vport)
		}
		// Every sharded engine runs the conflict-partitioned move drain:
		// component independence, not switching-class structure, is what
		// makes the parallel schedule exact, so no class is excluded.
		e.moveSharded = true
		e.shardOf = make([]int32, n)
		for s := 0; s < ns; s++ {
			for v := e.shardLo[s]; v < e.shardLo[s+1]; v++ {
				e.shardOf[v] = int32(s)
			}
		}
		nin := n * e.vport
		e.mvParent = make([]int32, nin)
		e.mvSize = make([]int32, nin)
		e.compShard = make([]int32, nin)
		e.mvEnum = make([]bool, nin)
		e.shardLoad = make([]int32, ns)
		e.mergeCur = make([]int32, ns)
	}
}

// runRegion runs one parallel region across the pool: release the
// workers, run shard zero's slice on the calling (stepping) goroutine,
// and join. The pool is started lazily at the first sharded cycle and
// stays warm until Close. The whole region runs under gateMu so a
// concurrent Close can never inject a phaseExit release mid-region
// (which would corrupt the done count) — it blocks until the region's
// join, detaches the pool, and the next region transparently starts a
// fresh one.
func (e *Engine) runRegion(ph, epoch int32) {
	e.gateMu.Lock()
	if e.gate == nil {
		e.startPool()
	}
	g := e.gate
	g.release(ph, epoch, int32(e.nshards-1))
	if ph == phaseAlloc {
		e.runShard(0, epoch)
	} else {
		e.runMoveShardDrain(0)
	}
	g.awaitDone()
	e.gateMu.Unlock()
}

// allocateSharded runs one allocation phase across the worker pool:
// propose in parallel, commit serially.
func (e *Engine) allocateSharded(epoch int32) {
	e.runRegion(phaseAlloc, epoch)
	// Serial commit. Ascending shard order is ascending router order
	// (shards are contiguous), so worklist updates and observer events
	// replay exactly as the serial engine would have produced them.
	for s := range e.shards {
		st := &e.shards[s]
		for _, in := range st.flowSets {
			e.flowing.set(in)
		}
		for _, v := range st.clearRouters {
			e.allocWork.clear(v)
		}
	}
	if obs := e.cfg.Observer; obs != nil {
		for s := range e.shards {
			for i := range e.shards[s].events {
				ev := &e.shards[s].events[i]
				obs.Allocate(e.cycle, ev.at, ev.dir, int(ev.vc), ev.eject)
			}
		}
	}
}

// runShard proposes grants for every worklisted router in shard s, then
// runs the shard's slice of the move pre-pass: the strict-advance
// buffer-length snapshot and the store-and-forward readiness memo.
// Both are exact — no queue changes between generation and movement —
// and touch only the shard's own index range, so the pre-pass rides
// the same barrier as allocation for free.
func (e *Engine) runShard(s int, epoch int32) {
	st := &e.shards[s]
	st.flowSets = st.flowSets[:0]
	st.clearRouters = st.clearRouters[:0]
	st.events = st.events[:0]
	lo, hi := e.shardLo[s], e.shardLo[s+1]
	e.allocWork.forEachIn(lo, hi, func(v int32) {
		if !e.allocateRouter(int(v), epoch, st) {
			st.clearRouters = append(st.clearRouters, v)
		}
	})
	inLo, inHi := int32(int(lo)*e.vport), int32(int(hi)*e.vport)
	if e.cfg.StrictAdvance {
		for i := inLo; i < inHi; i++ {
			e.lenStart[i] = int32(len(e.inbufs[i].q))
		}
	}
	if e.readyBits != nil {
		// Refresh the memo for inputs that were already flowing; inputs
		// granted this cycle keep a cleared bit and fall back to the
		// scan (sound either way — see readyToForward).
		e.flowing.forEachIn(inLo, inHi, func(in int32) {
			b := &e.inbufs[in]
			if int(b.port) != e.vport-1 && len(b.q) > 0 {
				e.readyBits[in] = e.tailAtFront(b)
			}
		})
	}
}

// moveParallel is the sharded move phase: discover this cycle's
// conflict components serially (cheap pointer-chasing over flat arrays,
// zero-alloc), hand whole components to shards, drain them in parallel
// behind the existing gate, and replay the deferred side-effect logs in
// the serial engine's order. Determinism rests on two facts derived in
// DESIGN.md, "Conflict-partitioned movement":
//
//   - Components are closed under every drain-time interaction. All
//     state a drain touches — queues it pops or appends, channel holds
//     it releases, link-usage slots it claims, cascade targets it
//     pushes, injections it attempts — belongs to inputs reachable from
//     its seeds through the dest/feeder/link-sibling edges, all of
//     which the discovery walk expands. Channel holds only get
//     released during movement, never acquired, so edges computed
//     before the drain cannot appear mid-drain.
//   - Inside one component, each shard replays the serial schedule
//     exactly: seeds are drained in descending seed-order (the serial
//     LIFO pop order), pending seeds are pre-marked in-work so cascade
//     pushes skip them just as the serial stack does, and each seed's
//     cascade subtree runs to exhaustion before the next seed — which
//     is precisely what the serial LIFO does, because cascades only
//     push component-local inputs.
func (e *Engine) moveParallel() {
	e.buildSeedOrder()
	e.buildMoveComponents()
	e.assignMoveWork()
	e.runRegion(phaseMove, 0)
	e.commitMoves()
}

// mvVisit enumerates input in as a member of this cycle's dependency
// structure: a fresh singleton union-find node, queued for edge
// expansion.
func (e *Engine) mvVisit(in int32) {
	if e.mvEnum[in] {
		return
	}
	e.mvEnum[in] = true
	e.mvParent[in] = in
	e.mvSize[in] = 1
	e.compShard[in] = -1
	e.mvTouched = append(e.mvTouched, in)
	e.mvStack = append(e.mvStack, in)
}

// mvFind returns in's component root, with path halving.
func (e *Engine) mvFind(in int32) int32 {
	for e.mvParent[in] != in {
		e.mvParent[in] = e.mvParent[e.mvParent[in]]
		in = e.mvParent[in]
	}
	return in
}

// mvUnion merges the components of a and b, by size.
func (e *Engine) mvUnion(a, b int32) {
	ra, rb := e.mvFind(a), e.mvFind(b)
	if ra == rb {
		return
	}
	if e.mvSize[ra] < e.mvSize[rb] {
		ra, rb = rb, ra
	}
	e.mvParent[rb] = ra
	e.mvSize[ra] += e.mvSize[rb]
}

// buildMoveComponents enumerates every channel holder reachable from
// this cycle's flowing inputs and unions the ones that can interact
// during the drain. A holder is an input whose packet holds an output
// channel (allocOut >= 0); empty-buffer holders (worm bubbles) matter
// too, because a cascade can hand them a flit and move it on in the
// same cycle. Three edge kinds cover every drain-time interaction:
//
//   - dest: in forwards into d = outDest[allocOut]; if d itself holds a
//     channel, in's append races d's pops (and, chained, d's pop is
//     what unblocks in), so they must drain on one shard.
//   - feeder: the holder of in's upstream output cascades into in (and
//     its same-cycle tail arrival flips store-and-forward readiness).
//   - link siblings (vcs > 1): every holder of a virtual channel on
//     in's output's physical link arbitrates for the same linkUsed
//     slot, in seed-rotation order.
//
// The edge relation is symmetric (dest and feeder are the two readings
// of the same busyBy/outDest pair; link siblings are mutual), and the
// walk expands the edges of every enumerated holder — not just seeds —
// so enumeration is closed under reachability: anything a component's
// drain can touch is in the component.
func (e *Engine) buildMoveComponents() {
	for _, i := range e.mvTouched {
		e.mvEnum[i] = false
	}
	e.mvTouched = e.mvTouched[:0]
	e.mvStack = e.mvStack[:0]
	for _, in := range e.seedOrder {
		e.mvVisit(in)
	}
	for len(e.mvStack) > 0 {
		in := e.mvStack[len(e.mvStack)-1]
		e.mvStack = e.mvStack[:len(e.mvStack)-1]
		out := e.inbufs[in].allocOut
		if d := e.outDest[out]; d >= 0 && e.inbufs[d].allocOut >= 0 {
			e.mvVisit(d)
			e.mvUnion(in, d)
		}
		if up := e.upOut[in]; up >= 0 {
			if f := e.busyBy[up]; f >= 0 {
				e.mvVisit(f)
				e.mvUnion(in, f)
			}
		}
		if e.vcs > 1 {
			if p := int(out) % e.vport; p != e.vport-1 {
				dirBase := out - int32(p%e.vcs)
				for c := int32(0); c < int32(e.vcs); c++ {
					if h := e.busyBy[dirBase+c]; h >= 0 && h != in {
						e.mvVisit(h)
						e.mvUnion(in, h)
					}
				}
			}
		}
	}
}

// assignMoveWork distributes whole components across the shards (seeds
// of one component always land together, least-loaded shard wins ties
// toward lower indices — all deterministic) and partitions the
// injection sweep: a node whose injection input belongs to a component
// is swept by that component's shard (its drain may race the sweep for
// the injection buffer); every other node stays with its contiguous
// range owner.
func (e *Engine) assignMoveWork() {
	for s := range e.shards {
		st := &e.shards[s]
		st.seedIdx = st.seedIdx[:0]
		st.injNodes = st.injNodes[:0]
		e.shardLoad[s] = 0
	}
	e.seedShard = e.seedShard[:0]
	for k, in := range e.seedOrder {
		r := e.mvFind(in)
		s := e.compShard[r]
		if s < 0 {
			s = 0
			for t := int32(1); t < int32(e.nshards); t++ {
				if e.shardLoad[t] < e.shardLoad[s] {
					s = t
				}
			}
			e.compShard[r] = s
		}
		e.shardLoad[s]++
		e.seedShard = append(e.seedShard, s)
		e.shards[s].seedIdx = append(e.shards[s].seedIdx, int32(k))
	}
	for v := range e.queues {
		if e.queues[v].len() == 0 {
			continue
		}
		inj := e.injectionIn(topology.NodeID(v))
		var s int32
		if e.mvEnum[inj] {
			// Every enumerated input is union-connected to a seed (the
			// walk starts at seeds and unions on visit), so its component
			// root was assigned a shard above; the fallback is defensive.
			s = e.compShard[e.mvFind(inj)]
			if s < 0 {
				s = e.shardOf[v]
			}
		} else {
			s = e.shardOf[v]
		}
		e.shards[s].injNodes = append(e.shards[s].injNodes, int32(v))
	}
}

// runMoveShardDrain runs shard s's slice of the move phase: its owned
// injection sweeps in ascending node order, then its components in the
// serial engine's seed order, logging every shared-state effect for the
// ordered commit. All in-place mutations (buffers, channel holds,
// link-usage slots, packet bookkeeping, the inWork bytes) are component-
// local, so shards never write the same memory.
func (e *Engine) runMoveShardDrain(s int) {
	st := &e.shards[s]
	st.injLog = st.injLog[:0]
	st.chunkLog = st.chunkLog[:0]
	st.work = st.work[:0]
	// Pre-mark every owned seed: a cascade reaching a seed not yet
	// drained must be skipped (the serial LIFO pop would find it already
	// on the stack), while one reaching an already-drained seed re-runs
	// it inside the current chunk (the serial stack would have re-pushed
	// it). The pre-mark makes both fall out of the inWork check.
	for _, k := range st.seedIdx {
		e.inWork[e.seedOrder[k]] = true
	}
	st.cur = &st.injLog
	for _, v := range st.injNodes {
		e.tryInject(topology.NodeID(v), st)
	}
	st.cur = &st.chunkLog
	for i := len(st.seedIdx) - 1; i >= 0; i-- {
		k := st.seedIdx[i]
		st.chunkLog = append(st.chunkLog, moveOp{kind: moChunk, a: k})
		seed := e.seedOrder[k]
		e.inWork[seed] = false
		e.moveOne(seed, st)
		for len(st.work) > 0 {
			in := st.work[len(st.work)-1]
			st.work = st.work[:len(st.work)-1]
			e.inWork[in] = false
			e.moveOne(in, st)
		}
	}
}

// commitMoves replays the per-shard move logs in the serial engine's
// order: first every sweep injection in ascending node order (a k-way
// merge over the shards' injection logs, which are each ascending),
// then every seed's chunk in descending seed order — the serial LIFO's
// pop order — pulling each chunk from its owning shard's log. Within a
// chunk the ops replay in drain order, which is the serial schedule of
// that seed's cascade subtree.
func (e *Engine) commitMoves() {
	for s := range e.mergeCur {
		e.mergeCur[s] = 0
	}
	for {
		best := -1
		var bestIn int32
		for s := 0; s < e.nshards; s++ {
			if int(e.mergeCur[s]) < len(e.shards[s].injLog) {
				in := e.shards[s].injLog[e.mergeCur[s]].a
				if best < 0 || in < bestIn {
					best, bestIn = s, in
				}
			}
		}
		if best < 0 {
			break
		}
		op := &e.shards[best].injLog[e.mergeCur[best]]
		e.mergeCur[best]++
		e.applyInject(op.a, op.p, op.flag)
	}
	for s := range e.mergeCur {
		e.mergeCur[s] = 0
	}
	for k := len(e.seedOrder) - 1; k >= 0; k-- {
		s := e.seedShard[k]
		log := e.shards[s].chunkLog
		c := int(e.mergeCur[s])
		if log[c].kind != moChunk || log[c].a != int32(k) {
			panic("sim: move chunk log out of order")
		}
		c++
		for c < len(log) && log[c].kind != moChunk {
			op := &log[c]
			switch op.kind {
			case moInject:
				e.applyInject(op.a, op.p, op.flag)
			case moForward:
				e.applyForward(op.a, op.b, op.flag)
			case moEject:
				e.applyEject(op.a, op.b, op.flag, op.p)
			}
			c++
		}
		e.mergeCur[s] = int32(c)
	}
}

// startPool launches the worker goroutines for shards 1..nshards-1
// (shard zero runs on the stepping goroutine). Workers park on the
// gate between regions; the pool stays warm across the engine's whole
// life — repeated run/step sequences reuse it — until Close. Called
// with gateMu held; the gate is passed to each worker explicitly so a
// late-starting goroutine never reads e.gate concurrently with a
// Close that detaches it.
func (e *Engine) startPool() {
	e.gate = newShardGate(e.nshards - 1)
	for s := 1; s < e.nshards; s++ {
		go e.shardWorker(s, e.gate)
	}
}

// shardWorker is the loop of one pool goroutine: wait for a release,
// run the published region's slice, report done; exit on phaseExit.
func (e *Engine) shardWorker(s int, g *shardGate) {
	defer g.wg.Done()
	last := uint64(0)
	for {
		last = g.awaitRelease(last)
		switch g.phase.Load() {
		case phaseAlloc:
			e.runShard(s, g.epoch.Load())
		case phaseMove:
			e.runMoveShardDrain(s)
		default:
			return
		}
		g.finish(last)
	}
}

// Close releases the shard worker goroutines. It is a no-op for serial
// engines and engines that never stepped; Run (the package function)
// closes the engine it creates. Tests that drive a sharded engine
// through step directly should defer it. The engine remains usable
// after Close — the next sharded cycle restarts the pool.
//
// Close is idempotent and safe for concurrent use, including against a
// run in flight on another goroutine (the turnserver cancels jobs
// mid-run): it waits for any in-flight parallel region, detaches the
// pool under gateMu, and tears it down outside the lock. Concurrent
// callers race to detach; every loser sees nil and returns, and a
// region that starts after the detach builds a fresh pool.
func (e *Engine) Close() {
	e.gateMu.Lock()
	g := e.gate
	e.gate = nil
	e.gateMu.Unlock()
	if g == nil {
		return
	}
	g.release(phaseExit, 0, 0)
	g.wg.Wait()
}
