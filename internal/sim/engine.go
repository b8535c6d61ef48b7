package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"turnmodel/internal/fault"
	"turnmodel/internal/metrics"
	"turnmodel/internal/routing"
	"turnmodel/internal/stats"
	"turnmodel/internal/topology"
)

// packet is an in-flight message. The paper divides messages into
// packets and packets into flits; as in its experiments every message is
// a single packet.
type packet struct {
	id     int64
	src    topology.NodeID
	dst    topology.NodeID
	length int
	// firstDir restricts the first hop (scripted scenarios only).
	firstDir *topology.Direction

	genCycle     int64 // message created at the source processor
	injectCycle  int64 // header flit entered the source router
	deliverCycle int64 // tail flit consumed at the destination

	flitsSent      int // flits that have left the source queue
	flitsDelivered int
	hops           int // network channels traversed by the header

	// lastProgress is the cycle any flit of this packet last advanced
	// (injection or link traversal); the recovery watchdog's staleness
	// key. retries counts regressive aborts of this packet. Both are
	// bookkeeping stores only — with recovery disabled nothing reads
	// them, so results are bit-identical either way.
	lastProgress int64
	retries      int32
}

// flit is one flow control digit.
type flit struct {
	p    *packet
	head bool
	tail bool
}

// pktChunk is the packet freelist's refill granularity: a cache miss
// allocates this many packets in one block.
const pktChunk = 64

// flitArenaMaxFlits caps the preallocated flit-buffer arena. Whole-
// packet buffers (store-and-forward, virtual cut-through) on large
// multi-VC topologies would reserve tens of megabytes up front; such
// configurations keep the lazily grown per-buffer slices instead.
const flitArenaMaxFlits = 1 << 20

// inbuf is the buffer of one router input channel (one per virtual
// channel of each physical input, plus the injection channel).
type inbuf struct {
	q []flit
	// allocOut is the global output index held by the packet currently
	// flowing through this input, or -1.
	allocOut int32
	// port is the virtual port index of this buffer within its router
	// (vport-1 is the injection channel).
	port int32
	// headArrival is the cycle the current header flit arrived, the key
	// of the local first-come-first-served input selection policy.
	headArrival int64

	// cands is the filtered routing candidate list for the header at the
	// front of this buffer: a read-only slice into the compiled route
	// table's arena when one applies, or a view of own otherwise. It is
	// valid while candPkt matches that header's packet and candEpoch
	// matches the topology fault epoch; a new header (new packet id) or
	// a fault-state change invalidates it.
	cands     []routing.Candidate
	candPkt   int64
	candEpoch int32
	// own is the buffer-owned candidate storage for the direct
	// evaluation fallback. The fallback must never build into cands
	// in place: cands may alias the shared table arena.
	own []routing.Candidate
}

// Engine runs one simulation. Construct with New, then call Run.
//
// Port layout: each router has 2n physical network directions with vcs
// virtual channels each, plus one injection input and one ejection
// output. Virtual port index p encodes direction d and virtual channel
// c as p = d.Index()*vcs + c; the injection/ejection port is the last
// (index 2n*vcs). Each physical link (and the ejection channel) carries
// at most one flit per cycle regardless of how many virtual channels
// share it.
type Engine struct {
	cfg   Config
	topo  *topology.Topology
	alg   routing.VCAlgorithm
	rng   *rand.Rand
	vcs   int // virtual channels per physical direction
	vport int // virtual ports per router: 2n*vcs + 1
	nphys int // physical links per router incl. ejection: 2n + 1
	depth int // effective input buffer capacity in flits

	// table is the compiled route table for alg at the current fault
	// epoch, or nil when the relation is not compilable (or tables are
	// disabled). With a table, fillCandCache is a slice reference into
	// the table arena; without, it evaluates the relation directly.
	table *routing.Table

	// Flat state, indexed router*vport+port unless noted.
	inbufs   []inbuf
	busyBy   []int32 // virtual output port -> input index holding it, or -1
	linkUsed []bool  // physical link used this cycle, router*nphys+phys
	outDest  []int32 // virtual output port -> downstream input index, -1 ejection
	upOut    []int32 // input index -> upstream virtual output index, -1 injection
	physOf   []int32 // virtual output port -> physical link slot in linkUsed

	queues   []pktRing // per-node source queues
	nextGen  []float64 // per-node next generation time in cycles
	genRate  float64   // messages per cycle per node
	lenCum   []float64 // cumulative packet-length weights
	lenTotal float64   // total packet-length weight
	script   []ScriptedMessage
	scriptAt int

	// freePkts recycles delivered packet structs: deliver pushes (after
	// every consumer — observers, metrics, stats — has read the packet)
	// and generate pops, resetting at acquisition so stale pointers held
	// by tests after a run keep their final values. Refills allocate
	// pktChunk packets at a time, so steady state stops allocating once
	// the pool covers the in-flight peak.
	freePkts []*packet

	cycle     int64
	lastMove  int64
	nextPktID int64
	inFlight  int // packets generated but not yet fully delivered

	// movement worklist membership (the worklists themselves live in the
	// per-shard allocState scratch)
	inWork  []bool
	injUsed []bool // injection channel used this cycle, per injection input

	// flowing marks the inputs the movement phase must attempt: a queued
	// flit with an allocated output. Maintained incrementally so move
	// seeds its worklist from active inputs instead of scanning every
	// buffer (see DESIGN.md, "Performance architecture").
	flowing bitset

	// allocWork marks routers that may hold a header awaiting output
	// allocation. Bits are set when a header reaches the front of an
	// input buffer and when one of the router's outputs is released, and
	// cleared when a visit finds nothing that could allocate before the
	// next such event.
	allocWork bitset
	// lastFaultEpoch detects mid-run fault-state changes, which force a
	// full allocation rescan and invalidate candidate caches.
	lastFaultEpoch int32

	// dirtyLinks and dirtyInj record which linkUsed/injUsed entries were
	// set this cycle, so the per-cycle reset touches only those.
	dirtyLinks []int32
	dirtyInj   []int32

	// shards holds the allocation-phase scratch, one entry per shard and
	// reused every cycle so the steady-state hot path performs no heap
	// allocations. Serial engines (nshards == 1) use shards[0] with
	// deferred commits disabled; sharded engines partition routers into
	// contiguous ranges [shardLo[s], shardLo[s+1]) and run one worker
	// per shard (see shard.go).
	shards      []allocState
	oneShard    [1]allocState // backing for the serial case: no extra slice allocation per Run
	nshards     int
	shardLo     []int32
	seedScratch []int32 // move seeding order buffer (vcs > 1)

	// moveSharded marks engines whose move phase runs the conflict-
	// partitioned parallel drain (every sharded engine: no switching
	// class falls back to serial anymore). shardOf maps a router to its
	// owning shard, the fallback owner for injection sweeps whose
	// injection input is not part of any move component.
	moveSharded bool
	shardOf     []int32

	// Conflict-partitioned move scratch (sharded engines only), all
	// persistent and reset via dirty lists so steady state allocates
	// nothing. seedOrder is the cycle's flowing inputs in the serial
	// engine's worklist push order; seedShard maps each seed ordinal to
	// the shard that drains its component. mvParent/mvSize are the
	// union-find over input channels (valid only for mvEnum inputs,
	// reset via mvTouched); mvStack is the component-discovery worklist;
	// compShard maps a component root to its assigned shard (-1 until
	// assignment); shardLoad counts seeds per shard for the balance
	// heuristic; mergeCur is the commit's per-shard log cursor.
	seedOrder []int32
	seedShard []int32
	mvParent  []int32
	mvSize    []int32
	mvTouched []int32
	mvStack   []int32
	compShard []int32
	shardLoad []int32
	mergeCur  []int32
	mvEnum    []bool

	// lenStart snapshots each buffer's length at the start of the move
	// phase (strict-advance mode only, nil otherwise). Sharded engines
	// fill it in the parallel pre-pass — buffer lengths cannot change
	// between generation and movement — serial engines at the top of
	// move.
	lenStart []int32
	// readyBits memoizes readyToForward for store-and-forward runs under
	// sharding: readyBits[in] == true guarantees the front packet's tail
	// has arrived at input in. Every queue mutation clears the bit, so a
	// set bit is always current; a clear bit falls back to the scan. The
	// sharded pre-pass refreshes the bits for flowing inputs in parallel.
	readyBits []bool

	// gate coordinates the worker pool for sharded execution: one
	// goroutine per shard above zero (shard zero runs on the stepping
	// goroutine), started lazily at the first sharded cycle and parked
	// on the gate between parallel regions. The pool stays warm across
	// repeated runs; Close releases it. gateMu serializes pool
	// start/teardown with region execution, making Close idempotent and
	// safe to call concurrently with a run (see shard.go). Serial
	// engines never touch either.
	gateMu sync.Mutex
	gate   *shardGate

	// linkFlits counts flits carried per physical link during the
	// measurement window, for utilization reporting.
	linkFlits []int64

	// faults replays cfg.FaultPlan as cycles advance, or nil. It runs at
	// the top of step, before generation and allocation, so a cycle's
	// routing decisions always see a consistent fault set.
	faults *fault.Driver

	// recov is the deadlock-recovery state: the retry queue, the
	// watchdog's scan cadence and victim scratch, and the recovery
	// counters. Unused (and cost-free) when cfg.RecoveryThreshold == 0.
	recov recoveryState

	// recObs is cfg.Observer's RecoveryObserver extension, type-asserted
	// once at construction, or nil.
	recObs RecoveryObserver

	// Whole-run flit conservation counters, maintained unconditionally:
	// flits that entered the network (left a source queue), flits
	// consumed at destinations, and flits removed by recovery drains.
	// The invariant checker's conservation law is
	// injected == delivered + drained + (flits sitting in buffers).
	flitsInjectedEver  int64
	flitsDeliveredEver int64
	flitsDrainedEver   int64

	// invariantErr records the first invariant violation found when
	// cfg.CheckInvariants is set ("" = none so far).
	invariantErr string

	stats runStats

	// m is the attached metrics collector, or nil. Every hot-path hook
	// is guarded by one nil check, so a run without metrics pays
	// nothing else (see TestAllocateZeroAllocs).
	m *metrics.Collector

	// onDeliver, when set (tests), observes every delivered packet.
	onDeliver func(*packet)
}

type runStats struct {
	measuring          bool
	windowStart        int64
	flitsDelivered     int64
	packetsDelivered   int64
	packetsGenerated   int64
	flitsGenerated     int64
	flitsGenMeasure    int64
	sumLatency         float64 // cycles, generation -> tail delivery
	sumNetLatency      float64 // cycles, injection -> tail delivery
	sumHops            float64
	maxLatency         float64
	backlogStartFlits  int64
	backlogStartValid  bool
	totalDeliveredEver int64
	latencies          *stats.Histogram
}

// New validates cfg and builds an engine.
func New(cfg Config) (*Engine, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	alg := c.vcAlgorithm()
	t := alg.Topology()
	vcs := alg.NumVCs()
	if vcs < 1 {
		return nil, fmt.Errorf("sim: algorithm reports %d virtual channels", vcs)
	}
	if err := c.validateAgainst(t); err != nil {
		return nil, err
	}
	ndim2 := 2 * t.NumDims()
	vport := ndim2*vcs + 1
	n := t.Nodes()
	e := &Engine{
		cfg:            c,
		topo:           t,
		alg:            alg,
		rng:            rand.New(rand.NewSource(c.Seed)),
		vcs:            vcs,
		vport:          vport,
		nphys:          ndim2 + 1,
		depth:          c.effectiveDepth(),
		inbufs:         make([]inbuf, n*vport),
		busyBy:         make([]int32, n*vport),
		linkUsed:       make([]bool, n*(ndim2+1)),
		linkFlits:      make([]int64, n*(ndim2+1)),
		outDest:        make([]int32, n*vport),
		upOut:          make([]int32, n*vport),
		physOf:         make([]int32, n*vport),
		queues:         make([]pktRing, n),
		injUsed:        make([]bool, n*vport),
		nextGen:        make([]float64, n),
		inWork:         make([]bool, n*vport),
		flowing:        newBitset(n * vport),
		allocWork:      newBitset(n),
		lastFaultEpoch: int32(t.FaultEpoch()),
		script:         c.Script,
	}
	e.initShards(n, ndim2)
	// Precompute the packet-length distribution's cumulative weights so
	// drawLength no longer sums the weight vector per draw.
	e.lenCum = make([]float64, len(c.LengthWeights))
	for i, w := range c.LengthWeights {
		e.lenTotal += w
		e.lenCum[i] = e.lenTotal
	}
	if !c.DisableRouteTable {
		// Compile (or fetch the cached compilation of) the routing
		// relation into a flat (node, dst) candidate table. The table's
		// Candidate.Out indices use routing.OutIndex, which is exactly
		// this engine's port layout. nil means the relation is not
		// compilable; fillCandCache then evaluates it directly.
		e.table = routing.TableFor(alg)
	}
	if slots := n * vport * e.depth; slots <= flitArenaMaxFlits {
		// One arena backs every input buffer: each buffer gets a
		// zero-length slice with capacity depth, and since hasSpace
		// bounds every append by depth, no buffer ever escapes its
		// segment. This removes the per-buffer lazy grow allocations.
		arena := make([]flit, slots)
		for i := range e.inbufs {
			off := i * e.depth
			e.inbufs[i].q = arena[off : off : off+e.depth]
		}
	}
	for i := range e.busyBy {
		e.busyBy[i] = -1
		e.outDest[i] = -1
		e.upOut[i] = -1
		e.physOf[i] = e.physIndex(int32(i))
		b := &e.inbufs[i]
		b.allocOut = -1
		b.port = int32(i % vport)
		b.candPkt = -1
	}
	for v := 0; v < n; v++ {
		for di := 0; di < ndim2; di++ {
			d := topology.DirectionFromIndex(di)
			ch := topology.Channel{From: topology.NodeID(v), Dir: d}
			if !t.HasChannel(ch.From, d) {
				continue
			}
			to := t.ChannelTo(ch)
			for vc := 0; vc < vcs; vc++ {
				p := di*vcs + vc
				out := int32(v*vport + p)
				in := int32(int(to)*vport + p)
				e.outDest[out] = in
				e.upOut[in] = out
			}
		}
	}
	if c.Metrics != nil {
		e.m = c.Metrics
		e.m.Bind(t, e.nphys)
	}
	if c.FaultPlan != nil && len(c.FaultPlan.Events) > 0 {
		d, err := fault.NewDriver(t, c.FaultPlan)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		e.faults = d
	}
	if c.RecoveryThreshold > 0 {
		e.recov.every = c.RecoveryThreshold / 4
		if e.recov.every < 1 {
			e.recov.every = 1
		}
	}
	e.recObs, _ = c.Observer.(RecoveryObserver)
	if e.script == nil {
		// OfferedLoad flits/us/node = rate msgs/cycle * meanLen flits/msg
		// * 20 cycles/us.
		e.genRate = c.OfferedLoad / CyclesPerMicrosecond / c.MeanLength()
		for v := range e.nextGen {
			e.nextGen[v] = e.rng.ExpFloat64() / e.genRate
		}
	} else {
		s := append([]ScriptedMessage(nil), e.script...)
		sort.SliceStable(s, func(i, j int) bool { return s[i].Cycle < s[j].Cycle })
		e.script = s
	}
	return e, nil
}

// injectionIn returns the global input index of router v's injection
// channel buffer; the same port index is the ejection output.
func (e *Engine) injectionIn(v topology.NodeID) int32 { return int32(int(v)*e.vport + e.vport - 1) }

// ejectionOut returns the global output index of router v's ejection
// channel.
func (e *Engine) ejectionOut(v topology.NodeID) int32 { return e.injectionIn(v) }

// physIndex maps a global virtual output index to its physical link slot
// in linkUsed. New precomputes it into physOf; the hot path uses that.
func (e *Engine) physIndex(out int32) int32 {
	r := int(out) / e.vport
	p := int(out) % e.vport
	if p == e.vport-1 {
		return int32(r*e.nphys + e.nphys - 1) // ejection channel
	}
	return int32(r*e.nphys + p/e.vcs)
}

// newPacket pops a recycled packet from the freelist, or allocates a
// fresh block. The packet is reset here, at acquisition — not at
// release — so pointers observers keep past delivery retain their final
// values until the struct is reissued.
func (e *Engine) newPacket() *packet {
	if n := len(e.freePkts); n > 0 {
		p := e.freePkts[n-1]
		e.freePkts = e.freePkts[:n-1]
		*p = packet{}
		return p
	}
	block := make([]packet, pktChunk)
	for i := 1; i < pktChunk; i++ {
		e.freePkts = append(e.freePkts, &block[i])
	}
	return &block[0]
}

// releasePacket returns a fully delivered packet to the freelist. The
// caller guarantees no flit or queue still references it.
func (e *Engine) releasePacket(p *packet) {
	e.freePkts = append(e.freePkts, p)
}

func (e *Engine) generate() {
	if e.script != nil {
		for e.scriptAt < len(e.script) && e.script[e.scriptAt].Cycle <= e.cycle {
			m := e.script[e.scriptAt]
			e.scriptAt++
			p := e.newPacket()
			p.id, p.src, p.dst, p.length = e.nextPktID, m.Src, m.Dst, m.Length
			p.firstDir, p.genCycle = m.FirstDir, e.cycle
			e.nextPktID++
			e.queues[m.Src].push(p)
			e.stats.packetsGenerated++
			e.stats.flitsGenerated += int64(p.length)
			e.inFlight++
		}
		return
	}
	now := float64(e.cycle)
	for v := range e.queues {
		for e.nextGen[v] <= now {
			gen := e.nextGen[v]
			e.nextGen[v] += e.rng.ExpFloat64() / e.genRate
			src := topology.NodeID(v)
			dst := e.cfg.Pattern.Dest(src, e.rng)
			if dst == src {
				continue // the pattern sends no traffic from this node
			}
			p := e.newPacket()
			p.id, p.src, p.dst = e.nextPktID, src, dst
			p.length = e.drawLength()
			p.genCycle = int64(gen)
			e.nextPktID++
			e.queues[v].push(p)
			e.stats.packetsGenerated++
			e.stats.flitsGenerated += int64(p.length)
			if e.stats.measuring {
				e.stats.flitsGenMeasure += int64(p.length)
			}
			e.inFlight++
		}
	}
}

// drawLength samples the packet-length distribution from the cumulative
// weight table New precomputed; one uniform draw, no per-draw summing.
func (e *Engine) drawLength() int {
	if len(e.cfg.Lengths) == 1 {
		return e.cfg.Lengths[0]
	}
	r := e.rng.Float64() * e.lenTotal
	for i, c := range e.lenCum {
		if r < c {
			return e.cfg.Lengths[i]
		}
	}
	return e.cfg.Lengths[len(e.cfg.Lengths)-1]
}

// allocate runs the routing and output allocation phase: every waiting
// header flit requests a virtual output channel; per router, headers are
// served in the input selection policy's order and pick among the
// still-free permitted outputs with the output selection policy.
//
// Only routers on the allocation worklist are visited. A router leaves
// the worklist when none of its headers could possibly allocate before
// the next wake-up event (header arrival or output release at that
// router); see DESIGN.md, "Performance architecture", for the exact
// invariants.
func (e *Engine) allocate() {
	epoch := int32(e.topo.FaultEpoch())
	if epoch != e.lastFaultEpoch {
		// Fault state changed mid-run: every blocked header may have
		// gained or lost candidates, so rescan everything once. The
		// per-buffer candidate caches self-invalidate via candEpoch, and
		// the compiled route table is recompiled at the new epoch (nil
		// if compilation now fails — direct evaluation takes over).
		e.allocWork.setAll(e.topo.Nodes())
		e.lastFaultEpoch = epoch
		if e.table != nil {
			e.table = routing.TableFor(e.alg)
		}
	}
	if e.nshards > 1 {
		e.allocateSharded(epoch)
		return
	}
	st := &e.shards[0]
	e.allocWork.forEach(func(v int32) {
		if !e.allocateRouter(int(v), epoch, st) {
			e.allocWork.clear(v)
		}
	})
}

// allocateRouter serves router v's waiting headers and reports whether
// the router must stay on the allocation worklist (a pending header
// whose eligibility or patience is time-driven, or — under the
// random-input policy — any unallocated header, so the arbitration
// random stream matches a full rescan exactly). st is the calling
// shard's scratch; allocation touches only router-local state (busyBy
// and inbufs entries of v's own ports, v's metrics counters), and
// anything shared — worklist bitsets, observer callbacks — goes through
// st, which defers it to the serial commit when the engine is sharded.
func (e *Engine) allocateRouter(v int, epoch int32, st *allocState) bool {
	base := v * e.vport
	nw := 0
	keep := false
	for p := 0; p < e.vport; p++ {
		b := &e.inbufs[base+p]
		if b.allocOut >= 0 || len(b.q) == 0 || !b.q[0].head {
			continue
		}
		if e.cycle-b.headArrival > e.cfg.RouterDelay {
			st.waiting[nw] = int32(base + p)
			nw++
		} else {
			keep = true // header present, router delay not yet expired
		}
	}
	if nw == 0 {
		return keep
	}
	w := st.waiting[:nw]
	switch e.cfg.Input {
	case LocalFCFS:
		// Stable insertion sort by arrival time: ties keep ascending
		// port order, matching the paper's local FCFS with port-index
		// tie-break. Inline to keep the hot path allocation-free.
		for i := 1; i < nw; i++ {
			x := w[i]
			key := e.inbufs[x].headArrival
			j := i
			for j > 0 && e.inbufs[w[j-1]].headArrival > key {
				w[j] = w[j-1]
				j--
			}
			w[j] = x
		}
	case RandomInput:
		e.rng.Shuffle(nw, func(i, j int) { w[i], w[j] = w[j], w[i] })
	case PortOrder:
		// Already in ascending port order.
	}
	blocked := 0
	for _, in := range w {
		b := &e.inbufs[in]
		pkt := b.q[0].p
		if pkt.dst == topology.NodeID(v) {
			out := e.ejectionOut(topology.NodeID(v))
			if e.busyBy[out] < 0 {
				e.busyBy[out] = in
				b.allocOut = out
				st.setFlowing(e, in)
				if e.m != nil {
					e.m.Grants[v]++
					e.m.WaitCycles[v] += e.cycle - b.headArrival
				}
				if e.cfg.Observer != nil {
					st.observeAllocate(e, topology.NodeID(v), topology.Direction{}, 0, true)
				}
			} else {
				blocked++
				if e.m != nil {
					e.m.Denials[v]++
				}
			}
			continue
		}
		if b.candPkt != pkt.id || b.candEpoch != epoch {
			e.fillCandCache(v, b, pkt, epoch, st)
		}
		// Keep only candidates whose virtual output channel is free;
		// existence, virtual-channel validity and fault state were
		// filtered into the cache.
		free := st.freeCands[:0]
		for i := range b.cands {
			if e.busyBy[b.cands[i].Out] < 0 {
				free = append(free, b.cands[i])
			}
		}
		if len(free) == 0 {
			blocked++
			if e.m != nil {
				e.m.Denials[v]++
			}
			continue
		}
		// With misroute patience configured, prefer distance-reducing
		// ("profitable") outputs and permit a detour only after the
		// header has waited long enough.
		pick := free
		if e.cfg.MisrouteAfter > 0 {
			prof := st.profCands[:0]
			for i := range free {
				if free[i].Prof {
					prof = append(prof, free[i])
				}
			}
			if len(prof) > 0 {
				pick = prof
			} else if e.cycle-b.headArrival < e.cfg.MisrouteAfter {
				keep = true // wait for the patience to run out
				continue
			}
		}
		var c routing.Candidate
		switch e.cfg.Policy {
		case LowestDimension:
			c = pick[0] // candidates arrive in ascending dimension order
		case HighestDimension:
			c = pick[len(pick)-1]
		default:
			c = pick[e.rng.Intn(len(pick))]
		}
		e.busyBy[c.Out] = in
		b.allocOut = c.Out
		st.setFlowing(e, in)
		if e.m != nil {
			e.m.Grants[v]++
			e.m.WaitCycles[v] += e.cycle - b.headArrival
			if !c.Prof {
				// Candidate profitability is precomputed (route table) or
				// computed whenever a collector is attached (fallback), so
				// this counts true detours.
				e.m.Misroutes[v]++
			}
		}
		if e.cfg.Observer != nil {
			st.observeAllocate(e, topology.NodeID(v), c.Direction(), int(c.VC), false)
		}
	}
	if blocked > 0 && e.cfg.Input == RandomInput {
		// The random-input arbitration consumes one shuffle per visited
		// router with waiting headers per cycle; keep visiting so the
		// random stream is identical to a full rescan.
		keep = true
	}
	return keep
}

// fillCandCache refreshes the filtered routing candidate list for the
// header of packet pkt waiting at the front of input buffer b of router
// v. With a compiled route table this is a slice reference into the
// table's arena; otherwise (arrival-dependent relations, scripted
// first-hop restrictions, tables disabled) the relation is evaluated
// directly into the buffer-owned fallback storage. Either way the list
// keeps every candidate that exists, has a valid virtual channel, and
// is not faulty; per-cycle allocation then only checks output busyness.
func (e *Engine) fillCandCache(v int, b *inbuf, pkt *packet, epoch int32, st *allocState) {
	injected := int(b.port) == e.vport-1
	cur := topology.NodeID(v)
	if e.table != nil && !(injected && pkt.firstDir != nil) {
		b.cands = e.table.Lookup(cur, pkt.dst, injected)
		b.candPkt = pkt.id
		b.candEpoch = epoch
		return
	}
	var inp routing.VCInPort
	if injected {
		inp = routing.VCInjected
	} else {
		inp = routing.VCInPort{
			Dir: topology.DirectionFromIndex(int(b.port) / e.vcs),
			VC:  int(b.port) % e.vcs,
		}
	}
	raw, dirs := routing.Evaluate(e.alg, cur, pkt.dst, inp, st.rawCands[:0], st.rawDirs)
	st.rawCands, st.rawDirs = raw[:0], dirs
	if inp.Injected && pkt.firstDir != nil {
		// Scripted first hop: honor it when offered.
		kept := raw[:0]
		for _, vd := range raw {
			if vd.Dir == *pkt.firstDir {
				kept = append(kept, vd)
			}
		}
		if len(kept) > 0 {
			raw = kept
		}
	}
	base := v * e.vport
	// Profitability (does this output reduce the distance?) feeds the
	// misroute-patience discipline and, when a collector is attached,
	// the misroute counter. Computing it unconditionally in the
	// metrics case is behavior-neutral: allocation consults Prof only
	// when MisrouteAfter > 0.
	needProf := e.cfg.MisrouteAfter > 0 || e.m != nil
	baseDist := 0
	if needProf {
		baseDist = e.topo.Distance(cur, pkt.dst)
	}
	own := b.own[:0]
	for _, vd := range raw {
		if vd.VC < 0 || vd.VC >= e.vcs {
			continue
		}
		out := int32(base + vd.Dir.Index()*e.vcs + vd.VC)
		if e.outDest[out] < 0 {
			continue
		}
		if !e.topo.Enabled(topology.Channel{From: cur, Dir: vd.Dir}) {
			continue
		}
		prof := false
		if needProf {
			if next, ok := e.topo.Neighbor(cur, vd.Dir); ok && e.topo.Distance(next, pkt.dst) < baseDist {
				prof = true
			}
		}
		own = append(own, routing.Candidate{
			Out:  out,
			Dir:  uint8(vd.Dir.Index()),
			VC:   uint8(vd.VC),
			Prof: prof,
		})
	}
	b.own = own
	b.cands = own
	b.candPkt = pkt.id
	b.candEpoch = epoch
}

// pushWork schedules input buffer in for a movement attempt this cycle
// on the calling shard's worklist. Sharded drains only ever push inputs
// of their own components (cascade targets are component-local by
// construction, see shard.go), so the shared inWork bytes have a single
// writer per cycle.
func (e *Engine) pushWork(in int32, st *allocState) {
	if in >= 0 && !e.inWork[in] {
		e.inWork[in] = true
		st.work = append(st.work, in)
	}
}

// pushAllocWork wakes router r's allocation scan: a header reached the
// front of one of its input buffers, or one of its outputs was released.
func (e *Engine) pushAllocWork(r int32) { e.allocWork.set(r) }

// seedMoveWork pushes every flowing input onto the movement worklist in
// the fixed arbitration order: routers ascending, physical directions
// ascending, injection channel last. Within each physical direction the
// preferred virtual channel is pushed last (the worklist pops LIFO) and
// the preference rotates with the cycle, a round-robin that prevents one
// virtual channel from starving the other.
func (e *Engine) seedMoveWork(st *allocState) {
	if e.vcs == 1 {
		// One virtual channel: ascending input order is exactly the
		// arbitration order.
		e.flowing.forEach(func(i int32) { e.pushWork(i, st) })
		return
	}
	e.buildSeedOrder()
	for _, i := range e.seedOrder {
		e.pushWork(i, st)
	}
}

// buildSeedOrder fills e.seedOrder with the cycle's flowing inputs in
// worklist push order: routers ascending, physical directions ascending,
// injection channel last, and within each physical direction the virtual
// channels in the cycle-rotated round-robin order (the preferred channel
// last, because the drain pops LIFO).
func (e *Engine) buildSeedOrder() {
	if e.vcs == 1 {
		e.seedOrder = e.flowing.appendTo(e.seedOrder[:0])
		return
	}
	e.seedOrder = e.seedOrder[:0]
	buf := e.flowing.appendTo(e.seedScratch[:0])
	e.seedScratch = buf[:0]
	rot := int(e.cycle) % e.vcs
	for idx := 0; idx < len(buf); {
		i := buf[idx]
		port := int(i) % e.vport
		if port == e.vport-1 {
			e.seedOrder = append(e.seedOrder, i)
			idx++
			continue
		}
		// Gather this physical direction's flowing virtual channels
		// (consecutive indices) and push them in rotated order.
		dirBase := i - int32(port%e.vcs)
		end := idx
		for end < len(buf) && buf[end] < dirBase+int32(e.vcs) {
			end++
		}
		for k := e.vcs - 1; k >= 0; k-- {
			want := dirBase + int32((rot+k)%e.vcs)
			for g := idx; g < end; g++ {
				if buf[g] == want {
					e.seedOrder = append(e.seedOrder, want)
					break
				}
			}
		}
		idx = end
	}
}

// move runs the switch/link traversal phase. Each physical link carries
// at most one flit per cycle; virtual channels sharing a link are served
// in an order that rotates with the cycle count. In chained mode,
// freeing a buffer slot immediately lets the upstream flit advance into
// it (the worm moves as a synchronized train); in strict mode only space
// available at the start of the cycle counts. Sharded engines run the
// conflict-partitioned parallel drain (shard.go) for every switching
// class; results are bit-identical to this serial path.
func (e *Engine) move() {
	if e.cfg.StrictAdvance && e.nshards <= 1 {
		// Sharded engines fill the snapshot in the parallel pre-pass
		// (buffer lengths cannot change between generation and movement);
		// serial engines do it here.
		for i := range e.inbufs {
			e.lenStart[i] = int32(len(e.inbufs[i].q))
		}
	}
	if e.nshards > 1 {
		e.moveParallel()
		return
	}
	st := &e.shards[0]
	// inWork is all-false here: the previous drain popped (and cleared)
	// every entry it pushed.
	st.work = st.work[:0]
	e.seedMoveWork(st)
	// Source-queue injections are attempted for every nonempty queue.
	for v := range e.queues {
		if e.queues[v].len() > 0 {
			e.tryInject(topology.NodeID(v), st)
		}
	}
	for len(st.work) > 0 {
		in := st.work[len(st.work)-1]
		st.work = st.work[:len(st.work)-1]
		e.inWork[in] = false
		e.moveOne(in, st)
	}
}

// tryInject moves the next flit of the source queue's head packet into
// the injection buffer, modeling the processor-to-router channel
// (bandwidth one flit per cycle). Buffer and queue mutations happen
// immediately; everything shared across components — bitsets, dirty
// lists, metrics, observer callbacks, global counters — goes through
// st.logInject, which applies it inline when serial and defers it to
// the ordered commit when the drain runs sharded.
func (e *Engine) tryInject(v topology.NodeID, st *allocState) {
	q := &e.queues[v]
	if q.len() == 0 {
		return
	}
	in := e.injectionIn(v)
	if e.injUsed[in] {
		return
	}
	b := &e.inbufs[in]
	if !e.hasSpace(in, b) {
		return
	}
	p := q.front()
	f := flit{p: p, head: p.flitsSent == 0, tail: p.flitsSent == p.length-1}
	b.q = append(b.q, f)
	var flag uint8
	if b.allocOut >= 0 {
		flag |= fFlowSet
	}
	if f.head {
		flag |= fHead
		b.headArrival = e.cycle
		p.injectCycle = e.cycle
		if len(b.q) == 1 {
			flag |= fWakeSelf
		}
	}
	p.flitsSent++
	p.lastProgress = e.cycle
	e.injUsed[in] = true
	if f.tail {
		q.pop()
	}
	st.logInject(e, in, p, flag)
}

// applyInject performs the shared-state side of one injection: metrics,
// the flowing bit, the allocation wake-up, the observer callback and the
// global counters, in the serial engine's order. Serial engines call it
// inline from tryInject; sharded drains log the call and the commit
// replays it in ascending node order.
func (e *Engine) applyInject(in int32, p *packet, flag uint8) {
	if e.m != nil {
		e.m.Occupancy[int(in)/e.vport]++
		e.m.InjectedFlits++
	}
	if flag&fFlowSet != 0 {
		e.flowing.set(in)
	}
	if flag&fHead != 0 {
		if flag&fWakeSelf != 0 {
			e.pushAllocWork(int32(int(in) / e.vport))
		}
		if e.cfg.Observer != nil {
			e.cfg.Observer.Inject(e.cycle, p.src, p.dst, p.length)
		}
	}
	e.flitsInjectedEver++
	e.dirtyInj = append(e.dirtyInj, in)
	e.lastMove = e.cycle
}

func (e *Engine) hasSpace(in int32, b *inbuf) bool {
	if e.cfg.StrictAdvance {
		return int(e.lenStart[in]) < e.depth && len(b.q) < e.depth
	}
	return len(b.q) < e.depth
}

// readyToForward applies the switching technique's forwarding rule to
// the front flit of a network input buffer: store-and-forward holds a
// packet until its tail flit has arrived; wormhole and virtual
// cut-through forward immediately. Injection buffers are exempt (the
// source queue is the source node's packet store). Sharded engines
// consult the readyBits memo first: a set bit was computed by the
// pre-pass against the exact same queue contents (every mutation
// clears it), skipping the tail scan.
func (e *Engine) readyToForward(in int32, b *inbuf) bool {
	if !e.cfg.holdsWholePacket() || int(b.port) == e.vport-1 {
		return true
	}
	if e.readyBits != nil && e.readyBits[in] {
		return true
	}
	return e.tailAtFront(b)
}

// tailAtFront scans a nonempty buffer for the front packet's tail flit.
func (e *Engine) tailAtFront(b *inbuf) bool {
	front := b.q[0].p
	for i := len(b.q) - 1; i >= 0; i-- {
		if b.q[i].p == front {
			return b.q[i].tail
		}
	}
	return false
}

// moveOne attempts to advance the front flit of input buffer in. Like
// tryInject, it mutates buffers, channel holds and packet bookkeeping in
// place and routes every cross-component side effect through st.logMove:
// serial engines apply the shared-state bundle inline at the same point
// in the schedule, sharded drains defer it to the ordered commit. The
// bundle flags capture post-mutation facts (queue emptied, head/tail,
// wake-ups due), so the replay needs no access to drain-time state.
func (e *Engine) moveOne(in int32, st *allocState) {
	b := &e.inbufs[in]
	if len(b.q) == 0 || b.allocOut < 0 {
		return
	}
	out := b.allocOut
	phys := e.physOf[out]
	if e.linkUsed[phys] {
		return
	}
	if !e.readyToForward(in, b) {
		return
	}
	f := b.q[0]
	dest := e.outDest[out]
	if dest < 0 {
		// Ejection: the destination processor consumes immediately.
		e.linkUsed[phys] = true
		var flag uint8
		if e.popFrontQ(in, b) {
			flag |= fFlowClear
		}
		f.p.flitsDelivered++
		f.p.lastProgress = e.cycle
		if f.tail {
			// The tail passed: deliver the packet, free the ejection
			// channel, and wake the router's allocation scan (the release
			// always wakes it; a new front header would only wake the
			// same router again).
			flag |= fTail | fFlowClear | fWakeSelf
			e.releaseCh(in, out)
		}
		st.logMove(e, moEject, in, out, flag, f.p)
		e.cascade(in, b, st)
		return
	}
	db := &e.inbufs[dest]
	if !e.hasSpace(dest, db) {
		return
	}
	e.linkUsed[phys] = true
	var flag uint8
	if f.head {
		flag |= fHead
	}
	if e.popFrontQ(in, b) {
		flag |= fFlowClear
	}
	db.q = append(db.q, f)
	if e.readyBits != nil {
		e.readyBits[dest] = false
	}
	if db.allocOut >= 0 {
		flag |= fFlowSet
	}
	f.p.lastProgress = e.cycle
	if f.head {
		db.headArrival = e.cycle
		f.p.hops++
		if len(db.q) == 1 {
			flag |= fWakeDest
		}
	}
	if f.tail {
		flag |= fTail | fFlowClear | fWakeSelf
		e.releaseCh(in, out)
	}
	st.logMove(e, moForward, in, out, flag, nil)
	e.cascade(in, b, st)
}

// applyEject performs the shared-state side of one ejection move:
// metrics, link accounting, delivery finalization, the flowing bit and
// the wake-up, in the serial engine's order.
func (e *Engine) applyEject(in, out int32, flag uint8, p *packet) {
	phys := e.physOf[out]
	e.dirtyLinks = append(e.dirtyLinks, phys)
	if e.stats.measuring {
		e.linkFlits[phys]++
	}
	if e.m != nil {
		r := int(in) / e.vport
		e.m.ChannelFlits[phys]++
		e.m.RouterFlits[r]++
		e.m.Occupancy[r]--
		e.m.DeliveredFlits++
	}
	e.flitsDeliveredEver++
	e.lastMove = e.cycle
	if flag&fFlowClear != 0 {
		e.flowing.clear(in)
	}
	if flag&fTail != 0 {
		e.deliver(p)
	}
	if flag&fWakeSelf != 0 {
		e.pushAllocWork(int32(int(in) / e.vport))
	}
	e.countDeliveredFlit()
}

// applyForward performs the shared-state side of one link traversal:
// metrics, the observer callback, both flowing bits and the wake-ups,
// in the serial engine's order. dest and phys are recomputed from the
// static topology arrays, so the op log carries only (in, out, flags).
func (e *Engine) applyForward(in, out int32, flag uint8) {
	phys := e.physOf[out]
	dest := e.outDest[out]
	e.dirtyLinks = append(e.dirtyLinks, phys)
	if e.stats.measuring {
		e.linkFlits[phys]++
	}
	if e.m != nil {
		e.m.ChannelFlits[phys]++
		e.m.RouterFlits[int(in)/e.vport]++
		e.m.Occupancy[int(in)/e.vport]--
		e.m.Occupancy[int(dest)/e.vport]++
	}
	if e.cfg.Observer != nil {
		p := int(out) % e.vport
		e.cfg.Observer.Forward(e.cycle, topology.Channel{
			From: topology.NodeID(int(out) / e.vport),
			Dir:  topology.DirectionFromIndex(p / e.vcs),
		}, p%e.vcs, flag&fHead != 0, flag&fTail != 0)
	}
	if flag&fFlowClear != 0 {
		e.flowing.clear(in)
	}
	if flag&fFlowSet != 0 {
		e.flowing.set(dest)
	}
	e.lastMove = e.cycle
	if flag&fWakeDest != 0 {
		e.pushAllocWork(int32(int(dest) / e.vport))
	}
	if flag&fWakeSelf != 0 {
		e.pushAllocWork(int32(int(in) / e.vport))
	}
}

// popFrontQ removes the front flit of input buffer in and reports
// whether the buffer is now empty (the caller folds that into the
// bundle's flowing-clear flag).
func (e *Engine) popFrontQ(in int32, b *inbuf) bool {
	copy(b.q, b.q[1:])
	b.q = b.q[:len(b.q)-1]
	if e.readyBits != nil {
		e.readyBits[in] = false
	}
	return len(b.q) == 0
}

// releaseCh frees the virtual output channel held through input in after
// the tail flit passed. The flowing clear and the allocation wake-up
// ride the move bundle's flags.
func (e *Engine) releaseCh(in, out int32) {
	e.busyBy[out] = -1
	e.inbufs[in].allocOut = -1
}

// cascade schedules the feeder of input buffer in, which may now have
// space to receive a flit (chained advance). Under a sharded drain both
// targets are component-local: the feeder held its channel when the
// components were built (channel holds only get released, never
// acquired, during movement), so the feeder edge put it in in's
// component, and the injection path touches only in's own router.
func (e *Engine) cascade(in int32, b *inbuf, st *allocState) {
	if e.cfg.StrictAdvance {
		return
	}
	if int(b.port) == e.vport-1 {
		// Injection buffer freed: the source queue may inject.
		v := topology.NodeID(int(in) / e.vport)
		e.tryInject(v, st)
		return
	}
	up := e.upOut[in]
	if up < 0 {
		return
	}
	feeder := e.busyBy[up]
	if feeder >= 0 {
		e.pushWork(feeder, st)
	}
}

// deliver finalizes a packet whose tail was consumed.
func (e *Engine) deliver(p *packet) {
	p.deliverCycle = e.cycle
	e.inFlight--
	if e.onDeliver != nil {
		e.onDeliver(p)
	}
	if e.cfg.Observer != nil {
		e.cfg.Observer.Deliver(e.cycle, p.src, p.dst, p.deliverCycle-p.genCycle, p.hops)
	}
	e.stats.totalDeliveredEver++
	if e.m != nil {
		e.m.RecordLatency(float64(p.deliverCycle - p.genCycle))
		if e.faults != nil {
			// Attribute the delivery to the current fault epoch, so
			// campaigns can compare latency across fault-set changes.
			e.m.RecordEpochLatency(int(e.lastFaultEpoch), float64(p.deliverCycle-p.genCycle))
		}
	}
	if e.stats.measuring {
		e.stats.packetsDelivered++
		lat := float64(p.deliverCycle - p.genCycle)
		if e.stats.latencies == nil {
			// One-cycle (0.05 us) buckets keep percentiles sharp.
			e.stats.latencies = stats.NewHistogram(1)
		}
		e.stats.latencies.Add(lat)
		e.stats.sumLatency += lat
		e.stats.sumNetLatency += float64(p.deliverCycle - p.injectCycle)
		e.stats.sumHops += float64(p.hops)
		if lat > e.stats.maxLatency {
			e.stats.maxLatency = lat
		}
	}
	// Every consumer — observer callbacks, metrics, stats — has read the
	// packet; recycle it. Its flits are all consumed (the tail is the
	// last), so nothing in the network still points at it.
	e.releasePacket(p)
}

func (e *Engine) countDeliveredFlit() {
	if e.stats.measuring {
		e.stats.flitsDelivered++
	}
}

// backlogFlits returns the flits waiting in source queues (including the
// un-injected remainder of partially injected packets).
func (e *Engine) backlogFlits() int64 {
	var total int64
	for i := range e.queues {
		q := &e.queues[i]
		for j := 0; j < q.len(); j++ {
			p := q.at(j)
			total += int64(p.length - p.flitsSent)
		}
	}
	return total
}

// hottestChannel returns the network channel that carried the most
// flits during measurement and its utilization (flits per cycle).
// window is the measurement-window length the counts were collected
// over: cfg.MeasureCycles for stream runs, the full run length for
// scripted runs (which measure from cycle zero).
func (e *Engine) hottestChannel(window int64) (float64, topology.Channel) {
	var best int64 = -1
	bestIdx := -1
	for i, f := range e.linkFlits {
		if i%e.nphys == e.nphys-1 {
			continue // ejection channel
		}
		if f > best {
			best, bestIdx = f, i
		}
	}
	if bestIdx < 0 || window <= 0 {
		return 0, topology.Channel{}
	}
	ch := topology.Channel{
		From: topology.NodeID(bestIdx / e.nphys),
		Dir:  topology.DirectionFromIndex(bestIdx % e.nphys),
	}
	return float64(best) / float64(window), ch
}
