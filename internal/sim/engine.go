package sim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"

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

	// back and moves are the worm-train path's (train.go): back is the
	// input buffer holding the worm's last in-network flit, and moves
	// counts the worm's train moves, the clock of its held links' flit
	// counts (see linkStamp). The per-flit path leaves both unread.
	back  int32
	moves int64
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
	slot     []flit  // depth 1: the flit arena; slot[in] backs inbufs[in].q
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

	// genHeap schedules every node at ⌈nextGen[v]⌉, so generate visits
	// only the due nodes; lastGen is the cycle generate last ran (-1
	// before its first), and no entry is due at or before it. Both stay
	// unused under a Script.
	genHeap genHeap
	lastGen int64
	// injectable holds one bit per source. A clear bit means its queue is
	// empty or its injection buffer is full, so injectQueued skips it.
	injectable bitset

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

	// inWork marks the inputs on the movement worklist (scratch.work);
	// injUsed marks injection channels used this cycle, per injection
	// input.
	inWork  []bool
	injUsed []bool

	// flowing marks the inputs the movement phase must attempt: a queued
	// flit with an allocated output. Maintained incrementally so move
	// seeds its worklist from active inputs instead of scanning every
	// buffer (see DESIGN.md, "Performance architecture").
	flowing bitset

	// stalled marks the inputs that hold an output whose downstream
	// buffer is full; moveOne would fail for them without mutating
	// anything, so the move drain skips them. stalledLow is the subset
	// whose downstream buffer has the lower index: that buffer is seeded
	// earlier and popped later, so the holder's seeded attempt always
	// fails and seedMoveWork leaves it out. Both are kept exact at every
	// grant, forward, pop and release (see DESIGN.md, "Stalled inputs").
	stalled    bitset
	stalledLow bitset

	// allocWork marks routers that may hold a header awaiting output
	// allocation. Bits are set when a header reaches the front of an
	// input buffer and when one of the router's outputs is released, and
	// cleared when a visit finds nothing that could allocate before the
	// next such event.
	allocWork bitset
	// lastFaultEpoch detects mid-run fault-state changes, which force a
	// full allocation rescan and invalidate candidate caches.
	lastFaultEpoch int32
	// trains selects the worm-train move path (train.go): the engine is
	// trainShaped and no Observer is attached. countLinks gates the
	// linkFlits counts. Both occupy lastFaultEpoch's alignment padding.
	trains     bool
	countLinks bool

	// dirtyLinks and dirtyInj record which linkUsed/injUsed entries were
	// set this cycle, so the per-cycle reset touches only those.
	dirtyLinks []int32
	dirtyInj   []int32

	// scratch is the per-cycle working storage of allocation and
	// movement, reused every cycle so the steady-state hot path performs
	// no heap allocations.
	scratch allocState

	// seedScratch is the flowing-set enumeration seedMoveWork walks when
	// vcs > 1.
	seedScratch []int32

	// lenStart snapshots each buffer's length at the top of the move
	// phase (strict-advance mode only, nil otherwise).
	lenStart []int32

	// linkFlits counts flits per physical link (linkUsed's index): from
	// cycle zero when it is an attached collector's ChannelFlits, else
	// from the window's opening. A link's window count is linkFlits minus
	// linkStart, openWindow's snapshot (nil when counting starts there).
	linkFlits []int64
	linkStart []int64
	// linkStamp is, per virtual output, its holder's moves when the
	// train path last credited the output's flits to linkFlits: at its
	// grant, or at the last flushLinks. A held output has carried one
	// flit per train move since, so the train path credits moves minus
	// the stamp at release and flushLinks credits every held output
	// before linkFlits is read. The per-flit path counts each flit as it
	// moves.
	linkStamp []int64

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

	// Whole-run flit counters, maintained unconditionally: flits that
	// entered the network (left a source queue) and flits consumed at
	// destinations. With recov.flitsDrained, the flits recovery drains
	// removed, the invariant checker's conservation law is
	// injected == delivered + drained + (flits sitting in buffers).
	flitsInjectedEver  int64
	flitsDeliveredEver int64

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

// allocState is the engine's reusable per-cycle scratch: the buffers
// allocateRouter and fillCandCache filter candidates through, and the
// movement worklist.
type allocState struct {
	waiting   []int32                    // inputs with an eligible header, len vport
	rawCands  []routing.VirtualDirection // CandidatesVC result buffer
	rawDirs   []topology.Direction       // routing.Evaluate scratch
	freeCands []routing.Candidate        // candidates whose output is free
	profCands []routing.Candidate        // distance-reducing subset
	work      []int32                    // LIFO movement worklist
}

// runStats is the measurement window's bookkeeping (see openWindow).
type runStats struct {
	measuring          bool
	windowStart        int64
	packetsDelivered   int64
	flitsGenerated     int64   // whole run
	sumLatency         float64 // cycles, generation -> tail delivery
	sumNetLatency      float64 // cycles, injection -> tail delivery
	sumHops            float64
	maxLatency         float64
	backlogStartFlits  int64
	deliveredStart     int64 // flitsDeliveredEver at the window's opening
	generatedStart     int64 // flitsGenerated at the window's opening
	packetsStart       int64 // nextPktID at the window's opening
	inFlightSum        int64 // inFlight summed after every window cycle
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
		linkStamp:      make([]int64, n*vport),
		outDest:        make([]int32, n*vport),
		upOut:          make([]int32, n*vport),
		physOf:         make([]int32, n*vport),
		queues:         make([]pktRing, n),
		lastGen:        -1,
		injectable:     newBitset(n),
		injUsed:        make([]bool, n*vport),
		nextGen:        make([]float64, n),
		inWork:         make([]bool, n*vport),
		flowing:        newBitset(n * vport),
		stalled:        newBitset(n * vport),
		stalledLow:     newBitset(n * vport),
		allocWork:      newBitset(n),
		lastFaultEpoch: int32(t.FaultEpoch()),
		script:         c.Script,
		scratch: allocState{
			waiting:   make([]int32, vport),
			rawCands:  make([]routing.VirtualDirection, 0, ndim2*vcs),
			rawDirs:   make([]topology.Direction, 0, ndim2),
			freeCands: make([]routing.Candidate, 0, ndim2*vcs),
			profCands: make([]routing.Candidate, 0, ndim2*vcs),
		},
	}
	if c.StrictAdvance {
		e.lenStart = make([]int32, n*vport)
	}
	e.trains = e.trainShaped() && c.Observer == nil
	// Precompute the packet-length distribution's cumulative weights so
	// drawLength no longer sums the weight vector per draw.
	e.lenCum = make([]float64, len(c.LengthWeights))
	for i, w := range c.LengthWeights {
		e.lenTotal += w
		e.lenCum[i] = e.lenTotal
	}
	// Compile (or fetch the cached compilation of) the routing relation
	// into a flat (node, dst) candidate table. The table's Candidate.Out
	// indices use routing.OutIndex, which is exactly this engine's port
	// layout. nil means the relation is not compilable; fillCandCache
	// then evaluates it directly.
	e.table = routing.TableFor(alg)
	if slots := n * vport * e.depth; slots <= flitArenaMaxFlits || e.depth == 1 {
		// One arena backs every input buffer: each buffer gets a
		// zero-length slice with capacity depth, and since hasSpace
		// bounds every append by depth, no buffer ever escapes its
		// segment. This removes the per-buffer lazy grow allocations.
		// At depth 1 the arena is no larger than inbufs, and the train
		// path reads and writes each buffer's one flit through it.
		arena := make([]flit, slots)
		for i := range e.inbufs {
			off := i * e.depth
			e.inbufs[i].q = arena[off : off : off+e.depth]
		}
		if e.depth == 1 {
			e.slot = arena
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
		e.m.ChannelFlits = e.linkFlits
		e.countLinks = true
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
		e.genHeap = make(genHeap, n)
		for v := range e.nextGen {
			e.nextGen[v] = e.rng.ExpFloat64() / e.genRate
			e.genHeap[v] = genEntry{due: dueCycle(e.nextGen[v]), v: int32(v)}
		}
		e.genHeap.init()
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

// generate enqueues the messages due this cycle: the script's, or each
// due source's exponential arrivals. The heap yields the due sources in
// ascending node order, and generate must run every cycle from cycle 0,
// so every random draw keeps the order of a scan over all nodes.
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
			e.injectable.set(int32(m.Src))
			e.stats.flitsGenerated += int64(p.length)
			e.inFlight++
		}
		return
	}
	now := float64(e.cycle)
	h := e.genHeap
	for len(h) > 0 && h[0].due <= e.cycle {
		v := int(h[0].v)
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
			e.injectable.set(int32(v))
			e.stats.flitsGenerated += int64(p.length)
			e.inFlight++
		}
		h[0].due = dueCycle(e.nextGen[v]) // after this cycle
		h.down(0)
	}
	e.lastGen = e.cycle
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
	e.allocWork.forEach(func(v int32) {
		if !e.allocateRouter(int(v), epoch) {
			e.allocWork.clear(v)
		}
	})
}

// allocateRouter serves router v's waiting headers and reports whether
// the router must stay on the allocation worklist (a pending header
// whose eligibility or patience is time-driven, or — under the
// random-input policy — any unallocated header, so the arbitration
// random stream matches a full rescan exactly).
func (e *Engine) allocateRouter(v int, epoch int32) bool {
	st := &e.scratch
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
				e.linkStamp[out] = pkt.moves
				b.allocOut = out
				e.flowing.set(in)
				if e.m != nil {
					e.m.Grants[v]++
					e.m.WaitCycles[v] += e.cycle - b.headArrival
				}
				if e.cfg.Observer != nil {
					e.cfg.Observer.Allocate(e.cycle, topology.NodeID(v), topology.Direction{}, 0, true)
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
			e.fillCandCache(v, b, pkt, epoch)
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
		e.linkStamp[c.Out] = pkt.moves
		b.allocOut = c.Out
		e.flowing.set(in)
		if dest := e.outDest[c.Out]; len(e.inbufs[dest].q) >= e.depth {
			e.stall(in, c.Out, dest)
		}
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
			e.cfg.Observer.Allocate(e.cycle, topology.NodeID(v), c.Direction(), int(c.VC), false)
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
func (e *Engine) fillCandCache(v int, b *inbuf, pkt *packet, epoch int32) {
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
	st := &e.scratch
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

// pushWork schedules input buffer in for a movement attempt this cycle.
func (e *Engine) pushWork(in int32) {
	if in >= 0 && !e.inWork[in] {
		e.inWork[in] = true
		e.scratch.work = append(e.scratch.work, in)
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
// virtual channel from starving the other. Inputs in stalledLow are left
// out: their seeded attempt would fail, and the pop of their downstream
// buffer pushes them at the moment a failed attempt would have let it.
func (e *Engine) seedMoveWork() {
	if e.vcs == 1 {
		// One virtual channel: ascending input order is exactly the
		// arbitration order. inWork is all-false, so every bit pushes.
		w := &e.scratch
		for i, word := range e.flowing {
			word &^= e.stalledLow[i]
			base := int32(i << 6)
			for word != 0 {
				in := base + int32(bits.TrailingZeros64(word))
				e.inWork[in] = true
				w.work = append(w.work, in)
				word &= word - 1
			}
		}
		return
	}
	buf := e.flowing.appendTo(e.seedScratch[:0])
	e.seedScratch = buf[:0]
	rot := int(e.cycle) % e.vcs
	for idx := 0; idx < len(buf); idx++ {
		i := buf[idx]
		port := int(i) % e.vport
		if port == e.vport-1 {
			if !e.stalledLow.get(i) {
				e.pushWork(i)
			}
			continue
		}
		// i is the first flowing virtual channel of its physical
		// direction: push the direction's flowing channels in rotated
		// order, then skip past them.
		dirBase := i - int32(port%e.vcs)
		for k := e.vcs - 1; k >= 0; k-- {
			if vc := dirBase + int32((rot+k)%e.vcs); e.flowing.get(vc) && !e.stalledLow.get(vc) {
				e.pushWork(vc)
			}
		}
		for idx+1 < len(buf) && buf[idx+1] < dirBase+int32(e.vcs) {
			idx++
		}
	}
}

// move runs the switch/link traversal phase. Each physical link carries
// at most one flit per cycle; virtual channels sharing a link are served
// in an order that rotates with the cycle count. In chained mode,
// freeing a buffer slot immediately lets the upstream flit advance into
// it (the worm moves as a synchronized train); in strict mode only space
// available at the start of the cycle counts. Train-class engines move
// each worm in one step (moveTrains); the rest of this function is the
// per-flit path, every other class's and the train path's reference.
func (e *Engine) move() {
	if e.trains {
		e.moveTrains()
		return
	}
	if e.cfg.StrictAdvance {
		for i := range e.inbufs {
			e.lenStart[i] = int32(len(e.inbufs[i].q))
		}
	}
	w := &e.scratch
	// inWork is all-false here: the previous drain popped (and cleared)
	// every entry it pushed.
	w.work = w.work[:0]
	e.seedMoveWork()
	e.injectQueued()
	for len(w.work) > 0 {
		in := w.work[len(w.work)-1]
		w.work = w.work[:len(w.work)-1]
		e.inWork[in] = false
		if !e.stalled.get(in) {
			e.moveOne(in)
		}
	}
}

// injectQueued attempts an injection from every source in the
// injectable set, in ascending node order, and drops from the set each
// source it leaves with an empty queue or a full injection buffer. The
// sources it skips are exactly those whose tryInject would return
// without effect (injUsed is all false here, and under strict advance
// lenStart equals each buffer's length), so every Inject keeps its
// place.
func (e *Engine) injectQueued() {
	for i, word := range e.injectable {
		base := int32(i << 6)
		for word != 0 {
			v := base + int32(bits.TrailingZeros64(word))
			word &= word - 1
			e.tryInject(topology.NodeID(v))
			if e.queues[v].len() == 0 || len(e.inbufs[e.injectionIn(topology.NodeID(v))].q) >= e.depth {
				e.injectable.clear(v)
			}
		}
	}
}

// tryInject moves the next flit of the source queue's head packet into
// the injection buffer, modeling the processor-to-router channel
// (bandwidth one flit per cycle).
func (e *Engine) tryInject(v topology.NodeID) {
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
	head := p.flitsSent == 0
	b.q = append(b.q, flit{p: p, head: head, tail: p.flitsSent == p.length-1})
	if b.allocOut >= 0 {
		e.flowing.set(in)
	}
	p.flitsSent++
	p.lastProgress = e.cycle
	if p.flitsSent == p.length {
		q.pop()
	}
	e.injUsed[in] = true
	e.dirtyInj = append(e.dirtyInj, in)
	e.flitsInjectedEver++
	e.lastMove = e.cycle
	if e.m != nil {
		e.m.Occupancy[v]++
	}
	if head {
		b.headArrival = e.cycle
		p.injectCycle = e.cycle
		p.back = in
		if len(b.q) == 1 {
			e.pushAllocWork(int32(v))
		}
		if e.cfg.Observer != nil {
			e.cfg.Observer.Inject(e.cycle, p.src, p.dst, p.length)
		}
	}
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
// source queue is the source node's packet store).
func (e *Engine) readyToForward(b *inbuf) bool {
	if !e.cfg.holdsWholePacket() || int(b.port) == e.vport-1 {
		return true
	}
	// Scan the nonempty buffer for the front packet's tail flit.
	front := b.q[0].p
	for i := len(b.q) - 1; i >= 0; i-- {
		if b.q[i].p == front {
			return b.q[i].tail
		}
	}
	return false
}

// moveOne attempts to advance the front flit of input buffer in, and
// does the move's bookkeeping where it makes the move.
func (e *Engine) moveOne(in int32) {
	b := &e.inbufs[in]
	if len(b.q) == 0 || b.allocOut < 0 {
		return
	}
	out := b.allocOut
	phys := e.physOf[out]
	if e.linkUsed[phys] {
		return
	}
	if !e.readyToForward(b) {
		return
	}
	dest := e.outDest[out]
	var db *inbuf
	if dest >= 0 {
		if db = &e.inbufs[dest]; !e.hasSpace(dest, db) {
			return
		}
	}
	f := b.q[0]
	e.linkUsed[phys] = true
	e.dirtyLinks = append(e.dirtyLinks, phys)
	if e.countLinks {
		e.linkFlits[phys]++
	}
	e.lastMove = e.cycle
	f.p.lastProgress = e.cycle
	e.popFront(in, b)
	feeder := e.unstallFeeder(in)
	if e.m != nil {
		e.m.Occupancy[int(in)/e.vport]--
	}
	if dest < 0 {
		// Ejection: the destination processor consumes immediately. The
		// tail delivers the packet and frees the ejection channel.
		f.p.flitsDelivered++
		e.flitsDeliveredEver++
		if f.tail {
			e.release(in, out, f.p)
			e.deliver(f.p)
		}
		e.cascade(in, b, feeder)
		return
	}
	db.q = append(db.q, f)
	if db.allocOut >= 0 {
		e.flowing.set(dest)
	}
	if f.head {
		db.headArrival = e.cycle
		f.p.hops++
		if len(db.q) == 1 {
			e.pushAllocWork(dest / int32(e.vport))
		}
	}
	if f.tail {
		e.release(in, out, f.p)
	} else if len(db.q) >= e.depth {
		// The flit filled dest: the worm's next flit must wait for it.
		// A tail releases the output instead, and its input was not
		// stalled (dest had space), so there is nothing to clear.
		e.stall(in, out, dest)
	}
	if e.m != nil {
		e.m.Occupancy[int(dest)/e.vport]++
	}
	if e.cfg.Observer != nil {
		p := int(out) % e.vport
		e.cfg.Observer.Forward(e.cycle, topology.Channel{
			From: topology.NodeID(int(out) / e.vport),
			Dir:  topology.DirectionFromIndex(p / e.vcs),
		}, p%e.vcs, f.head, f.tail)
	}
	e.cascade(in, b, feeder)
}

// popFront removes the front flit of input buffer in; an emptied buffer
// stops flowing.
func (e *Engine) popFront(in int32, b *inbuf) {
	copy(b.q, b.q[1:])
	b.q = b.q[:len(b.q)-1]
	if len(b.q) == 0 {
		e.flowing.clear(in)
	}
}

// release frees the virtual output channel out held through input in by
// packet p once the tail flit has passed: the input stops flowing, and
// its router's allocation scan wakes for the freed output. While links
// are counted, the train moves p made since out's stamp are credited to
// its link (see linkStamp); on the per-flit path, which counts each flit
// as it moves, p's moves and every stamp stay 0.
func (e *Engine) release(in, out int32, p *packet) {
	if e.countLinks {
		e.linkFlits[e.physOf[out]] += p.moves - e.linkStamp[out]
	}
	e.busyBy[out] = -1
	e.inbufs[in].allocOut = -1
	e.flowing.clear(in)
	e.pushAllocWork(in / int32(e.vport))
}

// stall marks input in, which holds output out, as waiting on out's
// full downstream buffer dest.
func (e *Engine) stall(in, out, dest int32) {
	e.stalled.set(in)
	if dest < out {
		e.stalledLow.set(in)
	}
}

// unstallFeeder is called after a pop left input buffer in below
// capacity: the input holding the channel into it (its feeder), if any,
// is no longer stalled. It returns the feeder, or -1.
func (e *Engine) unstallFeeder(in int32) int32 {
	up := e.upOut[in]
	if up < 0 {
		return -1
	}
	feeder := e.busyBy[up]
	if feeder >= 0 {
		e.stalled.clear(feeder)
		e.stalledLow.clear(feeder)
	}
	return feeder
}

// cascade follows a pop from buffer in. An injection buffer's source
// rejoins the injectable set and, under chained advance, injects at
// once. For any other buffer, chained advance schedules feeder, the
// input holding the channel into in (or -1), which may now have space
// to receive a flit.
func (e *Engine) cascade(in int32, b *inbuf, feeder int32) {
	if int(b.port) == e.vport-1 {
		v := in / int32(e.vport)
		e.injectable.set(v)
		if !e.cfg.StrictAdvance {
			e.tryInject(topology.NodeID(v))
		}
		return
	}
	if !e.cfg.StrictAdvance {
		e.pushWork(feeder)
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
		if e.linkStart != nil {
			f -= e.linkStart[i]
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
