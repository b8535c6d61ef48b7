package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"turnmodel/internal/core"
	"turnmodel/internal/fault"
	"turnmodel/internal/metrics"
	"turnmodel/internal/routing"
	"turnmodel/internal/topology"
	"turnmodel/internal/traffic"
)

// The train class has two move paths: moveTrains, and the per-flit path
// it replaces, which an attached Observer selects (a metrics collector
// does not). A no-op observer thus runs the per-flit path on the same
// configuration, with no test hook; these tests hold the train path to
// the per-flit path as the reference.

// trainTopology is one topology family of the random sweep, with the
// built-in single-VC relations and traffic patterns that apply to it.
type trainTopology struct {
	name     string
	mk       func(rng *rand.Rand) *topology.Topology
	rels     []func(t *topology.Topology) routing.Algorithm
	patterns []func(t *topology.Topology, rng *rand.Rand) traffic.Pattern
}

var (
	uniform = func(t *topology.Topology, _ *rand.Rand) traffic.Pattern { return traffic.NewUniform(t) }
	hotspot = func(t *topology.Topology, rng *rand.Rand) traffic.Pattern {
		return traffic.NewHotspot(t, topology.NodeID(rng.Intn(t.Nodes())), 0.05+0.3*rng.Float64())
	}
)

func trainTopologies() []trainTopology {
	turnGraph := func(set func() *core.Set, minimal bool) func(t *topology.Topology) routing.Algorithm {
		return func(t *topology.Topology) routing.Algorithm { return routing.NewTurnGraphRouting(t, set(), minimal) }
	}
	return []trainTopology{
		{
			name: "mesh2d",
			mk: func(rng *rand.Rand) *topology.Topology {
				k := 3 + rng.Intn(6)
				if rng.Intn(3) == 0 {
					return topology.NewMesh(k, 3+rng.Intn(6))
				}
				return topology.NewMesh(k, k)
			},
			rels: []func(t *topology.Topology) routing.Algorithm{
				func(t *topology.Topology) routing.Algorithm { return routing.NewDimensionOrder(t) },
				func(t *topology.Topology) routing.Algorithm { return routing.NewWestFirst(t) },
				func(t *topology.Topology) routing.Algorithm { return routing.NewNorthLast(t) },
				func(t *topology.Topology) routing.Algorithm { return routing.NewNegativeFirst(t) },
				func(t *topology.Topology) routing.Algorithm { return routing.NewABONF(t, 1) },
				func(t *topology.Topology) routing.Algorithm { return routing.NewABOPL(t, 0) },
				func(t *topology.Topology) routing.Algorithm { return routing.NewFullyAdaptive(t) },
				turnGraph(core.WestFirstSet, true),
				turnGraph(core.WestFirstSet, false),
				turnGraph(core.NorthLastSet, false),
				turnGraph(func() *core.Set { return core.NegativeFirstSet(2) }, false),
				turnGraph(core.Figure4Set, true),
			},
			patterns: []func(t *topology.Topology, rng *rand.Rand) traffic.Pattern{
				uniform, hotspot,
				func(t *topology.Topology, rng *rand.Rand) traffic.Pattern {
					if d := t.Dims(); d[0] != d[1] {
						return traffic.NewUniform(t)
					}
					return traffic.NewMeshTranspose(t)
				},
			},
		},
		{
			name: "mesh3d",
			mk:   func(rng *rand.Rand) *topology.Topology { return topology.NewMesh(3, 2+rng.Intn(3), 2+rng.Intn(3)) },
			rels: []func(t *topology.Topology) routing.Algorithm{
				func(t *topology.Topology) routing.Algorithm { return routing.NewDimensionOrder(t) },
				func(t *topology.Topology) routing.Algorithm { return routing.NewNegativeFirst(t) },
				func(t *topology.Topology) routing.Algorithm { return routing.NewABONF(t, 2) },
				func(t *topology.Topology) routing.Algorithm { return routing.NewABOPL(t, 0) },
				func(t *topology.Topology) routing.Algorithm { return routing.NewFullyAdaptive(t) },
				turnGraph(func() *core.Set { return core.NegativeFirstSet(3) }, false),
			},
			patterns: []func(t *topology.Topology, rng *rand.Rand) traffic.Pattern{uniform, hotspot},
		},
		{
			name: "torus",
			mk:   func(rng *rand.Rand) *topology.Topology { return topology.NewTorus(3+rng.Intn(4), 2) },
			rels: []func(t *topology.Topology) routing.Algorithm{
				func(t *topology.Topology) routing.Algorithm { return routing.NewNegativeFirstTorus(t) },
				func(t *topology.Topology) routing.Algorithm {
					return routing.NewWrapFirstHop(routing.NewNegativeFirst(t))
				},
				func(t *topology.Topology) routing.Algorithm { return routing.NewTorusDOR(t) },
			},
			patterns: []func(t *topology.Topology, rng *rand.Rand) traffic.Pattern{uniform, hotspot},
		},
		{
			name: "hypercube",
			mk:   func(rng *rand.Rand) *topology.Topology { return topology.NewHypercube(3 + rng.Intn(4)) },
			rels: []func(t *topology.Topology) routing.Algorithm{
				func(t *topology.Topology) routing.Algorithm { return routing.NewPCube(t) },
				func(t *topology.Topology) routing.Algorithm { return routing.NewDimensionOrder(t) },
				func(t *topology.Topology) routing.Algorithm { return routing.NewFullyAdaptive(t) },
			},
			patterns: []func(t *topology.Topology, rng *rand.Rand) traffic.Pattern{
				uniform, hotspot,
				func(t *topology.Topology, _ *rand.Rand) traffic.Pattern { return traffic.NewReverseFlip(t) },
				func(t *topology.Topology, _ *rand.Rand) traffic.Pattern { return traffic.NewBitReversal(t) },
				func(t *topology.Topology, _ *rand.Rand) traffic.Pattern {
					if t.NumDims()%2 != 0 {
						return traffic.NewBitReversal(t)
					}
					return traffic.NewHypercubeTranspose(t)
				},
			},
		},
	}
}

// randomTrainConfig draws configuration i of the sweep: the topology
// family and relation cycle with i, so every relation is covered, and
// everything else is drawn from rng.
func randomTrainConfig(t *testing.T, i int, rng *rand.Rand) (string, Config) {
	fams := trainTopologies()
	fam := fams[i%len(fams)]
	topo := fam.mk(rng)
	alg := fam.rels[(i/len(fams))%len(fam.rels)](topo)
	cfg := Config{
		Algorithm:     alg,
		Pattern:       fam.patterns[rng.Intn(len(fam.patterns))](topo, rng),
		OfferedLoad:   0.25 + 4*rng.Float64(),
		WarmupCycles:  int64(100 + rng.Intn(400)),
		MeasureCycles: int64(300 + rng.Intn(900)),
		Seed:          rng.Int63(),
	}
	switch rng.Intn(5) {
	case 0:
		cfg.Lengths = []int{1}
	case 1:
		cfg.Lengths = []int{1, 8}
	case 2:
		cfg.Lengths, cfg.LengthWeights = []int{2, 6, 40}, []float64{1, 2, 1}
	case 3:
		cfg.Lengths = []int{4, 16}
	} // default: the paper's {10, 200}
	if rng.Intn(4) == 0 {
		cfg.RouterDelay = int64(1 + rng.Intn(3))
	}
	cfg.Policy = OutputPolicy(rng.Intn(3))
	cfg.Input = InputPolicy(rng.Intn(3))
	if rng.Intn(4) == 0 {
		cfg.MisrouteAfter = int64(1 + rng.Intn(8))
	}
	if rng.Intn(3) == 0 {
		cfg.RecoveryThreshold = int64(16 + rng.Intn(200))
		cfg.RetryLimit = rng.Intn(4) - 1
	}
	if rng.Intn(3) == 0 {
		plan, err := fault.NewCampaign(topo, fault.Campaign{
			Seed:    rng.Int63(),
			Horizon: cfg.WarmupCycles + cfg.MeasureCycles,
			Rate:    1 + 4*rng.Float64(),
			MTTR:    int64(rng.Intn(2) * 300),
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg.FaultPlan = plan
	}
	if rng.Intn(6) == 0 {
		cfg.DeadlockThreshold = int64(100 + rng.Intn(300))
	}
	name := fmt.Sprintf("%d-%s-%s-%s-load%.2f", i, fam.name, alg.Name(), cfg.Pattern.Name(), cfg.OfferedLoad)
	return name, cfg
}

// runBothPaths runs cfg unobserved (train path) and with a no-op
// observer (per-flit path), with invariants armed, and returns both
// results.
func runBothPaths(t *testing.T, cfg Config) (train, perFlit Result) {
	t.Helper()
	cfg.CheckInvariants = true
	for _, obs := range []Observer{nil, ObserverFuncs{}} {
		cfg.Observer = obs
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if e.trains != (obs == nil) {
			t.Fatalf("observer %v: trains = %v", obs, e.trains)
		}
		res := e.run()
		if res.InvariantViolation != "" {
			t.Fatalf("observer %v: invariant violation: %s", obs, res.InvariantViolation)
		}
		if obs == nil {
			train = res
		} else {
			perFlit = res
		}
	}
	return train, perFlit
}

// TestTrainPathMatchesPerFlit: over 320 seeded random train-class
// configurations — meshes, single-VC tori and hypercubes, every built-in
// single-VC relation, five traffic patterns, loads 0.25 to 4.25, 1-flit
// packets, router delay, random policies, misroute patience, recovery
// and fault campaigns — plus one scripted run, the train path's Result
// equals the per-flit path's in every field.
func TestTrainPathMatchesPerFlit(t *testing.T) {
	const configs = 320
	rng := rand.New(rand.NewSource(18))
	moved := 0
	for i := 0; i < configs; i++ {
		name, cfg := randomTrainConfig(t, i, rng)
		train, perFlit := runBothPaths(t, cfg)
		type allFields Result
		if got, want := fmt.Sprintf("%+v", allFields(train)), fmt.Sprintf("%+v", allFields(perFlit)); got != want {
			t.Errorf("%s:\ntrain    %s\nper-flit %s", name, got, want)
		}
		if train.PacketsDeliveredTotal > 0 {
			moved++
		}
	}
	if moved < configs*9/10 {
		t.Fatalf("only %d of %d configurations delivered a packet; the comparison is too thin", moved, configs)
	}

	topo := topology.NewMesh(5, 5)
	east := topology.Direction{Dim: 0, Pos: true}
	var script []ScriptedMessage
	for c := int64(0); c < 40; c++ {
		m := ScriptedMessage{
			Cycle:  c * 3,
			Src:    topology.NodeID(c % 25),
			Dst:    topology.NodeID((c*7 + 3) % 25),
			Length: []int{1, 5, 23}[c%3],
		}
		if m.Src == m.Dst {
			m.Dst = (m.Dst + 1) % 25
		}
		if c%4 == 0 {
			m.FirstDir = &east
		}
		script = append(script, m)
	}
	train, perFlit := runBothPaths(t, Config{Algorithm: routing.NewWestFirst(topo), Script: script})
	if train != perFlit || train.PacketsDelivered != int64(len(script)) {
		t.Errorf("scripted run:\ntrain    %+v\nper-flit %+v", train, perFlit)
	}
}

// TestCollectorKeepsTrainPath: a metrics collector leaves a train-class
// engine on the train path; only an Observer selects the per-flit path.
func TestCollectorKeepsTrainPath(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	for _, c := range []struct {
		name   string
		obs    Observer
		m      *metrics.Collector
		trains bool
	}{
		{"plain", nil, nil, true},
		{"collector", nil, metrics.New(metrics.Config{Interval: 100}), true},
		{"observer", ObserverFuncs{}, nil, false},
		{"observer-and-collector", ObserverFuncs{}, metrics.New(metrics.Config{}), false},
	} {
		e, err := New(Config{
			Algorithm:     routing.NewWestFirst(topo),
			Pattern:       traffic.NewMeshTranspose(topo),
			OfferedLoad:   1.5,
			WarmupCycles:  100,
			MeasureCycles: 100,
			Observer:      c.obs,
			Metrics:       c.m,
		})
		if err != nil {
			t.Fatal(err)
		}
		if e.trains != c.trains {
			t.Errorf("%s: trains = %v, want %v", c.name, e.trains, c.trains)
		}
	}
}

// TestTrainPathMetricsMatchPerFlit: with a collector attached to both
// move paths (time series and exact latencies on), every 8th
// configuration of TestTrainPathMatchesPerFlit's sweep, plus a fault
// campaign with recovery, gives equal Results and byte-identical
// manifest, Prometheus and heatmap dumps. Each path runs on its own
// copy of the topology.
func TestTrainPathMetricsMatchPerFlit(t *testing.T) {
	type namedConfigs struct {
		name string
		cfgs [2]Config // train, per-flit
	}
	var cases []namedConfigs
	rngs := [2]*rand.Rand{rand.New(rand.NewSource(18)), rand.New(rand.NewSource(18))} // TestTrainPathMatchesPerFlit's sweep
	for i := 0; i < 320; i++ {
		var c namedConfigs
		for k, rng := range rngs {
			c.name, c.cfgs[k] = randomTrainConfig(t, i, rng)
		}
		if i%8 == 0 {
			cases = append(cases, c)
		}
	}
	c := namedConfigs{name: "fully-adaptive-recovery-faults"}
	for k := range c.cfgs {
		topo := topology.NewMesh(8, 8)
		plan, err := fault.NewCampaign(topo, fault.Campaign{Seed: 3, Horizon: 3000, Rate: 4, MTTR: 500})
		if err != nil {
			t.Fatal(err)
		}
		c.cfgs[k] = Config{
			Algorithm:         routing.NewFullyAdaptive(topo),
			Pattern:           traffic.NewUniform(topo),
			OfferedLoad:       3.0,
			WarmupCycles:      500,
			MeasureCycles:     2500,
			Seed:              3,
			FaultPlan:         plan,
			RecoveryThreshold: 128,
		}
	}
	cases = append(cases, c)
	recovered := false
	for _, c := range cases {
		var res [2]Result
		var dump [2]string
		for k, obs := range []Observer{nil, ObserverFuncs{}} {
			cfg := c.cfgs[k]
			cfg.Observer = obs
			cfg.CheckInvariants = true
			m := metrics.New(metrics.Config{Interval: 100, ExactLatencies: true})
			cfg.Metrics = m
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if e.trains != (obs == nil) {
				t.Fatalf("%s: observer %v: trains = %v", c.name, obs, e.trains)
			}
			res[k] = e.run()
			if res[k].InvariantViolation != "" {
				t.Fatalf("%s: observer %v: invariant violation: %s", c.name, obs, res[k].InvariantViolation)
			}
			var b strings.Builder
			if err := m.WriteManifest(&b); err != nil {
				t.Fatal(err)
			}
			if err := m.WritePrometheus(&b); err != nil {
				t.Fatal(err)
			}
			b.WriteString(m.Heatmap())
			dump[k] = b.String()
		}
		type allFields Result
		if got, want := fmt.Sprintf("%+v", allFields(res[0])), fmt.Sprintf("%+v", allFields(res[1])); got != want {
			t.Errorf("%s:\ntrain    %s\nper-flit %s", c.name, got, want)
		}
		if dump[0] != dump[1] {
			t.Errorf("%s: metrics dumps differ at %s", c.name, firstDiff(dump[0], dump[1]))
		}
		recovered = recovered || res[0].Recoveries > 0
	}
	if !recovered {
		t.Fatal("no configuration recovered a worm; the recovery totals went unchecked")
	}
}

// firstDiff returns the first differing line of two dumps.
func firstDiff(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return fmt.Sprintf("line %d:\ntrain    %s\nper-flit %s", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("the end: %d vs %d lines", len(la), len(lb))
}

// TestTrainPathLockstep steps one engine per move path and compares
// their full state after every cycle, with the measurement window open
// from cycle zero. Packets are compared by id, not pointer: the two
// paths deliver a cycle's packets in different orders, so the freelist
// hands out different structs. The collector case also compares the
// collectors' occupancy gauges, their integrals and the channel counts
// after every cycle.
func TestTrainPathLockstep(t *testing.T) {
	faultyAdaptive := func() Config {
		topo := topology.NewMesh(8, 8)
		plan, err := fault.NewCampaign(topo, fault.Campaign{Seed: 7, Horizon: 3000, Rate: 4, MTTR: 500})
		if err != nil {
			t.Fatal(err)
		}
		return Config{
			Algorithm:         routing.NewFullyAdaptive(topo),
			Pattern:           traffic.NewUniform(topo),
			OfferedLoad:       3.0,
			Seed:              7,
			FaultPlan:         plan,
			RecoveryThreshold: 128,
		}
	}
	cases := []struct {
		name    string
		mk      func() Config
		collect bool
	}{
		{"saturated-transpose", func() Config {
			topo := topology.NewMesh(16, 16)
			return Config{
				Algorithm:   routing.NewNegativeFirst(topo),
				Pattern:     traffic.NewMeshTranspose(topo),
				OfferedLoad: 1.5,
				Seed:        1,
			}
		}, false},
		{"pcube-6cube-short", func() Config {
			topo := topology.NewHypercube(6)
			return Config{
				Algorithm:   routing.NewPCube(topo),
				Pattern:     traffic.NewHypercubeTranspose(topo),
				OfferedLoad: 2.5,
				Lengths:     []int{1, 6},
				Seed:        6,
			}
		}, false},
		{"fully-adaptive-recovery-faults", faultyAdaptive, false},
		{"collector-fully-adaptive-recovery-faults", faultyAdaptive, true},
		{"random-policies-misroute-torus", func() Config {
			topo := topology.NewTorus(6, 2)
			return Config{
				Algorithm:     routing.NewNegativeFirstTorus(topo),
				Pattern:       traffic.NewUniform(topo),
				OfferedLoad:   3.0,
				Policy:        RandomPolicy,
				Input:         RandomInput,
				MisrouteAfter: 3,
				RouterDelay:   1,
				Seed:          5,
			}
		}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var engines [2]*Engine
			for i, obs := range []Observer{nil, ObserverFuncs{}} {
				cfg := c.mk()
				cfg.WarmupCycles, cfg.MeasureCycles = 1<<30, 1
				cfg.Observer = obs
				if c.collect {
					cfg.Metrics = metrics.New(metrics.Config{Interval: 100})
				}
				e, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer e.restoreFaults()
				e.openWindow()
				engines[i] = e
			}
			train, perFlit := engines[0], engines[1]
			if !train.trains || perFlit.trains {
				t.Fatalf("trains = %v/%v, want true/false", train.trains, perFlit.trains)
			}
			for cycle := 0; cycle < 3000; cycle++ {
				for _, e := range engines {
					e.step()
					e.cycle++
				}
				if diff := engineStateDiff(train, perFlit); diff != "" {
					t.Fatalf("cycle %d: %s", cycle, diff)
				}
				if c.collect {
					if &train.m.ChannelFlits[0] != &train.linkFlits[0] {
						t.Fatal("the collector's channel counts are not the engine's linkFlits")
					}
					if diff := collectorDiff(train.m, perFlit.m); diff != "" {
						t.Fatalf("cycle %d: %s", cycle, diff)
					}
				}
			}
			if err := train.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if train.flitsDeliveredEver == 0 || train.recov.recoveries == 0 && train.cfg.RecoveryThreshold > 0 {
				t.Fatalf("vacuous run: %d flits delivered, %d recoveries", train.flitsDeliveredEver, train.recov.recoveries)
			}
		})
	}
}

// engineStateDiff describes the first difference between the state two
// engines of one configuration leave at a cycle boundary, or returns "".
func engineStateDiff(a, b *Engine) string {
	pktID := func(p *packet) int64 {
		if p == nil {
			return -1
		}
		return p.id
	}
	for in := range a.inbufs {
		x, y := &a.inbufs[in], &b.inbufs[in]
		if len(x.q) != len(y.q) || x.allocOut != y.allocOut || x.headArrival != y.headArrival {
			return fmt.Sprintf("input %d: %d flits, allocOut %d, headArrival %d vs %d flits, allocOut %d, headArrival %d",
				in, len(x.q), x.allocOut, x.headArrival, len(y.q), y.allocOut, y.headArrival)
		}
		for i := range x.q {
			fx, fy := x.q[i], y.q[i]
			if pktID(fx.p) != pktID(fy.p) || fx.head != fy.head || fx.tail != fy.tail {
				return fmt.Sprintf("input %d flit %d: {%d %v %v} vs {%d %v %v}",
					in, i, pktID(fx.p), fx.head, fx.tail, pktID(fy.p), fy.head, fy.tail)
			}
			if px, py := pathFree(fx.p), pathFree(fy.p); px != py {
				return fmt.Sprintf("input %d packet: %+v vs %+v", in, px, py)
			}
		}
	}
	for out := range a.busyBy {
		if a.busyBy[out] != b.busyBy[out] {
			return fmt.Sprintf("busyBy[%d] = %d vs %d", out, a.busyBy[out], b.busyBy[out])
		}
	}
	for _, s := range []struct {
		name string
		x, y bitset
	}{
		{"flowing", a.flowing, b.flowing},
		{"stalled", a.stalled, b.stalled},
		{"stalledLow", a.stalledLow, b.stalledLow},
		{"allocWork", a.allocWork, b.allocWork},
	} {
		for w := range s.x {
			if s.x[w] != s.y[w] {
				return fmt.Sprintf("%s word %d: %#x vs %#x", s.name, w, s.x[w], s.y[w])
			}
		}
	}
	for v := range a.queues {
		qa, qb := &a.queues[v], &b.queues[v]
		if qa.len() != qb.len() {
			return fmt.Sprintf("queue %d: %d vs %d packets", v, qa.len(), qb.len())
		}
		for j := 0; j < qa.len(); j++ {
			if pa, pb := pathFree(qa.at(j)), pathFree(qb.at(j)); pa != pb {
				return fmt.Sprintf("queue %d packet %d: %+v vs %+v", v, j, pa, pb)
			}
		}
	}
	la, lb := foldedLinkFlits(a), foldedLinkFlits(b)
	for i := range la {
		if la[i] != lb[i] {
			return fmt.Sprintf("linkFlits[%d] = %d vs %d (open intervals folded in)", i, la[i], lb[i])
		}
	}
	type counters struct {
		injected, delivered, drained, lastMove, nextPktID int64
		inFlight                                          int
		stats                                             runStats
		recoveries, retries, drops                        int64
	}
	ca := counters{a.flitsInjectedEver, a.flitsDeliveredEver, a.recov.flitsDrained, a.lastMove, a.nextPktID,
		a.inFlight, a.stats, a.recov.recoveries, a.recov.retries, a.recov.drops}
	cb := counters{b.flitsInjectedEver, b.flitsDeliveredEver, b.recov.flitsDrained, b.lastMove, b.nextPktID,
		b.inFlight, b.stats, b.recov.recoveries, b.recov.retries, b.recov.drops}
	ca.stats.latencies, cb.stats.latencies = nil, nil
	if ca != cb {
		return fmt.Sprintf("counters %+v vs %+v", ca, cb)
	}
	return ""
}

// pathFree returns p's state without the fields only the train path
// keeps (its back and its move count).
func pathFree(p *packet) packet {
	q := *p
	q.back, q.moves = 0, 0
	return q
}

// foldedLinkFlits returns e's per-link flit counts with the open
// intervals of the train path's held links folded in, as flushLinks
// would credit them, without changing e.
func foldedLinkFlits(e *Engine) []int64 {
	counts := append([]int64(nil), e.linkFlits...)
	if e.trains && e.countLinks {
		for out, in := range e.busyBy {
			if in >= 0 {
				counts[e.physOf[out]] += e.inbufs[in].q[0].p.moves - e.linkStamp[out]
			}
		}
	}
	return counts
}

// collectorDiff describes the first difference between two collectors'
// per-router occupancy gauges and integrals, or returns "". Their
// channel counts are their engines' linkFlits, which engineStateDiff
// compares.
func collectorDiff(a, b *metrics.Collector) string {
	for v := range a.Occupancy {
		if a.Occupancy[v] != b.Occupancy[v] || a.OccIntegral[v] != b.OccIntegral[v] {
			return fmt.Sprintf("router %d: occupancy %d, integral %d vs occupancy %d, integral %d",
				v, a.Occupancy[v], a.OccIntegral[v], b.Occupancy[v], b.OccIntegral[v])
		}
	}
	return ""
}

// TestCheckInvariantsCatchesBrokenChain: on a warmed train-class
// engine, a tail flag set on a body flit in the middle of a worm's
// chain is reported, and clearing it restores a clean check.
func TestCheckInvariantsCatchesBrokenChain(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	e, err := New(Config{
		Algorithm:     routing.NewNegativeFirst(topo),
		Pattern:       traffic.NewMeshTranspose(topo),
		OfferedLoad:   2.5,
		WarmupCycles:  1 << 30,
		MeasureCycles: 1,
		Seed:          2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		e.step()
		e.cycle++
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("warmed engine: %v", err)
	}
	// A mid-chain buffer holds a body flit, forwards into a buffer of its
	// own worm, and is fed by a buffer of its own worm.
	mid := int32(-1)
	for in := int32(0); in < int32(len(e.inbufs)) && mid < 0; in++ {
		b := &e.inbufs[in]
		if len(b.q) == 0 || b.q[0].head || b.q[0].tail || b.allocOut < 0 {
			continue
		}
		p := b.q[0].p
		dest, up := e.outDest[b.allocOut], e.upOut[in]
		if dest < 0 || up < 0 || e.busyBy[up] < 0 {
			continue
		}
		if ahead, behind := e.inbufs[dest].q, e.inbufs[e.busyBy[up]].q; len(ahead) == 1 && ahead[0].p == p &&
			len(behind) == 1 && behind[0].p == p {
			mid = in
		}
	}
	if mid < 0 {
		t.Fatal("warmup left no worm three buffers long; the test would be vacuous")
	}
	f := &e.inbufs[mid].q[0]
	f.tail = true
	if err := e.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "tail flag true") {
		t.Errorf("tail flag on mid-chain input %d: got %v, want a tail-flag error", mid, err)
	}
	f.tail = false
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("restored: %v", err)
	}
}
