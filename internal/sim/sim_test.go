package sim

import (
	"math"
	"sync/atomic"
	"testing"

	"turnmodel/internal/routing"
	"turnmodel/internal/topology"
	"turnmodel/internal/traffic"
)

func mesh8() *topology.Topology { return topology.NewMesh(8, 8) }

// TestSinglePacketLatency: on an idle network a wormhole packet's
// latency is (hops + length) cycles plus a small constant — the paper's
// "proportional to the sum of packet length and distance" property.
func TestSinglePacketLatency(t *testing.T) {
	topo := mesh8()
	src := topo.ID(topology.Coord{0, 0})
	dst := topo.ID(topology.Coord{5, 3})
	length := 20
	e, err := New(Config{
		Algorithm: routing.NewDimensionOrder(topo),
		Script: []ScriptedMessage{
			{Cycle: 0, Src: src, Dst: dst, Length: length},
		},
		Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var delivered *packet
	e.onDeliver = func(p *packet) { delivered = p }
	res := e.run()
	if res.Deadlocked || delivered == nil {
		t.Fatalf("packet not delivered: %+v", res)
	}
	hops := topo.Distance(src, dst)
	if delivered.hops != hops {
		t.Errorf("hops = %d, want %d", delivered.hops, hops)
	}
	lat := delivered.deliverCycle - delivered.genCycle
	ideal := int64(hops + length)
	// Allow a small constant for injection/ejection pipeline stages.
	if lat < ideal || lat > ideal+6 {
		t.Errorf("latency = %d cycles, want about %d (hops=%d + length=%d)", lat, ideal, hops, length)
	}
}

// TestLatencyScalesWithSumNotProduct: doubling the packet length should
// add ~length cycles (wormhole), not multiply the latency by the
// distance (store-and-forward).
func TestLatencyScalesWithSumNotProduct(t *testing.T) {
	topo := mesh8()
	src := topo.ID(topology.Coord{0, 0})
	dst := topo.ID(topology.Coord{7, 7})
	lat := func(length int) int64 {
		e, err := New(Config{
			Algorithm: routing.NewDimensionOrder(topo),
			Script:    []ScriptedMessage{{Cycle: 0, Src: src, Dst: dst, Length: length}},
		})
		if err != nil {
			t.Fatal(err)
		}
		var got int64
		e.onDeliver = func(p *packet) { got = p.deliverCycle - p.genCycle }
		e.run()
		return got
	}
	l10, l20 := lat(10), lat(20)
	if d := l20 - l10; d != 10 {
		t.Errorf("latency delta for +10 flits = %d cycles, want 10", d)
	}
}

// TestFlitConservation: in a finite scripted run, every generated flit
// is delivered exactly once.
func TestFlitConservation(t *testing.T) {
	topo := mesh8()
	var script []ScriptedMessage
	total := 0
	for i := 0; i < 40; i++ {
		src := topology.NodeID(i % topo.Nodes())
		dst := topology.NodeID((i*7 + 13) % topo.Nodes())
		if src == dst {
			continue
		}
		l := 5 + i%17
		total += l
		script = append(script, ScriptedMessage{Cycle: int64(i * 3), Src: src, Dst: dst, Length: l})
	}
	e, err := New(Config{Algorithm: routing.NewNegativeFirst(topo), Script: script, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	deliveredFlits := 0
	e.onDeliver = func(p *packet) {
		if p.flitsDelivered != p.length {
			t.Errorf("packet %d delivered %d of %d flits", p.id, p.flitsDelivered, p.length)
		}
		deliveredFlits += p.length
	}
	res := e.run()
	if res.Deadlocked {
		t.Fatal("unexpected deadlock")
	}
	if res.PacketsDelivered != int64(len(script)) {
		t.Fatalf("delivered %d of %d packets", res.PacketsDelivered, len(script))
	}
	if deliveredFlits != total {
		t.Errorf("delivered %d flits, generated %d", deliveredFlits, total)
	}
}

// TestMinimalHopsInvariant: under stochastic load, every delivered
// packet of a minimal algorithm travels exactly its minimal distance.
func TestMinimalHopsInvariant(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	for _, alg := range []routing.Algorithm{
		routing.NewDimensionOrder(topo),
		routing.NewWestFirst(topo),
		routing.NewNorthLast(topo),
		routing.NewNegativeFirst(topo),
	} {
		e, err := New(Config{
			Algorithm:     alg,
			Pattern:       traffic.NewUniform(topo),
			OfferedLoad:   1.5,
			WarmupCycles:  500,
			MeasureCycles: 3000,
			Seed:          3,
		})
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		e.onDeliver = func(p *packet) {
			if p.hops != topo.Distance(p.src, p.dst) {
				t.Errorf("%s: packet %d->%d took %d hops, want %d", alg.Name(), p.src, p.dst, p.hops, topo.Distance(p.src, p.dst))
			}
			checked++
		}
		e.run()
		if checked == 0 {
			t.Fatalf("%s: no packets delivered", alg.Name())
		}
	}
}

// TestDeterminism: identical configurations produce identical results.
func TestDeterminism(t *testing.T) {
	topo := mesh8()
	cfg := Config{
		Algorithm:     routing.NewWestFirst(topo),
		Pattern:       traffic.NewUniform(topo),
		OfferedLoad:   2.0,
		WarmupCycles:  1000,
		MeasureCycles: 4000,
		Seed:          17,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("identical seeds produced different results:\n%+v\n%+v", a, b)
	}
	cfg.Seed = 18
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("different seeds produced identical results (suspicious)")
	}
}

// TestFigure1Deadlock: the four-packet left-turn scenario deadlocks
// under the unrestricted relation and completes under west-first.
func TestFigure1DeadlockScenario(t *testing.T) {
	topo := topology.NewMesh(2, 2)
	east := topology.Direction{Dim: 0, Pos: true}
	west := topology.Direction{Dim: 0}
	north := topology.Direction{Dim: 1, Pos: true}
	south := topology.Direction{Dim: 1}
	at := func(x, y int) topology.NodeID { return topo.ID(topology.Coord{x, y}) }
	script := []ScriptedMessage{
		{Src: at(0, 0), Dst: at(1, 1), Length: 4, FirstDir: &east},
		{Src: at(1, 0), Dst: at(0, 1), Length: 4, FirstDir: &north},
		{Src: at(1, 1), Dst: at(0, 0), Length: 4, FirstDir: &west},
		{Src: at(0, 1), Dst: at(1, 0), Length: 4, FirstDir: &south},
	}
	res, err := Run(Config{
		Algorithm:         routing.NewFullyAdaptive(topo),
		Script:            script,
		DeadlockThreshold: 200,
		DrainDeadline:     50000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deadlocked {
		t.Errorf("fully adaptive should deadlock in the Figure 1 scenario: %+v", res)
	}
	res2, err := Run(Config{
		Algorithm:         routing.NewWestFirst(topo),
		Script:            script,
		DeadlockThreshold: 200,
		DrainDeadline:     50000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Deadlocked || res2.PacketsDelivered != 4 {
		t.Errorf("west-first should deliver all four packets: %+v", res2)
	}
}

// TestFullyAdaptiveDeadlocksUnderLoad: stochastic traffic on a small
// mesh with the unrestricted relation reaches deadlock; the runtime
// detector fires.
func TestFullyAdaptiveDeadlocksUnderLoad(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	res, err := Run(Config{
		Algorithm:         routing.NewFullyAdaptive(topo),
		Pattern:           traffic.NewUniform(topo),
		OfferedLoad:       8,
		WarmupCycles:      30000,
		MeasureCycles:     30000,
		Seed:              5,
		Policy:            RandomPolicy,
		DeadlockThreshold: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deadlocked {
		t.Skip("no deadlock materialized with this seed; the property is probabilistic")
	}
}

// TestSustainabilityFlag: light load is sustainable, heavy load is not.
func TestSustainabilityFlag(t *testing.T) {
	topo := mesh8()
	light, err := Run(Config{
		Algorithm: routing.NewDimensionOrder(topo), Pattern: traffic.NewUniform(topo),
		OfferedLoad: 0.5, WarmupCycles: 1000, MeasureCycles: 5000, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !light.Sustainable {
		t.Errorf("light load should be sustainable: %+v", light)
	}
	heavy, err := Run(Config{
		Algorithm: routing.NewDimensionOrder(topo), Pattern: traffic.NewUniform(topo),
		OfferedLoad: 15, WarmupCycles: 1000, MeasureCycles: 5000, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if heavy.Sustainable {
		t.Errorf("heavy load should not be sustainable: %+v", heavy)
	}
	if heavy.Throughput <= light.Throughput {
		t.Errorf("heavy load should still deliver more flits: %v vs %v", heavy.Throughput, light.Throughput)
	}
}

// TestThroughputMatchesOfferedAtLowLoad: far below saturation, accepted
// throughput equals offered load (within stochastic tolerance).
func TestThroughputMatchesOfferedAtLowLoad(t *testing.T) {
	topo := mesh8()
	offered := 0.5 // flits/us/node -> 32 flits/us network-wide
	res, err := Run(Config{
		Algorithm: routing.NewWestFirst(topo), Pattern: traffic.NewUniform(topo),
		OfferedLoad: offered, WarmupCycles: 4000, MeasureCycles: 20000, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := offered * float64(topo.Nodes())
	if math.Abs(res.Throughput-want)/want > 0.15 {
		t.Errorf("throughput %.1f, want about %.1f flits/us", res.Throughput, want)
	}
}

// TestBufferDepthReducesLatency: deeper input buffers cannot hurt and
// typically help at moderate load.
func TestBufferDepthReducesLatency(t *testing.T) {
	topo := mesh8()
	run := func(depth int) Result {
		res, err := Run(Config{
			Algorithm: routing.NewDimensionOrder(topo), Pattern: traffic.NewUniform(topo),
			OfferedLoad: 2.5, WarmupCycles: 2000, MeasureCycles: 10000, Seed: 8,
			BufferDepth: depth,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	d1, d4 := run(1), run(4)
	if d4.AvgLatency > d1.AvgLatency*1.1 {
		t.Errorf("depth-4 buffers should not be much worse: depth1=%.2f depth4=%.2f", d1.AvgLatency, d4.AvgLatency)
	}
}

// TestStrictAdvanceIsSlower: without chained advance a compressed worm
// moves every other cycle, so latency grows.
func TestStrictAdvanceIsSlower(t *testing.T) {
	topo := mesh8()
	src := topo.ID(topology.Coord{0, 0})
	dst := topo.ID(topology.Coord{7, 0})
	lat := func(strict bool) int64 {
		e, err := New(Config{
			Algorithm:     routing.NewDimensionOrder(topo),
			Script:        []ScriptedMessage{{Cycle: 0, Src: src, Dst: dst, Length: 30}},
			StrictAdvance: strict,
		})
		if err != nil {
			t.Fatal(err)
		}
		var got int64
		e.onDeliver = func(p *packet) { got = p.deliverCycle - p.genCycle }
		e.run()
		return got
	}
	chained, strict := lat(false), lat(true)
	if strict <= chained {
		t.Errorf("strict advance (%d cycles) should be slower than chained (%d)", strict, chained)
	}
}

// TestScriptedFirstDirFallsBack: a FirstDir the relation does not offer
// is ignored rather than wedging the packet.
func TestScriptedFirstDirFallsBack(t *testing.T) {
	topo := mesh8()
	north := topology.Direction{Dim: 1, Pos: true}
	// Destination is due south; forcing north is not offered by a
	// minimal relation and must be ignored.
	res, err := Run(Config{
		Algorithm: routing.NewDimensionOrder(topo),
		Script: []ScriptedMessage{
			{Src: topo.ID(topology.Coord{4, 6}), Dst: topo.ID(topology.Coord{4, 1}), Length: 6, FirstDir: &north},
		},
		DeadlockThreshold: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PacketsDelivered != 1 || res.Deadlocked {
		t.Errorf("packet should be delivered ignoring the bogus FirstDir: %+v", res)
	}
}

// TestLocalFCFSInputSelection: when two headers compete for one output,
// the one whose header arrived first wins. Two packets are aimed at the
// same output channel with staggered injection.
func TestLocalFCFSInputSelection(t *testing.T) {
	topo := topology.NewMesh(3, 3)
	dst := topo.ID(topology.Coord{1, 2}) // both routes turn north at (1,1)
	a := topo.ID(topology.Coord{0, 1})   // arrives at mid travelling east
	b := topo.ID(topology.Coord{2, 1})   // arrives at mid travelling west
	// Packet A is injected first and must win the north channel; B waits
	// for A's 30-flit worm to pass.
	e, err := New(Config{
		Algorithm: routing.NewFullyAdaptive(topo),
		Script: []ScriptedMessage{
			{Cycle: 0, Src: a, Dst: dst, Length: 30},
			{Cycle: 1, Src: b, Dst: dst, Length: 30},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var order []topology.NodeID
	e.onDeliver = func(p *packet) { order = append(order, p.src) }
	res := e.run()
	if res.Deadlocked || len(order) != 2 {
		t.Fatalf("bad run: %+v", res)
	}
	if order[0] != a {
		t.Errorf("first-come-first-served violated: %v delivered first", order[0])
	}
}

// TestConfigValidation covers the error paths.
func TestConfigValidation(t *testing.T) {
	topo := mesh8()
	alg := routing.NewDimensionOrder(topo)
	pat := traffic.NewUniform(topo)
	bad := []Config{
		{},
		{Algorithm: alg},
		{Algorithm: alg, Pattern: pat},
		{Algorithm: alg, Pattern: pat, OfferedLoad: -1, WarmupCycles: 1, MeasureCycles: 1},
		{Algorithm: alg, Pattern: pat, OfferedLoad: 1},
		{Algorithm: alg, Pattern: pat, OfferedLoad: 1, WarmupCycles: 100, MeasureCycles: 100, Lengths: []int{0}},
		{Algorithm: alg, Pattern: pat, OfferedLoad: 1, WarmupCycles: 100, MeasureCycles: 100, Lengths: []int{5}, LengthWeights: []float64{1, 2}},
		{Algorithm: alg, Pattern: pat, OfferedLoad: 1, WarmupCycles: 100, MeasureCycles: 100, BufferDepth: -2},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("config %d should fail validation", i)
		}
	}
}

// TestMeanLength: the default bimodal 10/200 mix averages 105 flits.
func TestMeanLength(t *testing.T) {
	c := Config{}
	if got := c.MeanLength(); got != 105 {
		t.Errorf("default mean length = %v, want 105", got)
	}
	c = Config{Lengths: []int{8}, LengthWeights: []float64{1}}
	if got := c.MeanLength(); got != 8 {
		t.Errorf("single length mean = %v, want 8", got)
	}
	c = Config{Lengths: []int{10, 30}, LengthWeights: []float64{3, 1}}
	if got := c.MeanLength(); got != 15 {
		t.Errorf("weighted mean = %v, want 15", got)
	}
}

// TestPacketLengthDistribution: drawn lengths follow the configured
// weights.
func TestPacketLengthDistribution(t *testing.T) {
	topo := mesh8()
	e, err := New(Config{
		Algorithm: routing.NewDimensionOrder(topo), Pattern: traffic.NewUniform(topo),
		OfferedLoad: 1, WarmupCycles: 10, MeasureCycles: 10, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for i := 0; i < 10000; i++ {
		counts[e.drawLength()]++
	}
	if len(counts) != 2 || counts[10] == 0 || counts[200] == 0 {
		t.Fatalf("unexpected lengths: %v", counts)
	}
	ratio := float64(counts[10]) / float64(counts[10]+counts[200])
	if math.Abs(ratio-0.5) > 0.03 {
		t.Errorf("length split %.3f, want about 0.5", ratio)
	}
}

// TestEjectionBandwidth: a node can absorb at most 20 flits/us (one
// flit per cycle); two simultaneous senders to one destination halve
// each other's rate rather than violating the channel model.
func TestEjectionBandwidth(t *testing.T) {
	topo := topology.NewMesh(3, 3)
	dst := topo.ID(topology.Coord{1, 1})
	var script []ScriptedMessage
	for i := 0; i < 10; i++ {
		script = append(script,
			ScriptedMessage{Cycle: int64(i), Src: topo.ID(topology.Coord{0, 1}), Dst: dst, Length: 50},
			ScriptedMessage{Cycle: int64(i), Src: topo.ID(topology.Coord{2, 1}), Dst: dst, Length: 50},
		)
	}
	e, err := New(Config{Algorithm: routing.NewDimensionOrder(topo), Script: script})
	if err != nil {
		t.Fatal(err)
	}
	res := e.run()
	if res.Deadlocked || res.PacketsDelivered != 20 {
		t.Fatalf("bad run: %+v", res)
	}
	// 20 packets x 50 flits through one ejection channel needs at least
	// 1000 cycles.
	if res.Cycles < 1000 {
		t.Errorf("run finished in %d cycles; ejection channel must carry at most 1 flit/cycle", res.Cycles)
	}
}

// TestHypercubeSimulation: the 8-cube with e-cube routing delivers
// sensibly under uniform traffic.
func TestHypercubeSimulation(t *testing.T) {
	topo := topology.NewHypercube(8)
	res, err := Run(Config{
		Algorithm: routing.NewDimensionOrder(topo), Pattern: traffic.NewUniform(topo),
		OfferedLoad: 1, WarmupCycles: 1000, MeasureCycles: 4000, Seed: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PacketsDelivered == 0 || res.Deadlocked {
		t.Fatalf("bad run: %+v", res)
	}
	if math.Abs(res.AvgHops-4.0) > 0.3 {
		t.Errorf("uniform 8-cube average hops %.2f, want about 4.0", res.AvgHops)
	}
}

// TestStopEndsRunEarly: Config.Stop is the cooperative cancellation
// hook; a run whose Stop fires must end promptly with Result.Stopped.
func TestStopEndsRunEarly(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	var polls atomic.Int64
	r, err := Run(Config{
		Algorithm:     routing.NewWestFirst(topo),
		Pattern:       traffic.NewUniform(topo),
		OfferedLoad:   1.0,
		WarmupCycles:  1 << 30, // would run forever without Stop
		MeasureCycles: 1,
		Seed:          3,
		Stop:          func() bool { return polls.Add(1) > 4 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Stopped {
		t.Fatal("run completed without Stopped despite Stop firing")
	}
	if r.Cycles > 64*1024 {
		t.Fatalf("stopped run still simulated %d cycles", r.Cycles)
	}
}
