package sim

import (
	"testing"

	"turnmodel/internal/routing"
	"turnmodel/internal/topology"
	"turnmodel/internal/traffic"
)

// deliveryEvent is one delivered packet as the Observer sees it; equal
// streams mean the two runs delivered the same packets at the same
// cycles along paths of the same length.
type deliveryEvent struct {
	cycle    int64
	src, dst topology.NodeID
	lat      int64
	hops     int
}

func recordDeliveries(dst *[]deliveryEvent) Observer {
	return ObserverFuncs{DeliverFn: func(cycle int64, src, dst2 topology.NodeID, lat int64, hops int) {
		*dst = append(*dst, deliveryEvent{cycle, src, dst2, lat, hops})
	}}
}

// newAB builds the engine for one side of an A/B run. The direct side
// drops the compiled route table New fetched: allocate only refreshes
// a non-nil table, so every header then evaluates the relation
// directly, exactly as for a relation that does not compile.
func newAB(t *testing.T, cfg Config, direct bool) *Engine {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if direct {
		e.table = nil
	}
	return e
}

// runAB runs the same configuration with compiled route tables and with
// direct evaluation and asserts bit-identical Results and delivery
// event streams.
func runAB(t *testing.T, mk func() Config) {
	t.Helper()
	var events [2][]deliveryEvent
	var results [2]Result
	for i, direct := range []bool{false, true} {
		cfg := mk()
		cfg.Observer = recordDeliveries(&events[i])
		results[i] = newAB(t, cfg, direct).run()
	}
	if results[0] != results[1] {
		t.Errorf("results differ:\n tables: %+v\n direct: %+v", results[0], results[1])
	}
	if len(events[0]) != len(events[1]) {
		t.Fatalf("delivery counts differ: tables %d, direct %d", len(events[0]), len(events[1]))
	}
	for i := range events[0] {
		if events[0][i] != events[1][i] {
			t.Fatalf("delivery %d differs: tables %+v, direct %+v", i, events[0][i], events[1][i])
		}
	}
}

// TestTableABDeterminism: compiled route tables are an optimization,
// not a behavior change — every configuration class the engine
// distinguishes (stochastic single-VC, random policy with misrouting,
// multi-VC dateline torus routing, scripted first-hop restrictions)
// and Figure 13's quick sweep produce bit-identical results with
// tables and with direct evaluation.
func TestTableABDeterminism(t *testing.T) {
	t.Run("stochastic-mesh", func(t *testing.T) {
		runAB(t, func() Config {
			topo := topology.NewMesh(8, 8)
			return Config{
				Algorithm:     routing.NewWestFirst(topo),
				Pattern:       traffic.NewUniform(topo),
				OfferedLoad:   3.0,
				WarmupCycles:  500,
				MeasureCycles: 1500,
				Seed:          11,
			}
		})
	})
	// RandomPolicy draws from the shared RNG per routed header and
	// MisrouteAfter reads the candidates' profitability bits, so this
	// covers RNG-stream identity and the Prof field.
	t.Run("random-policy-misroute", func(t *testing.T) {
		runAB(t, func() Config {
			topo := topology.NewMesh(6, 6)
			return Config{
				Algorithm:     routing.NewFullyAdaptive(topo),
				Pattern:       traffic.NewMeshTranspose(topo),
				OfferedLoad:   4.0,
				Policy:        RandomPolicy,
				MisrouteAfter: 3,
				WarmupCycles:  500,
				MeasureCycles: 1500,
				Seed:          5,
			}
		})
	})
	t.Run("dateline-torus-vc", func(t *testing.T) {
		runAB(t, func() Config {
			topo := topology.NewTorus(6, 2)
			return Config{
				VCAlgorithm:   routing.NewDatelineDOR(topo),
				Pattern:       traffic.NewUniform(topo),
				OfferedLoad:   3.0,
				WarmupCycles:  500,
				MeasureCycles: 1500,
				Seed:          9,
			}
		})
	})
	// FirstDir headers bypass the table at injection (the restriction is
	// per-packet, not per-pair), then use it downstream.
	t.Run("scripted-first-dir", func(t *testing.T) {
		east := topology.Direction{Dim: 0, Pos: true}
		north := topology.Direction{Dim: 1, Pos: true}
		runAB(t, func() Config {
			topo := topology.NewMesh(5, 5)
			return Config{
				Algorithm: routing.NewFullyAdaptive(topo),
				Script: []ScriptedMessage{
					{Cycle: 0, Src: topo.ID(topology.Coord{0, 0}), Dst: topo.ID(topology.Coord{4, 4}), Length: 12, FirstDir: &north},
					{Cycle: 0, Src: topo.ID(topology.Coord{0, 4}), Dst: topo.ID(topology.Coord{4, 0}), Length: 12, FirstDir: &east},
					{Cycle: 3, Src: topo.ID(topology.Coord{2, 2}), Dst: topo.ID(topology.Coord{0, 0}), Length: 20},
				},
			}
		})
	})
	// Figure 13's quick sweep as internal/exp runs it: the 16x16 mesh
	// under uniform traffic, its four relations, the quick load points,
	// seed 7 offset per load, 1000 + 3000 cycles. Like a sweep it runs
	// without an Observer, so both sides take the worm-train move path
	// the figures use; the cases above, observed, take the per-flit one.
	t.Run("fig13-quick", func(t *testing.T) {
		topo := topology.NewMesh(16, 16)
		pat := traffic.NewUniform(topo)
		for _, alg := range []routing.Algorithm{
			routing.NewDimensionOrder(topo),
			routing.NewWestFirst(topo),
			routing.NewNorthLast(topo),
			routing.NewNegativeFirst(topo),
		} {
			for _, load := range []float64{0.25, 1.0, 1.75, 2.5, 3.0} {
				cfg := Config{
					Algorithm:     alg,
					Pattern:       pat,
					OfferedLoad:   load,
					WarmupCycles:  1000,
					MeasureCycles: 3000,
					Seed:          7 + int64(load*1000),
				}
				if tab, dir := newAB(t, cfg, false).run(), newAB(t, cfg, true).run(); tab != dir {
					t.Errorf("%s at load %v: results differ:\n tables: %+v\n direct: %+v", alg.Name(), load, tab, dir)
				}
			}
		}
	})
}

// TestTableABDeterminismUnderFault: a channel failure mid-run triggers
// the fault-epoch invalidation (recompile on the table path, candidate
// cache flush on both), and the two paths must still agree cycle for
// cycle.
func TestTableABDeterminismUnderFault(t *testing.T) {
	const (
		cycles     = 2000
		faultCycle = 300
	)
	var events [2][]deliveryEvent
	var delivered [2]int64
	for i, direct := range []bool{false, true} {
		topo := topology.NewMesh(8, 8)
		broken := topology.Channel{From: topo.ID(topology.Coord{4, 4}), Dir: topology.Direction{Dim: 1, Pos: true}}
		e := newAB(t, Config{
			Algorithm:     routing.NewNegativeFirst(topo),
			Pattern:       traffic.NewUniform(topo),
			OfferedLoad:   2.0,
			WarmupCycles:  1 << 30,
			MeasureCycles: 1,
			Seed:          17,
			Observer:      recordDeliveries(&events[i]),
		}, direct)
		for e.cycle < cycles {
			if e.cycle == faultCycle {
				topo.DisableChannel(broken)
			}
			e.step()
			e.cycle++
		}
		delivered[i] = e.stats.totalDeliveredEver
		topo.EnableChannel(broken)
	}
	if delivered[0] == 0 {
		t.Fatal("no deliveries; test would be vacuous")
	}
	if delivered[0] != delivered[1] {
		t.Fatalf("delivered counts differ: tables %d, direct %d", delivered[0], delivered[1])
	}
	if len(events[0]) != len(events[1]) {
		t.Fatalf("delivery streams differ in length: %d vs %d", len(events[0]), len(events[1]))
	}
	for i := range events[0] {
		if events[0][i] != events[1][i] {
			t.Fatalf("delivery %d differs: tables %+v, direct %+v", i, events[0][i], events[1][i])
		}
	}
}

// noted is a user relation held by value with a slice field: it cannot
// key the route-table cache, though AsVC's wrapper around it is a
// comparable type.
type noted struct {
	routing.Algorithm
	notes []string
}

// TestUncomparableRelation: such a relation runs on direct evaluation
// and gives the same Result as the plain relation's table run.
func TestUncomparableRelation(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	run := func(alg routing.Algorithm) Result {
		res, err := Run(Config{
			Algorithm:     alg,
			Pattern:       traffic.NewUniform(topo),
			OfferedLoad:   2.0,
			WarmupCycles:  500,
			MeasureCycles: 1500,
			Seed:          3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := routing.NewWestFirst(topo)
	want := run(plain)
	if got := run(noted{plain, []string{"held by value"}}); got != want {
		t.Errorf("results differ:\n plain:   %+v\n wrapped: %+v", want, got)
	}
}
