package explore

import (
	"testing"

	"turnmodel/internal/core"
	"turnmodel/internal/routing"
	"turnmodel/internal/sim"
	"turnmodel/internal/topology"
	"turnmodel/internal/traffic"
)

// flood runs alg under uniform traffic at 15 flits/us/node, above the
// 6x6 mesh's bisection bound of about 13, with deadlock recovery off
// and a deadlock threshold well inside the run, so a network that locks
// up is declared deadlocked before the run ends.
func flood(t *testing.T, topo *topology.Topology, alg routing.Algorithm) sim.Result {
	t.Helper()
	res, err := sim.Run(sim.Config{
		Algorithm:         alg,
		Pattern:           traffic.NewUniform(topo),
		OfferedLoad:       15,
		WarmupCycles:      1000,
		MeasureCycles:     4000,
		DeadlockThreshold: 500,
		Seed:              1,
		CheckInvariants:   true,
	})
	if err != nil {
		t.Fatalf("%s: %v", alg.Name(), err)
	}
	return res
}

// TestAcyclicClassesNeverDeadlock is the acyclic half of the static
// versus dynamic deadlock cross-check, in the spirit of Verbeek and
// Schmaltz's verified deadlock detection (arXiv 1110.4677): every
// symmetry class the static CDG screening calls deadlock free, and whose
// nonminimal turn-graph relation routes every pair of a 6x6 mesh, is
// flooded far past saturation with recovery off. The simulator's
// deadlock detector must never fire, and every generated packet must be
// delivered or still in flight. A cyclic control class (fully adaptive)
// under the same flood must deadlock, so the check cannot pass
// vacuously.
func TestAcyclicClassesNeverDeadlock(t *testing.T) {
	topo := topology.NewMesh(6, 6)
	s := Screen(topo)
	flooded := 0
	for _, c := range s.Classes {
		if !c.DeadlockFree {
			continue
		}
		alg := routing.NewTurnGraphRouting(topo, core.SetFromKey2D(c.Canon), false)
		if !connected(alg) {
			continue
		}
		flooded++
		res := flood(t, topo, alg)
		if res.Deadlocked {
			t.Errorf("class %#02x (%s): statically acyclic but deadlocked at cycle %d", c.Canon, alg.Name(), res.DeadlockCycle)
		}
		if got := res.PacketsDeliveredTotal + res.PacketsDropped + res.PacketsInFlight; got != res.PacketsGeneratedTotal {
			t.Errorf("class %#02x: delivered %d + dropped %d + in flight %d != generated %d", c.Canon,
				res.PacketsDeliveredTotal, res.PacketsDropped, res.PacketsInFlight, res.PacketsGeneratedTotal)
		}
		if res.InvariantViolation != "" {
			t.Errorf("class %#02x: invariant violation: %s", c.Canon, res.InvariantViolation)
		}
		if res.PacketsDeliveredTotal == 0 || res.Sustainable {
			t.Errorf("class %#02x: want a saturated network that still delivers, got %v", c.Canon, res)
		}
	}
	if flooded < len(s.Survivors()) {
		t.Fatalf("flooded %d classes, fewer than the %d minimal-relation survivors", flooded, len(s.Survivors()))
	}
	t.Logf("%d acyclic, nonminimally connected classes flooded without deadlock", flooded)

	control := routing.NewTurnGraphRouting(topo, core.FullyAdaptiveSet(2), false)
	if res := flood(t, topo, control); !res.Deadlocked {
		t.Errorf("control %s did not deadlock under the same flood", control.Name())
	}
}
