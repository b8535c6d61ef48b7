package exp

import (
	"testing"

	"turnmodel/internal/routing"
	"turnmodel/internal/sim"
)

// TestFigureRunAllocCeiling is the allocation regression gate: one
// quick Figure 13 point — west-first at load 1.25 for 2000 + 6000
// cycles, on the figure's shared topology and interned relation, as a
// figure sweep runs it. AllocsPerRun's warm-up run absorbs the route
// table compile, so the count is one whole simulation with the table
// already built: about 320 allocations with the compiled table and the
// packet arena. The ceiling of 1000 fails any change that reintroduces
// per-header or per-message allocation (the seed engine measured about
// 18000).
func TestFigureRunAllocCeiling(t *testing.T) {
	const ceiling = 1000
	f, ok := FigureByID("fig13")
	if !ok {
		t.Fatal("fig13 spec missing")
	}
	topo := SharedTopology(f.Topology)
	var alg routing.Algorithm
	for _, a := range SharedAlgorithms(topo, f.Algs(topo)) {
		if a.Name() == "west-first" {
			alg = a
		}
	}
	if alg == nil {
		t.Fatal("fig13 has no west-first line")
	}
	cfg := sim.Config{
		Algorithm:     alg,
		Pattern:       f.Pattern(topo),
		OfferedLoad:   1.25,
		WarmupCycles:  2000,
		MeasureCycles: 6000,
		Seed:          1,
	}
	var err error
	allocs := testing.AllocsPerRun(2, func() {
		if _, e := sim.Run(cfg); e != nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%.0f allocs per simulation", allocs)
	if allocs > ceiling {
		t.Errorf("a quick fig13 west-first simulation allocates %.0f times, over the ceiling of %d", allocs, ceiling)
	}
}
