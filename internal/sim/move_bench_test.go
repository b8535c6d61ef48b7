package sim

import (
	"testing"

	"turnmodel/internal/routing"
	"turnmodel/internal/topology"
	"turnmodel/internal/traffic"
)

// Per-class move-phase micro-benchmarks. Each benchmark isolates the
// move phase of a warmed-up steady-state engine: the generation and
// allocation phases (and the link-usage resets between them) run with
// the timer stopped, so ns/op measures exactly one move phase per
// switching class, where whole-run benches blend it with the allocation
// phase and statistics.
func benchMovePhase(b *testing.B, mk func() Config) {
	cfg := mk()
	// Never start measuring: the latency histogram may grow, and this
	// bench wants the pure steady-state move cost.
	cfg.WarmupCycles = 1 << 30
	cfg.MeasureCycles = 1
	e, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		e.step()
		e.cycle++
	}
	if e.inFlight == 0 {
		b.Fatal("no traffic in flight after warmup; benchmark would be vacuous")
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		// Pre-move phases of a real cycle, untimed (mirrors step).
		e.generate()
		e.allocate()
		for _, idx := range e.dirtyLinks {
			e.linkUsed[idx] = false
		}
		e.dirtyLinks = e.dirtyLinks[:0]
		for _, idx := range e.dirtyInj {
			e.injUsed[idx] = false
		}
		e.dirtyInj = e.dirtyInj[:0]
		b.StartTimer()
		e.move()
		b.StopTimer()
		e.cycle++
	}
}

// BenchmarkMoveWormhole: the baseline single-VC wormhole class.
func BenchmarkMoveWormhole(b *testing.B) {
	benchMovePhase(b, func() Config {
		topo := topology.NewMesh(8, 8)
		return Config{
			Algorithm:   routing.NewNegativeFirst(topo),
			Pattern:     traffic.NewUniform(topo),
			OfferedLoad: 2.0,
			Seed:        3,
		}
	})
}

// BenchmarkMoveMultiVC: dateline virtual channels on a torus, seeded
// through the cycle-rotated virtual-channel order.
func BenchmarkMoveMultiVC(b *testing.B) {
	benchMovePhase(b, func() Config {
		topo := topology.NewTorus(8, 2)
		return Config{
			VCAlgorithm: routing.NewDatelineDOR(topo),
			Pattern:     traffic.NewUniform(topo),
			OfferedLoad: 2.0,
			Seed:        3,
		}
	})
}

// BenchmarkMoveStrictSAF: store-and-forward with strict advance, which
// snapshots buffer lengths at the top of the move phase.
func BenchmarkMoveStrictSAF(b *testing.B) {
	benchMovePhase(b, func() Config {
		topo := topology.NewMesh(8, 8)
		return Config{
			Algorithm:     routing.NewNegativeFirst(topo),
			Pattern:       traffic.NewUniform(topo),
			OfferedLoad:   2.0,
			Switching:     StoreAndForward,
			StrictAdvance: true,
			Lengths:       []int{6, 12},
			Seed:          3,
		}
	})
}

// BenchmarkMoveChainedSAF: chained store-and-forward, whose same-cycle
// cascades form cross-router dependency chains.
func BenchmarkMoveChainedSAF(b *testing.B) {
	benchMovePhase(b, func() Config {
		topo := topology.NewMesh(8, 8)
		return Config{
			Algorithm:   routing.NewNegativeFirst(topo),
			Pattern:     traffic.NewUniform(topo),
			OfferedLoad: 2.0,
			Switching:   StoreAndForward,
			Lengths:     []int{6, 12},
			Seed:        3,
		}
	})
}
