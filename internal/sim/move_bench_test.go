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
	benchMovePhaseAfter(b, 2000, mk)
}

// benchMovePhaseAfter is benchMovePhase with warmup cycles before the
// timed phases, and returns the warmed engine.
func benchMovePhaseAfter(b *testing.B, warmup int, mk func() Config) *Engine {
	cfg := mk()
	// Never start measuring: the latency histogram may grow, and this
	// bench wants the pure steady-state move cost.
	cfg.WarmupCycles = 1 << 30
	cfg.MeasureCycles = 1
	e, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < warmup; i++ {
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
	return e
}

// BenchmarkMoveWormhole: the baseline single-VC wormhole class, on the
// worm-train path and, with a no-op observer attached, on the per-flit
// path.
func BenchmarkMoveWormhole(b *testing.B) {
	benchMovePaths(b, 2000, func() Config {
		topo := topology.NewMesh(8, 8)
		return Config{
			Algorithm:   routing.NewNegativeFirst(topo),
			Pattern:     traffic.NewUniform(topo),
			OfferedLoad: 2.0,
			Seed:        3,
		}
	}, nil)
}

// benchMovePaths runs benchMovePhaseAfter as a /train sub-benchmark and
// a /per-flit one, which attaches a no-op observer to select the
// per-flit move path. check, if non-nil, inspects each warmed engine.
func benchMovePaths(b *testing.B, warmup int, mk func() Config, check func(*testing.B, *Engine)) {
	for _, path := range []struct {
		name string
		obs  Observer
	}{{"train", nil}, {"per-flit", ObserverFuncs{}}} {
		b.Run(path.name, func(b *testing.B) {
			e := benchMovePhaseAfter(b, warmup, func() Config {
				cfg := mk()
				cfg.Observer = path.obs
				return cfg
			})
			if e.trains != (path.obs == nil) {
				b.Fatalf("trains = %v on the %s path", e.trains, path.name)
			}
			if check != nil {
				check(b, e)
			}
		})
	}
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

// BenchmarkMoveSaturated: the benchmark's mesh32 configuration (32x32
// negative-first, matrix transpose, 1.5 flits/us/node), warmed past
// saturation, on both move paths. Almost every flowing input waits on a
// full downstream buffer here, where the 8x8 benches above see little
// blocking; this is the case stalled-input tracking exists for, and
// where most flit moves carry a body flit from one full buffer into the
// next.
func BenchmarkMoveSaturated(b *testing.B) {
	benchMovePaths(b, 3000, func() Config {
		topo := topology.NewMesh(32, 32)
		return Config{
			Algorithm:   routing.NewNegativeFirst(topo),
			Pattern:     traffic.NewMeshTranspose(topo),
			OfferedLoad: 1.5,
			Seed:        1,
		}
	}, func(b *testing.B, e *Engine) {
		if share := fullDownstreamShare(e); share < 0.5 {
			b.Fatalf("only %.0f%% of flowing inputs wait on a full buffer; not saturated", 100*share)
		}
	})
}

// fullDownstreamShare returns the fraction of flowing inputs whose
// downstream buffer is full, from buffer state alone.
func fullDownstreamShare(e *Engine) float64 {
	flowing, full := 0, 0
	for in := range e.inbufs {
		b := &e.inbufs[in]
		if b.allocOut < 0 || len(b.q) == 0 {
			continue
		}
		flowing++
		if dest := e.outDest[b.allocOut]; dest >= 0 && len(e.inbufs[dest].q) >= e.depth {
			full++
		}
	}
	if flowing == 0 {
		return 0
	}
	return float64(full) / float64(flowing)
}
