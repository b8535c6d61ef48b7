package sim

import (
	"testing"

	"turnmodel/internal/routing"
	"turnmodel/internal/topology"
	"turnmodel/internal/traffic"
)

// Per-class move-phase micro-benchmarks. Each BenchmarkMove* isolates
// the move phase of a warmed-up steady-state engine: the generation and
// allocation phases (and the link-usage resets between them) run with
// the timer stopped, so ns/op measures exactly one move phase per
// switching class, where whole-run benches blend it with the allocation
// phase and statistics. BenchmarkStep times whole cycles instead.
func benchMovePhase(b *testing.B, mk func() Config) {
	benchMovePhaseAfter(b, 2000, mk)
}

// warmEngine builds mk's engine and runs warmup cycles. The measurement
// window never opens: the latency histogram may grow, and the benches
// want the pure steady-state cost.
func warmEngine(b *testing.B, warmup int, mk func() Config) *Engine {
	cfg := mk()
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
	return e
}

// benchMovePhaseAfter is benchMovePhase with warmup cycles before the
// timed phases, and returns the warmed engine.
func benchMovePhaseAfter(b *testing.B, warmup int, mk func() Config) *Engine {
	e := warmEngine(b, warmup, mk)
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

// benchStepAfter times whole cycles, e.step(), of an engine warmed for
// warmup cycles, and returns the engine.
func benchStepAfter(b *testing.B, warmup int, mk func() Config) *Engine {
	e := warmEngine(b, warmup, mk)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.step()
		e.cycle++
	}
	return e
}

// BenchmarkMoveWormhole: the baseline single-VC wormhole class, on the
// worm-train path and, with a no-op observer attached, on the per-flit
// path.
func BenchmarkMoveWormhole(b *testing.B) {
	benchPaths(b, benchMovePhaseAfter, 2000, func() Config {
		topo := topology.NewMesh(8, 8)
		return Config{
			Algorithm:   routing.NewNegativeFirst(topo),
			Pattern:     traffic.NewUniform(topo),
			OfferedLoad: 2.0,
			Seed:        3,
		}
	}, nil)
}

// benchPaths runs bench (benchMovePhaseAfter or benchStepAfter) as a
// /train sub-benchmark and a /per-flit one, which attaches a no-op
// observer to select the per-flit move path. check, if non-nil,
// inspects each warmed engine.
func benchPaths(b *testing.B, bench func(*testing.B, int, func() Config) *Engine,
	warmup int, mk func() Config, check func(*testing.B, *Engine)) {
	for _, path := range []struct {
		name string
		obs  Observer
	}{{"train", nil}, {"per-flit", ObserverFuncs{}}} {
		b.Run(path.name, func(b *testing.B) {
			e := bench(b, warmup, func() Config {
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
	benchPaths(b, benchMovePhaseAfter, 3000, mesh32Config, func(b *testing.B, e *Engine) {
		if share := fullDownstreamShare(e); share < 0.5 {
			b.Fatalf("only %.0f%% of flowing inputs wait on a full buffer; not saturated", 100*share)
		}
	})
}

// mesh32Config is the benchmark's mesh32 configuration: 32x32
// negative-first, matrix transpose, 1.5 flits/us/node.
func mesh32Config() Config {
	topo := topology.NewMesh(32, 32)
	return Config{
		Algorithm:   routing.NewNegativeFirst(topo),
		Pattern:     traffic.NewMeshTranspose(topo),
		OfferedLoad: 1.5,
		Seed:        1,
	}
}

// BenchmarkStep times whole cycles: fault and recovery checks,
// generation, allocation, the link resets and the move phase, where the
// BenchmarkMove* cases time the move phase alone. Cases: the mesh32
// configuration, fig14's 16x16 west-first transpose at 1.5 on both move
// paths, and a light 16x16 xy uniform load of 0.5, where the source side
// weighs most.
func BenchmarkStep(b *testing.B) {
	b.Run("mesh32", func(b *testing.B) { benchStepAfter(b, 3000, mesh32Config) })
	b.Run("west-first-transpose-1.5", func(b *testing.B) {
		benchPaths(b, benchStepAfter, 2000, func() Config {
			topo := topology.NewMesh(16, 16)
			return Config{
				Algorithm:   routing.NewWestFirst(topo),
				Pattern:     traffic.NewMeshTranspose(topo),
				OfferedLoad: 1.5,
				Seed:        1,
			}
		}, nil)
	})
	b.Run("xy-uniform-0.5", func(b *testing.B) {
		benchStepAfter(b, 2000, func() Config {
			topo := topology.NewMesh(16, 16)
			return Config{
				Algorithm:   routing.NewDimensionOrder(topo),
				Pattern:     traffic.NewUniform(topo),
				OfferedLoad: 0.5,
				Seed:        1,
			}
		})
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
