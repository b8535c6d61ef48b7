package sim

import (
	"testing"

	"turnmodel/internal/core"
	"turnmodel/internal/metrics"
	"turnmodel/internal/routing"
	"turnmodel/internal/topology"
	"turnmodel/internal/traffic"
)

// TestAllocateZeroAllocs: the allocation phase must perform zero heap
// allocations per cycle in steady state — candidate caches, the waiting
// buffer and the filter scratch are all engine-owned and reused. The
// worklist is forced full each run so the measurement covers the
// worst-case full scan, not just the event-driven fast path. The
// invariant holds both without metrics (the production hot path pays
// only nil checks) and with a collector attached (counters are
// preallocated slices, incremented in place).
func TestAllocateZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		m      *metrics.Collector
		shards int
	}{
		{"metrics-disabled", nil, 0},
		{"metrics-enabled", metrics.New(metrics.Config{Interval: 100}), 0},
		// The sharded phase must stay allocation-free too: per-shard
		// scratch and commit logs are reused, and the worker pool is
		// persistent (no goroutine spawns per cycle).
		{"metrics-enabled-sharded", metrics.New(metrics.Config{Interval: 100}), 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			topo := topology.NewMesh(8, 8)
			e, err := New(Config{
				Algorithm:     routing.NewNegativeFirst(topo),
				Pattern:       traffic.NewUniform(topo),
				OfferedLoad:   2.0,
				WarmupCycles:  1 << 30, // never start measuring: histograms may allocate
				MeasureCycles: 1,
				Seed:          3,
				Metrics:       tc.m,
				Shards:        tc.shards,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			for i := 0; i < 2000; i++ {
				e.step()
				e.cycle++
			}
			if e.inFlight == 0 {
				t.Fatal("no traffic in flight after warmup; test would be vacuous")
			}
			avg := testing.AllocsPerRun(200, func() {
				e.allocWork.setAll(e.topo.Nodes())
				e.allocate()
			})
			if avg != 0 {
				t.Errorf("allocate() performs %.2f heap allocations per cycle, want 0", avg)
			}
		})
	}
}

// TestWholeRunZeroAllocs extends the per-phase guard to entire cycles:
// once warmed up, full simulation steps — generation, allocation,
// movement, delivery, statistics — run allocation-free in steady state.
// Packet recycling, the source-queue rings, the compiled route table
// and the precomputed length table remove the per-message and
// per-header allocations; what remains is rare amortized growth (a new
// latency-histogram bucket, a metrics time-series append, a freelist
// refill after a new in-flight high-water mark), so the guard allows a
// small epsilon per batch instead of demanding exactly zero.
func TestWholeRunZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		m      *metrics.Collector
		shards int
		multVC bool
		turns  bool
	}{
		{"metrics-disabled", nil, 0, false, false},
		{"metrics-enabled", metrics.New(metrics.Config{Interval: 100}), 0, false, false},
		// Sharded steady state must hold the same bound: the worker pool
		// parks between cycles instead of respawning, and the deferred
		// commit logs grow to their high-water mark then stop.
		{"metrics-enabled-sharded", metrics.New(metrics.Config{Interval: 100}), 3, false, false},
		// Multi-VC sharded: the conflict-partitioned move's union-find,
		// seed order, component assignment and op logs are all persistent
		// scratch reset via dirty lists — steady state must not allocate.
		{"multi-vc-sharded", nil, 3, true, false},
		// Turn-graph routing depends on the arrival port, so it never
		// compiles: every routed header takes the direct-evaluation
		// fallback, which must reuse the shard's scratch too.
		{"turn-graph-direct", nil, 0, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				OfferedLoad:   2.0,
				WarmupCycles:  1,
				MeasureCycles: 1 << 30,
				Seed:          3,
				Metrics:       tc.m,
				Shards:        tc.shards,
			}
			switch {
			case tc.multVC:
				topo := topology.NewTorus(8, 2)
				cfg.VCAlgorithm = routing.NewDatelineDOR(topo)
				cfg.Pattern = traffic.NewUniform(topo)
			case tc.turns:
				topo := topology.NewMesh(8, 8)
				cfg.Algorithm = routing.NewTurnGraphRouting(topo, core.WestFirstSet(), true)
				cfg.Pattern = traffic.NewUniform(topo)
			default:
				topo := topology.NewMesh(8, 8)
				cfg.Algorithm = routing.NewNegativeFirst(topo)
				cfg.Pattern = traffic.NewUniform(topo)
			}
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			// Mirror the run loop's measurement-window switch, then warm
			// until the histogram buckets, ring high-water marks and
			// freelist cover the steady state.
			e.stats.measuring = true
			e.stats.windowStart = e.cycle
			e.stats.backlogStartFlits = e.backlogFlits()
			e.stats.backlogStartValid = true
			warmup := 3000
			if tc.turns {
				// Direct evaluation warms slower: each destination's
				// reachability map and each buffer's candidate storage
				// appear on first use.
				warmup = 20000
				if e.table != nil {
					t.Fatal("turn-graph relation compiled; the case would not cover direct evaluation")
				}
			}
			for i := 0; i < warmup; i++ {
				e.step()
				e.cycle++
			}
			if e.inFlight == 0 {
				t.Fatal("no traffic in flight after warmup; test would be vacuous")
			}
			const batch = 50
			avg := testing.AllocsPerRun(20, func() {
				for i := 0; i < batch; i++ {
					e.step()
					e.cycle++
				}
			})
			// The pre-arena engine allocated on every generated message
			// and routed header — thousands per batch at this load;
			// steady state now costs at most a couple of amortized
			// growth events.
			if avg > 2 {
				t.Errorf("warmed-up run performs %.2f heap allocations per %d-cycle batch, want <= 2", avg, batch)
			}
		})
	}
}

// fanVC widens a single-VC relation to vcs virtual channels per
// direction, enough to push an 8-cube past 64 virtual ports per router.
type fanVC struct {
	routing.Algorithm
	vcs int
}

func (f fanVC) NumVCs() int { return f.vcs }

func (f fanVC) CandidatesVC(cur, dst topology.NodeID, in routing.VCInPort, buf []routing.VirtualDirection) []routing.VirtualDirection {
	var ip routing.InPort
	if in.Injected {
		ip = routing.Injected
	} else {
		ip = routing.Arrived(in.Dir)
	}
	var tmp [16]topology.Direction
	for _, d := range f.Algorithm.Candidates(cur, dst, ip, tmp[:0]) {
		for vc := 0; vc < f.vcs; vc++ {
			buf = append(buf, routing.VirtualDirection{Dir: d, VC: vc})
		}
	}
	return buf
}

// TestManyVirtualPorts: an 8-cube with 4 virtual channels has
// 2·8·4+1 = 65 virtual ports per router, which overflowed the engine's
// old fixed-size 64-entry waiting buffer (the engine refused such
// configurations). The waiting set is now sized from vport.
func TestManyVirtualPorts(t *testing.T) {
	topo := topology.NewHypercube(8)
	res, err := Run(Config{
		VCAlgorithm: fanVC{routing.NewDimensionOrder(topo), 4},
		Script: []ScriptedMessage{
			{Cycle: 0, Src: 0, Dst: 255, Length: 20},
			{Cycle: 0, Src: 255, Dst: 0, Length: 20},
			{Cycle: 5, Src: 3, Dst: 252, Length: 20},
		},
	})
	if err != nil {
		t.Fatalf("New rejected a 65-virtual-port configuration: %v", err)
	}
	if res.Deadlocked || res.PacketsDelivered != 3 {
		t.Errorf("bad 65-port run: %+v", res)
	}
}
