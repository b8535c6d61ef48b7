package sim

import (
	"math"
	"strings"
	"testing"

	"turnmodel/internal/routing"
	"turnmodel/internal/topology"
	"turnmodel/internal/traffic"
)

// TestCheckInvariantsCatchesBrokenSourceSide: on a warmed engine with
// 4-flit buffers, where a source can hold queued packets and a buffer
// with space at a cycle boundary, each corruption of the generation
// heap or the injectable set is reported, and undoing it restores a
// clean check.
func TestCheckInvariantsCatchesBrokenSourceSide(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	e, err := New(Config{
		Algorithm:     routing.NewNegativeFirst(topo),
		Pattern:       traffic.NewMeshTranspose(topo),
		OfferedLoad:   2.5,
		BufferDepth:   4,
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
	expect := func(what, want string, corrupt, undo func()) {
		t.Helper()
		corrupt()
		if err := e.CheckInvariants(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: got %v, want an error containing %q", what, err, want)
		}
		undo()
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("%s undone: %v", what, err)
		}
	}
	h := e.genHeap
	expect("entry keyed a cycle late", "due at cycle", func() { h[3].due++ }, func() { h[3].due-- })
	expect("root swapped with its child", "precedes its parent",
		func() { h[0], h[1] = h[1], h[0] }, func() { h[0], h[1] = h[1], h[0] })
	v, gen := h[0].v, e.nextGen[h[0].v]
	expect("a due node generate skipped", "but generate ran", func() {
		e.nextGen[v], h[0].due = float64(e.lastGen), e.lastGen
	}, func() {
		e.nextGen[v], h[0].due = gen, dueCycle(gen)
	})
	saved := h[1]
	expect("a node scheduled twice", "repeated", func() { h[1] = h[2] }, func() { h[1] = saved })

	src := int32(-1)
	for u := range e.queues {
		if e.queues[u].len() > 0 && len(e.inbufs[e.injectionIn(topology.NodeID(u))].q) < e.depth {
			src = int32(u)
			break
		}
	}
	if src < 0 {
		t.Fatal("warmup left no source with queued packets and buffer space; the test would be vacuous")
	}
	expect("injectable bit cleared", "not injectable",
		func() { e.injectable.clear(src) }, func() { e.injectable.set(src) })
}

// TestGenerateAtVanishingLoad: a generation gap too large for an int64
// cycle, including the +Inf of a generation rate that underflowed to
// zero, is never due. The run generates nothing and stops on time.
func TestGenerateAtVanishingLoad(t *testing.T) {
	for _, load := range []float64{1e-300, math.SmallestNonzeroFloat64} {
		topo := topology.NewMesh(8, 8)
		res, err := Run(Config{
			Algorithm:       routing.NewNegativeFirst(topo),
			Pattern:         traffic.NewUniform(topo),
			OfferedLoad:     load,
			WarmupCycles:    1000,
			MeasureCycles:   3000,
			Seed:            1,
			CheckInvariants: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.PacketsGeneratedTotal != 0 || res.Cycles != 4000 || res.InvariantViolation != "" {
			t.Errorf("load %g: %d packets generated in %d cycles, invariant violation %q; want 0 in 4000, none",
				load, res.PacketsGeneratedTotal, res.Cycles, res.InvariantViolation)
		}
	}
}
