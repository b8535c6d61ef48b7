package sim

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"testing"

	"turnmodel/internal/core"
	"turnmodel/internal/fault"
	"turnmodel/internal/routing"
	"turnmodel/internal/topology"
	"turnmodel/internal/traffic"
)

// eventHasher folds the ordered Observer (and RecoveryObserver) event
// stream into one FNV-64a digest. Every event contributes a kind byte
// and all of its arguments, so two runs hash equal only if they emit
// the same events with the same arguments in the same order.
type eventHasher struct {
	h      hash.Hash64
	buf    []byte
	counts [numEventKinds]int64
}

// Event kinds, the first byte of each hashed event.
const (
	evInject byte = iota
	evAllocate
	evForward
	evDeliver
	evAbort
	numEventKinds
)

func newEventHasher() *eventHasher { return &eventHasher{h: fnv.New64a()} }

func (x *eventHasher) emit(kind byte, cycle int64, args ...int64) {
	x.counts[kind]++
	x.buf = append(x.buf[:0], kind)
	x.buf = binary.LittleEndian.AppendUint64(x.buf, uint64(cycle))
	for _, a := range args {
		x.buf = binary.LittleEndian.AppendUint64(x.buf, uint64(a))
	}
	x.h.Write(x.buf)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func (x *eventHasher) observer() RecoveryObserver {
	return ObserverFuncs{
		InjectFn: func(cycle int64, src, dst topology.NodeID, length int) {
			x.emit(evInject, cycle, int64(src), int64(dst), int64(length))
		},
		AllocateFn: func(cycle int64, at topology.NodeID, dir topology.Direction, vc int, eject bool) {
			x.emit(evAllocate, cycle, int64(at), int64(dir.Index()), int64(vc), b2i(eject))
		},
		ForwardFn: func(cycle int64, ch topology.Channel, vc int, head, tail bool) {
			x.emit(evForward, cycle, int64(ch.From), int64(ch.Dir.Index()), int64(vc), b2i(head), b2i(tail))
		},
		DeliverFn: func(cycle int64, src, dst topology.NodeID, lat int64, hops int) {
			x.emit(evDeliver, cycle, int64(src), int64(dst), lat, int64(hops))
		},
		AbortFn: func(cycle int64, src, dst topology.NodeID, drained, released, retry int, dropped bool) {
			x.emit(evAbort, cycle, int64(src), int64(dst), int64(drained), int64(released), int64(retry), b2i(dropped))
		},
	}
}

// TestEngineEventStreamPinned pins, per configuration class, the
// FNV-64a digest of the complete ordered event stream and of the
// Result. The engine's hot paths (worklists, stalled-input tracking,
// compiled tables) are optimizations that must not move a single event
// or reorder two events within a cycle; delivery-only comparisons would
// miss a reordered Forward or a shifted Allocate. Each case then reruns
// unobserved and must produce the same Result: four of the nine
// (saturated-transpose, pcube-6cube, fully-adaptive-recovery-faults,
// random-policies-misroute) take the worm-train move path then. The
// constants were computed before stalled-input tracking existed and
// must only change with a deliberate change to the simulation model.
func TestEngineEventStreamPinned(t *testing.T) {
	cases := []struct {
		name   string
		mk     func() Config
		events uint64
		result uint64
	}{
		// Past saturation: most flowing inputs wait on a full buffer.
		{"saturated-transpose", func() Config {
			topo := topology.NewMesh(16, 16)
			return Config{
				Algorithm:     routing.NewNegativeFirst(topo),
				Pattern:       traffic.NewMeshTranspose(topo),
				OfferedLoad:   1.5,
				WarmupCycles:  1500,
				MeasureCycles: 2500,
				Seed:          1,
			}
		}, 0x163c05db865a84ce, 0x64b5d5852317caa5},
		{"dateline-2vc-torus", func() Config {
			topo := topology.NewTorus(6, 2)
			return Config{
				VCAlgorithm:   routing.NewDatelineDOR(topo),
				Pattern:       traffic.NewUniform(topo),
				OfferedLoad:   3.0,
				WarmupCycles:  1000,
				MeasureCycles: 2000,
				Seed:          9,
			}
		}, 0x8d89d4dd13880501, 0x1c4d117c479162b7},
		{"chained-saf", func() Config {
			topo := topology.NewMesh(8, 8)
			return Config{
				Algorithm:     routing.NewNegativeFirst(topo),
				Pattern:       traffic.NewUniform(topo),
				OfferedLoad:   2.5,
				Switching:     StoreAndForward,
				Lengths:       []int{6, 12},
				WarmupCycles:  1000,
				MeasureCycles: 2000,
				Seed:          3,
			}
		}, 0x4b4f77c4c95f676a, 0xd44b24284ac9c634},
		{"strict-saf", func() Config {
			topo := topology.NewMesh(8, 8)
			return Config{
				Algorithm:     routing.NewNegativeFirst(topo),
				Pattern:       traffic.NewUniform(topo),
				OfferedLoad:   2.5,
				Switching:     StoreAndForward,
				StrictAdvance: true,
				Lengths:       []int{6, 12},
				WarmupCycles:  1000,
				MeasureCycles: 2000,
				Seed:          3,
			}
		}, 0xce945139612fbdf5, 0x8472483915c4804f},
		{"buffer-depth-4", func() Config {
			topo := topology.NewMesh(8, 8)
			return Config{
				Algorithm:     routing.NewWestFirst(topo),
				Pattern:       traffic.NewMeshTranspose(topo),
				OfferedLoad:   3.0,
				BufferDepth:   4,
				WarmupCycles:  1000,
				MeasureCycles: 2000,
				Seed:          4,
			}
		}, 0x1400fd6c7ae94279, 0x580ce845249d80d4},
		{"pcube-6cube", func() Config {
			topo := topology.NewHypercube(6)
			return Config{
				Algorithm:     routing.NewPCube(topo),
				Pattern:       traffic.NewHypercubeTranspose(topo),
				OfferedLoad:   2.5,
				WarmupCycles:  1000,
				MeasureCycles: 2000,
				Seed:          6,
			}
		}, 0x8c837a25b618e0cf, 0x4ea6d65dbfabc649},
		// Aborts drain worms and release channels mid-chain; the fault
		// plan changes epochs (and candidate lists) mid-run.
		{"fully-adaptive-recovery-faults", func() Config {
			topo := topology.NewMesh(8, 8)
			plan, err := fault.NewCampaign(topo, fault.Campaign{Seed: 7, Horizon: 4000, Rate: 4, MTTR: 500})
			if err != nil {
				t.Fatal(err)
			}
			return Config{
				Algorithm:         routing.NewFullyAdaptive(topo),
				Pattern:           traffic.NewUniform(topo),
				OfferedLoad:       3.0,
				WarmupCycles:      1000,
				MeasureCycles:     3000,
				Seed:              7,
				FaultPlan:         plan,
				RecoveryThreshold: 128,
			}
		}, 0x74e89eab1c22cc34, 0xc178a552434f0b24},
		{"random-policies-misroute", func() Config {
			topo := topology.NewMesh(6, 6)
			return Config{
				Algorithm:     routing.NewTurnGraphRouting(topo, core.WestFirstSet(), false),
				Pattern:       traffic.NewMeshTranspose(topo),
				OfferedLoad:   3.0,
				Policy:        RandomPolicy,
				Input:         RandomInput,
				MisrouteAfter: 3,
				WarmupCycles:  1000,
				MeasureCycles: 2000,
				Seed:          5,
			}
		}, 0x4759e823b8b15409, 0x578c5c5408bc1548},
		{"strict-wormhole", func() Config {
			topo := topology.NewMesh(8, 8)
			return Config{
				Algorithm:     routing.NewNorthLast(topo),
				Pattern:       traffic.NewMeshTranspose(topo),
				OfferedLoad:   2.5,
				StrictAdvance: true,
				WarmupCycles:  1000,
				MeasureCycles: 2000,
				Seed:          8,
			}
		}, 0x43641160b3fad482, 0x8521755359a310b4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.mk()
			cfg.CheckInvariants = true
			x := newEventHasher()
			cfg.Observer = x.observer()
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.InvariantViolation != "" {
				t.Fatalf("invariant violation: %s", res.InvariantViolation)
			}
			if x.counts[evForward] == 0 || x.counts[evDeliver] == 0 {
				t.Fatalf("no traffic moved (event counts %v); the pin would be vacuous", x.counts)
			}
			if cfg.RecoveryThreshold > 0 && x.counts[evAbort] == 0 {
				t.Fatalf("no aborts (event counts %v); the recovery case would be vacuous", x.counts)
			}
			if got := x.h.Sum64(); got != c.events {
				t.Errorf("event stream digest %#016x, want %#016x (event counts %v)", got, c.events, x.counts)
			}
			if got := resultDigest(res); got != c.result {
				t.Errorf("result digest %#016x, want %#016x: %+v", got, c.result, res)
			}
			// Unobserved, train-class cases take the worm-train move path;
			// every case must still produce the pinned Result.
			cfg.Observer = nil
			res, err = Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.InvariantViolation != "" {
				t.Fatalf("unobserved: invariant violation: %s", res.InvariantViolation)
			}
			if got := resultDigest(res); got != c.result {
				t.Errorf("unobserved: result digest %#016x, want %#016x: %+v", got, c.result, res)
			}
		})
	}
}

// resultDigest is the FNV-64a digest of every field of res. Result has a
// String method that prints a summary; the digest covers every field
// instead.
func resultDigest(res Result) uint64 {
	type allFields Result
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", allFields(res))
	return h.Sum64()
}
