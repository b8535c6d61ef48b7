package sim

import (
	"bytes"
	"strings"
	"testing"

	"turnmodel/internal/routing"
	"turnmodel/internal/topology"
	"turnmodel/internal/traffic"
)

// TestTraceRoundTrip: write/read preserves messages.
func TestTraceRoundTrip(t *testing.T) {
	msgs := []ScriptedMessage{
		{Cycle: 0, Src: 1, Dst: 2, Length: 10},
		{Cycle: 5, Src: 3, Dst: 0, Length: 200},
		{Cycle: 5, Src: 2, Dst: 1, Length: 1},
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, msgs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(msgs) {
		t.Fatalf("got %d messages, want %d", len(got), len(msgs))
	}
	for i := range msgs {
		if got[i] != msgs[i] {
			t.Errorf("message %d: %+v != %+v", i, got[i], msgs[i])
		}
	}
}

// TestTraceRejectsGarbage.
func TestTraceRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"1 2 3", // too few fields
		"a b c d",
		"0 4 4 10", // src == dst
		"0 1 2 0",  // zero length
	} {
		if _, err := ReadTrace(strings.NewReader(bad)); err == nil {
			t.Errorf("trace %q should fail", bad)
		}
	}
	// Blank lines are fine.
	got, err := ReadTrace(strings.NewReader("\n0 1 2 10\n\n"))
	if err != nil || len(got) != 1 {
		t.Errorf("blank lines should be skipped: %v %v", got, err)
	}
}

// TestRecordWorkloadDeterministic: the same configuration records the
// same workload, and different seeds differ.
func TestRecordWorkloadDeterministic(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	cfg := Config{
		Algorithm:   routing.NewDimensionOrder(topo),
		Pattern:     traffic.NewUniform(topo),
		OfferedLoad: 1.0, WarmupCycles: 1, MeasureCycles: 1, Seed: 44,
	}
	a, err := RecordWorkload(cfg, 2000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RecordWorkload(cfg, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("message %d differs", i)
		}
	}
	cfg.Seed = 45
	c, err := RecordWorkload(cfg, 2000)
	if err != nil {
		t.Fatal(err)
	}
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical workloads")
	}
}

// TestCommonWorkloadComparison: replaying one recorded workload against
// two algorithms pins the traffic exactly — both runs deliver the same
// packet population, so throughput differences are purely algorithmic.
func TestCommonWorkloadComparison(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	workload, err := RecordWorkload(Config{
		Algorithm:   routing.NewDimensionOrder(topo),
		Pattern:     traffic.NewMeshTranspose(topo),
		OfferedLoad: 1.0, WarmupCycles: 1, MeasureCycles: 1, Seed: 46,
	}, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if len(workload) == 0 {
		t.Fatal("empty workload")
	}
	var delivered []int64
	for _, alg := range []routing.Algorithm{routing.NewDimensionOrder(topo), routing.NewNegativeFirst(topo)} {
		res, err := Run(Config{
			Algorithm: alg, Script: workload,
			DrainDeadline: 1 << 20, DeadlockThreshold: 100000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Deadlocked {
			t.Fatalf("%s deadlocked on replay", alg.Name())
		}
		delivered = append(delivered, res.PacketsDelivered)
	}
	if delivered[0] != int64(len(workload)) || delivered[1] != int64(len(workload)) {
		t.Errorf("both algorithms must deliver the whole workload: %v of %d", delivered, len(workload))
	}
}

// TestRecordWorkloadRejectsScript.
func TestRecordWorkloadRejectsScript(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	_, err := RecordWorkload(Config{
		Algorithm: routing.NewDimensionOrder(topo),
		Script:    []ScriptedMessage{{Src: 0, Dst: 1, Length: 5}},
	}, 100)
	if err == nil {
		t.Error("expected error for scripted config")
	}
}

// TestReplayMatchesStochasticRun: replaying a recorded workload on the
// configuration that recorded it reproduces the stochastic run's
// Inject, Forward and Deliver events exactly, each delivery's latency
// one cycle shorter (the replay counts from the enqueue cycle, the
// stochastic run from the generation time rounded down). It checks the
// generation schedule without the pinned digests.
func TestReplayMatchesStochasticRun(t *testing.T) {
	type event struct {
		kind                   byte
		cycle                  int64
		a, b, c, d, e, latency int64
	}
	record := func(evs *[]event) Observer {
		return ObserverFuncs{
			InjectFn: func(cycle int64, src, dst topology.NodeID, length int) {
				*evs = append(*evs, event{kind: 'I', cycle: cycle, a: int64(src), b: int64(dst), c: int64(length)})
			},
			ForwardFn: func(cycle int64, ch topology.Channel, vc int, head, tail bool) {
				*evs = append(*evs, event{kind: 'F', cycle: cycle, a: int64(ch.From), b: int64(ch.Dir.Index()),
					c: int64(vc), d: b2i(head), e: b2i(tail)})
			},
			DeliverFn: func(cycle int64, src, dst topology.NodeID, lat int64, hops int) {
				*evs = append(*evs, event{kind: 'D', cycle: cycle, a: int64(src), b: int64(dst), c: int64(hops), latency: lat})
			},
		}
	}
	const horizon = 6000
	for _, load := range []float64{0.5, 2.0, 3.0} {
		topo := topology.NewMesh(8, 8)
		cfg := Config{
			Algorithm:     routing.NewWestFirst(topo),
			Pattern:       traffic.NewMeshTranspose(topo),
			OfferedLoad:   load,
			WarmupCycles:  1000,
			MeasureCycles: horizon - 1000,
			Seed:          9,
		}
		msgs, err := RecordWorkload(cfg, horizon)
		if err != nil {
			t.Fatal(err)
		}
		var stoch, replay []event
		cfg.Observer = record(&stoch)
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		if _, err := Run(Config{
			Algorithm:     cfg.Algorithm,
			Script:        msgs,
			DrainDeadline: horizon,
			Observer:      record(&replay),
		}); err != nil {
			t.Fatal(err)
		}
		delivered := 0
		for i := range stoch {
			if i >= len(replay) {
				break
			}
			want := stoch[i]
			if want.kind == 'D' {
				want.latency--
				delivered++
			}
			if replay[i] != want {
				t.Fatalf("load %.1f: event %d of %d: replay %+v, want %+v", load, i, len(stoch), replay[i], want)
			}
		}
		if len(replay) != len(stoch) {
			t.Fatalf("load %.1f: replay emitted %d events, stochastic run %d", load, len(replay), len(stoch))
		}
		if delivered == 0 {
			t.Fatalf("load %.1f: nothing delivered; the comparison is vacuous", load)
		}
	}
}
