package sim

import (
	"strings"
	"testing"

	"turnmodel/internal/fault"
	"turnmodel/internal/routing"
	"turnmodel/internal/topology"
	"turnmodel/internal/traffic"
)

// deadlockScript floods a 5-node ring so no-VC torus DOR closes its
// all-wait cycle — the TestTorusDORDeadlocksLive scenario.
func deadlockScript(topo *topology.Topology) []ScriptedMessage {
	var script []ScriptedMessage
	for round := 0; round < 20; round++ {
		for v := 0; v < topo.Nodes(); v++ {
			script = append(script, ScriptedMessage{
				Cycle:  int64(round),
				Src:    topology.NodeID(v),
				Dst:    topology.NodeID((v + 2) % topo.Nodes()),
				Length: 50,
			})
		}
	}
	return script
}

// TestRecoveryBreaksTorusDORDeadlock: the scenario that deadlocks in
// TestTorusDORDeadlocksLive completes under the recovery watchdog —
// stalled worms are aborted regressively, retried from the source, and
// every packet ends up delivered or dropped with the books balanced.
func TestRecoveryBreaksTorusDORDeadlock(t *testing.T) {
	topo := topology.NewTorus(5, 1)
	script := deadlockScript(topo)
	res, err := Run(Config{
		Algorithm:         routing.NewTorusDOR(topo),
		Script:            script,
		DeadlockThreshold: 1000,
		DrainDeadline:     200000,
		RecoveryThreshold: 200,
		RetryLimit:        16,
		CheckInvariants:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlocked {
		t.Fatalf("deadlocked despite recovery: %+v", res)
	}
	if res.Recoveries == 0 {
		t.Fatal("scenario completed without any recovery aborts; the test is vacuous")
	}
	if res.InvariantViolation != "" {
		t.Fatalf("invariant violation: %s", res.InvariantViolation)
	}
	if got := res.PacketsDeliveredTotal + res.PacketsDropped; got != int64(len(script)) {
		t.Errorf("delivered %d + dropped %d = %d packets, want %d accounted",
			res.PacketsDeliveredTotal, res.PacketsDropped, got, len(script))
	}
	if res.PacketsInFlight != 0 {
		t.Errorf("%d packets still in flight after the run drained", res.PacketsInFlight)
	}
	if res.PacketsGeneratedTotal != int64(len(script)) {
		t.Errorf("generated %d packets, want %d", res.PacketsGeneratedTotal, len(script))
	}
	// Flit books: everything injected was delivered or drained.
	if res.StrandedFlits != 0 {
		t.Errorf("%d flits stranded in network buffers", res.StrandedFlits)
	}
	// Deadlocked-run partial stats (satellite): the run delivered
	// packets, so latency stats must be populated.
	if res.PacketsDeliveredTotal > 0 && res.AvgLatency == 0 {
		t.Error("delivered packets but AvgLatency is zero")
	}
}

// TestRecoveryDeterministic: recovery-enabled runs are a deterministic
// function of the seed — two identical runs agree bit for bit, including
// the recovery counters.
func TestRecoveryDeterministic(t *testing.T) {
	mk := func() Config {
		topo := topology.NewTorus(5, 1)
		return Config{
			Algorithm:         routing.NewTorusDOR(topo),
			Script:            deadlockScript(topo),
			DeadlockThreshold: 1000,
			DrainDeadline:     200000,
			RecoveryThreshold: 200,
			RetryLimit:        16,
		}
	}
	a, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("recovery runs diverged:\n a: %+v\n b: %+v", a, b)
	}
}

// TestRecoveryRetryBudget: a negative RetryLimit drops every aborted
// worm on its first abort — no retries, only drops — and the books
// still balance.
func TestRecoveryRetryBudget(t *testing.T) {
	topo := topology.NewTorus(5, 1)
	script := deadlockScript(topo)
	res, err := Run(Config{
		Algorithm:         routing.NewTorusDOR(topo),
		Script:            script,
		DeadlockThreshold: 1000,
		DrainDeadline:     200000,
		RecoveryThreshold: 200,
		RetryLimit:        -1,
		CheckInvariants:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.InvariantViolation != "" {
		t.Fatalf("invariant violation: %s", res.InvariantViolation)
	}
	if res.Recoveries == 0 || res.PacketsDropped == 0 {
		t.Fatalf("expected aborts and drops, got recoveries=%d dropped=%d", res.Recoveries, res.PacketsDropped)
	}
	if res.Retries != 0 {
		t.Errorf("RetryLimit<0 must never retry, got %d retries", res.Retries)
	}
	if got := res.PacketsDeliveredTotal + res.PacketsDropped; got != int64(len(script)) {
		t.Errorf("delivered %d + dropped %d != %d generated", res.PacketsDeliveredTotal, res.PacketsDropped, len(script))
	}
}

// TestRecoveryObserverConservation: the RecoveryObserver extension sees
// every abort with exact drain counts, abort events precede the same
// cycle's allocation events, and the flit books close across deliveries
// and drains — TestObserverEventsUnderFault's conservation argument
// extended to aborted worms.
func TestRecoveryObserverConservation(t *testing.T) {
	topo := topology.NewTorus(5, 1)
	script := deadlockScript(topo)

	var lastCycle int64
	lastPhase := -2
	// Phases within a cycle: -1 recovery aborts, 0 allocate, 1 move.
	phase := func(cycle int64, p int, what string) {
		if cycle < lastCycle {
			t.Fatalf("%s event at cycle %d after cycle %d", what, cycle, lastCycle)
		}
		if cycle > lastCycle {
			lastCycle, lastPhase = cycle, -2
		}
		if p < lastPhase {
			t.Fatalf("cycle %d: %s event out of phase order (%d after %d)", cycle, what, p, lastPhase)
		}
		lastPhase = p
	}
	var aborts, drops, delivers int
	var drainedFlits int64
	obs := ObserverFuncs{
		AbortFn: func(cycle int64, src, dst topology.NodeID, flitsDrained, channelsReleased, retry int, dropped bool) {
			phase(cycle, -1, "Abort")
			aborts++
			drainedFlits += int64(flitsDrained)
			if dropped {
				drops++
			}
			if flitsDrained < 0 || channelsReleased < 0 || retry < 1 {
				t.Errorf("malformed abort event: drained=%d released=%d retry=%d", flitsDrained, channelsReleased, retry)
			}
		},
		AllocateFn: func(cycle int64, at topology.NodeID, dir topology.Direction, vc int, eject bool) {
			phase(cycle, 0, "Allocate")
		},
		DeliverFn: func(cycle int64, src, dst topology.NodeID, lat int64, hops int) {
			phase(cycle, 1, "Deliver")
			delivers++
		},
	}
	res, err := Run(Config{
		Algorithm:         routing.NewTorusDOR(topo),
		Script:            script,
		DeadlockThreshold: 1000,
		DrainDeadline:     200000,
		RecoveryThreshold: 200,
		RetryLimit:        16,
		CheckInvariants:   true,
		Observer:          obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.InvariantViolation != "" {
		t.Fatalf("invariant violation: %s", res.InvariantViolation)
	}
	if int64(aborts) != res.Recoveries {
		t.Errorf("observer saw %d aborts, result counted %d", aborts, res.Recoveries)
	}
	if drainedFlits != res.FlitsDrained {
		t.Errorf("observer summed %d drained flits, result counted %d", drainedFlits, res.FlitsDrained)
	}
	if int64(drops) != res.PacketsDropped {
		t.Errorf("observer saw %d drops, result counted %d", drops, res.PacketsDropped)
	}
	if int64(delivers) != res.PacketsDeliveredTotal {
		t.Errorf("observer saw %d delivers, result counted %d", delivers, res.PacketsDeliveredTotal)
	}
}

// TestCheckInvariantsCleanRun: the structural checker passes on an
// ordinary faultless stochastic run, periodically and at the end.
func TestCheckInvariantsCleanRun(t *testing.T) {
	topo := topology.NewMesh(6, 6)
	res, err := Run(Config{
		Algorithm:       routing.NewWestFirst(topo),
		Pattern:         traffic.NewUniform(topo),
		OfferedLoad:     2.0,
		WarmupCycles:    1000,
		MeasureCycles:   3000,
		Seed:            3,
		CheckInvariants: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.InvariantViolation != "" {
		t.Fatalf("invariant violation on a clean run: %s", res.InvariantViolation)
	}
	if res.Recoveries != 0 || res.PacketsDropped != 0 || res.FlitsDrained != 0 {
		t.Errorf("recovery counters nonzero with recovery disabled: %+v", res)
	}
}

// TestCheckInvariantsCatchesStalledBitFlip: on a warmed, saturated
// engine, flipping any one stalled or stalledLow bit — either way — is
// reported, and flipping it back restores a clean check.
func TestCheckInvariantsCatchesStalledBitFlip(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	e, err := New(Config{
		Algorithm:     routing.NewNegativeFirst(topo),
		Pattern:       traffic.NewMeshTranspose(topo),
		OfferedLoad:   2.5,
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
	// One input of each class: stalled on a lower-index buffer, stalled
	// on a higher-index one, and flowing but not stalled.
	low, high, free := int32(-1), int32(-1), int32(-1)
	for in := int32(0); in < int32(len(e.inbufs)); in++ {
		switch {
		case e.stalledLow.get(in):
			low = in
		case e.stalled.get(in):
			high = in
		case e.flowing.get(in):
			free = in
		}
	}
	if low < 0 || high < 0 || free < 0 {
		t.Fatalf("warmup left no input of some class (low %d, high %d, free %d); the test would be vacuous", low, high, free)
	}
	for _, c := range []struct {
		name string
		bits bitset
		in   int32
		want string
	}{
		{"clear-stalled", e.stalled, high, "stalled = false, want true"},
		{"set-stalled", e.stalled, free, "stalled = true, want false"},
		{"clear-stalledLow", e.stalledLow, low, "stalledLow = false, want true"},
		{"set-stalledLow", e.stalledLow, high, "stalledLow = true, want false"},
	} {
		flip := func() { c.bits[c.in>>6] ^= 1 << (uint(c.in) & 63) }
		flip()
		err := e.CheckInvariants()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s on input %d: got %v, want an error containing %q", c.name, c.in, err, c.want)
		}
		flip()
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("%s restored: %v", c.name, err)
		}
	}
}

// TestRecoveryConfigValidation: the new knobs are validated at
// configuration time.
func TestRecoveryConfigValidation(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	base := func() Config {
		return Config{
			Algorithm:     routing.NewWestFirst(topo),
			Pattern:       traffic.NewUniform(topo),
			OfferedLoad:   1.0,
			WarmupCycles:  10,
			MeasureCycles: 10,
		}
	}
	neg := base()
	neg.RecoveryThreshold = -1
	if _, err := New(neg); err == nil {
		t.Error("negative RecoveryThreshold accepted")
	}
	tooSmall := base()
	tooSmall.RouterDelay = 10
	tooSmall.RecoveryThreshold = 5
	if _, err := New(tooSmall); err == nil {
		t.Error("RecoveryThreshold <= RouterDelay accepted")
	}
	negBackoff := base()
	negBackoff.RecoveryThreshold = 100
	negBackoff.RetryBackoff = -1
	if _, err := New(negBackoff); err == nil {
		t.Error("negative RetryBackoff accepted")
	}
	badScript := base()
	badScript.Pattern = nil
	badScript.OfferedLoad = 0
	badScript.WarmupCycles = 0
	badScript.MeasureCycles = 0
	badScript.Script = []ScriptedMessage{{Cycle: 0, Src: 0, Dst: 99, Length: 4}}
	if _, err := New(badScript); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("script with an out-of-range destination accepted (err=%v)", badScript)
	}
	selfScript := base()
	selfScript.Pattern = nil
	selfScript.OfferedLoad = 0
	selfScript.WarmupCycles = 0
	selfScript.MeasureCycles = 0
	selfScript.Script = []ScriptedMessage{{Cycle: 0, Src: 3, Dst: 3, Length: 4}}
	if _, err := New(selfScript); err == nil {
		t.Error("script with src == dst accepted")
	}
	badPlan := base()
	var plan fault.Plan
	plan.AddChannelFault(topology.Channel{From: 99, Dir: topology.Direction{Dim: 0, Pos: true}}, 5, 10)
	badPlan.FaultPlan = &plan
	if _, err := New(badPlan); err == nil {
		t.Error("fault plan naming an out-of-range node accepted")
	}
}

// TestTransientFaultCampaignRun: a seeded random campaign with repairs
// runs end to end under recovery; the topology is fully healed after the
// run (the engine resets its fault driver), and the result is a
// deterministic function of the seed.
func TestTransientFaultCampaignRun(t *testing.T) {
	mk := func() (Config, *topology.Topology) {
		topo := topology.NewMesh(8, 8)
		plan, err := fault.NewCampaign(topo, fault.Campaign{Seed: 7, Horizon: 4000, Rate: 4, MTTR: 500})
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Events) == 0 {
			t.Fatal("campaign generated no events")
		}
		return Config{
			Algorithm:         routing.NewWestFirst(topo),
			Pattern:           traffic.NewUniform(topo),
			OfferedLoad:       2.0,
			WarmupCycles:      1000,
			MeasureCycles:     3000,
			Seed:              7,
			FaultPlan:         plan,
			RecoveryThreshold: 256,
			CheckInvariants:   true,
		}, topo
	}
	cfg, topo := mk()
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.InvariantViolation != "" {
		t.Fatalf("invariant violation: %s", a.InvariantViolation)
	}
	// The run's deferred fault-driver reset must leave the topology
	// healthy for the next run.
	healthy := true
	topo.Channels(func(ch topology.Channel) {
		if !topo.Enabled(ch) {
			healthy = false
		}
	})
	if !healthy {
		t.Error("topology left with disabled channels after the run")
	}
	if got := a.PacketsDeliveredTotal + a.PacketsDropped + a.PacketsInFlight; got != a.PacketsGeneratedTotal {
		t.Errorf("packet books broken: delivered %d + dropped %d + in-flight %d != generated %d",
			a.PacketsDeliveredTotal, a.PacketsDropped, a.PacketsInFlight, a.PacketsGeneratedTotal)
	}
	cfg2, _ := mk()
	b, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("campaign runs diverged:\n a: %+v\n b: %+v", a, b)
	}
}
