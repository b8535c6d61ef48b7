// Package fault schedules deterministic channel-fault campaigns for the
// simulator: a Plan is an explicit list of fault onsets and repairs on
// simulated-cycle timestamps, built by hand (AddChannelFault,
// AddRouterFault) or generated from a seeded random Campaign (target
// fault rate and mean time to repair). A Driver replays a Plan against a
// topology as simulation time advances, going through the ordinary
// DisableChannel/EnableChannel fault-epoch path so routing tables and
// candidate caches recompile exactly as they do for static faults —
// and, new with repairs, re-enable channels when their fault heals.
//
// Everything here is deterministic: the same seed and parameters always
// produce the same Plan, and a Driver applies events in a fixed order
// (ascending cycle, insertion order within a cycle), so fault campaigns
// compose with the engine's seeded determinism and its A/B tests.
package fault

import (
	"fmt"
	"math/rand"
	"sort"

	"turnmodel/internal/topology"
)

// Event is one scheduled fault transition: at Cycle, channel Ch either
// fails (Up == false) or is repaired (Up == true).
type Event struct {
	// Cycle is the simulated cycle the transition takes effect, applied
	// before that cycle's generation and allocation phases.
	Cycle int64
	// Ch is the affected unidirectional channel.
	Ch topology.Channel
	// Up distinguishes repair (true) from onset (false).
	Up bool
}

// Plan is a deterministic fault schedule. The zero value is an empty
// plan. Events may be appended in any order; drivers and validators
// sort a copy by cycle (stably, so same-cycle events keep insertion
// order) before use. A Plan is immutable once a run starts and may be
// shared between runs — the Driver keeps all replay state.
type Plan struct {
	// Events is the schedule. Callers normally build it through
	// AddChannelFault/AddRouterFault or NewCampaign rather than directly.
	Events []Event
}

// AddChannelFault schedules channel ch to fail at cycle onset and, when
// repair >= 0, to be repaired at cycle repair. A negative repair makes
// the fault permanent.
func (p *Plan) AddChannelFault(ch topology.Channel, onset, repair int64) {
	p.Events = append(p.Events, Event{Cycle: onset, Ch: ch})
	if repair >= 0 {
		p.Events = append(p.Events, Event{Cycle: repair, Ch: ch, Up: true})
	}
}

// AddRouterFault schedules a whole-router fault on node v of t: every
// existing channel entering or leaving v fails at onset and, when
// repair >= 0, heals at repair. Traffic terminating at v can still be
// consumed (the processor ejection channel is not a network channel);
// nothing can route through v while the fault holds.
func (p *Plan) AddRouterFault(t *topology.Topology, v topology.NodeID, onset, repair int64) error {
	if err := t.CheckNode(v); err != nil {
		return err
	}
	for i := 0; i < 2*t.NumDims(); i++ {
		d := topology.DirectionFromIndex(i)
		if t.HasChannel(v, d) {
			p.AddChannelFault(topology.Channel{From: v, Dir: d}, onset, repair)
		}
		if u, ok := t.Neighbor(v, d); ok {
			p.AddChannelFault(topology.Channel{From: u, Dir: d.Opposite()}, onset, repair)
		}
	}
	return nil
}

// Validate checks every event against t: the channel must exist, the
// cycle must be nonnegative, and no repair may precede its fault's
// onset. It reports the first problem found, so malformed plans fail at
// configuration time instead of mid-run.
func (p *Plan) Validate(t *topology.Topology) error {
	for i, ev := range p.Events {
		if ev.Cycle < 0 {
			return fmt.Errorf("fault: event %d: negative cycle %d", i, ev.Cycle)
		}
		if err := t.CheckNode(ev.Ch.From); err != nil {
			return fmt.Errorf("fault: event %d: %w", i, err)
		}
		if ev.Ch.Dir.Dim < 0 || ev.Ch.Dir.Dim >= t.NumDims() || !t.HasChannel(ev.Ch.From, ev.Ch.Dir) {
			return fmt.Errorf("fault: event %d: channel %v does not exist", i, ev.Ch)
		}
	}
	// Replay the schedule's per-channel fault counts: a repair landing on
	// a channel with no active fault means a repair was scheduled before
	// its onset (AddChannelFault with repair < onset), which would strand
	// the channel disabled forever.
	down := make(map[int]int)
	for _, ev := range p.sorted() {
		id := t.ChannelID(ev.Ch)
		if ev.Up {
			if down[id] == 0 {
				return fmt.Errorf("fault: channel %v repaired at cycle %d before any fault onset", ev.Ch, ev.Cycle)
			}
			down[id]--
		} else {
			down[id]++
		}
	}
	return nil
}

// sorted returns a stably cycle-sorted copy of the plan's events.
func (p *Plan) sorted() []Event {
	evs := append([]Event(nil), p.Events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Cycle < evs[j].Cycle })
	return evs
}

// Campaign parameterizes a random fault campaign: transient channel
// faults arriving as a Poisson process over a horizon, each healing
// after an exponentially distributed repair time.
type Campaign struct {
	// Seed makes the generated plan reproducible.
	Seed int64
	// Horizon is the cycle span faults may start in, (0, Horizon].
	Horizon int64
	// Rate is the target fault arrival rate in onsets per 1000 cycles,
	// network-wide.
	Rate float64
	// MTTR is the mean time to repair in cycles. Zero makes every fault
	// permanent.
	MTTR int64
}

// NewCampaign generates a deterministic random plan for topology t:
// fault onsets arrive with exponential interarrival times at the target
// rate, each picking a uniformly random currently-healthy channel, with
// a repair scheduled MTTR-mean exponentially later (or never, when MTTR
// is zero). The same seed and parameters always yield the same plan.
func NewCampaign(t *topology.Topology, c Campaign) (*Plan, error) {
	if c.Horizon <= 0 {
		return nil, fmt.Errorf("fault: campaign horizon must be positive, got %d", c.Horizon)
	}
	if c.Rate < 0 {
		return nil, fmt.Errorf("fault: negative campaign rate %v", c.Rate)
	}
	if c.MTTR < 0 {
		return nil, fmt.Errorf("fault: negative MTTR %d", c.MTTR)
	}
	p := &Plan{}
	if c.Rate == 0 {
		return p, nil
	}
	var chans []topology.Channel
	t.Channels(func(ch topology.Channel) { chans = append(chans, ch) })
	if len(chans) == 0 {
		return nil, fmt.Errorf("fault: topology has no channels")
	}
	rng := rand.New(rand.NewSource(c.Seed))
	// downUntil tracks when each channel heals, so a new onset never
	// lands on an already-faulty channel (the driver's refcounting would
	// handle it, but distinct targets make campaigns easier to reason
	// about). -1 means healthy; a permanent fault stores Horizon+1.
	downUntil := make(map[int]int64, 8)
	mean := 1000.0 / c.Rate // cycles between onsets
	at := int64(0)
	for {
		at += max64(1, int64(rng.ExpFloat64()*mean))
		if at > c.Horizon {
			break
		}
		ch, ok := pickHealthy(rng, t, chans, downUntil, at)
		if !ok {
			continue // every channel is down; skip this onset
		}
		repair := int64(-1)
		healed := c.Horizon + 1
		if c.MTTR > 0 {
			repair = at + max64(1, int64(rng.ExpFloat64()*float64(c.MTTR)))
			healed = repair
		}
		downUntil[t.ChannelID(ch)] = healed
		p.AddChannelFault(ch, at, repair)
	}
	return p, nil
}

// pickHealthy draws uniformly among channels healthy at cycle at,
// consuming a bounded number of random draws so generation stays
// deterministic and terminates even when most channels are down.
func pickHealthy(rng *rand.Rand, t *topology.Topology, chans []topology.Channel, downUntil map[int]int64, at int64) (topology.Channel, bool) {
	for tries := 0; tries < 4*len(chans); tries++ {
		ch := chans[rng.Intn(len(chans))]
		if until, down := downUntil[t.ChannelID(ch)]; !down || until <= at {
			return ch, true
		}
	}
	return topology.Channel{}, false
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Driver replays a Plan against a topology as simulation time advances.
// It refcounts per-channel faults, so overlapping faults on the same
// channel compose: the channel heals only when every overlapping fault
// has been repaired. Reset undoes whatever the driver disabled,
// restoring the topology's pre-campaign fault state.
type Driver struct {
	t      *topology.Topology
	events []Event
	at     int
	down   []int16 // per channel ID: active faults the driver holds
	active int     // channels currently disabled by this driver
}

// NewDriver validates p against t and returns a driver positioned
// before the first event.
func NewDriver(t *topology.Topology, p *Plan) (*Driver, error) {
	if err := p.Validate(t); err != nil {
		return nil, err
	}
	return &Driver{
		t:      t,
		events: p.sorted(),
		down:   make([]int16, t.NumChannelIDs()),
	}, nil
}

// Advance applies every event scheduled at or before cycle, in order,
// and returns how many were applied. The caller runs it before a
// cycle's generation and allocation phases; the fault epoch advances
// with each underlying Disable/EnableChannel, which is what triggers
// route-table recompilation downstream.
func (d *Driver) Advance(cycle int64) (int, error) {
	applied := 0
	for d.at < len(d.events) && d.events[d.at].Cycle <= cycle {
		ev := d.events[d.at]
		d.at++
		id := d.t.ChannelID(ev.Ch)
		if ev.Up {
			if d.down[id] == 0 {
				continue // repair of a fault this driver never applied
			}
			d.down[id]--
			if d.down[id] == 0 {
				if err := d.t.EnableChannel(ev.Ch); err != nil {
					return applied, err
				}
				d.active--
			}
		} else {
			d.down[id]++
			if d.down[id] == 1 {
				if err := d.t.DisableChannel(ev.Ch); err != nil {
					return applied, err
				}
				d.active++
			}
		}
		applied++
	}
	return applied, nil
}

// ActiveFaults returns the number of channels the driver currently
// holds disabled.
func (d *Driver) ActiveFaults() int { return d.active }

// Done reports whether every event has been applied.
func (d *Driver) Done() bool { return d.at >= len(d.events) }

// Reset re-enables every channel the driver still holds disabled and
// rewinds the event cursor, restoring the topology's pre-campaign fault
// state so the same topology can host further runs.
func (d *Driver) Reset() error {
	for id := range d.down {
		if d.down[id] > 0 {
			d.down[id] = 0
			if err := d.t.EnableChannel(d.t.ChannelFromID(id)); err != nil {
				return err
			}
		}
	}
	d.active = 0
	d.at = 0
	return nil
}
