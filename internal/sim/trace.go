package sim

import (
	"bufio"
	"fmt"
	"io"

	"turnmodel/internal/topology"
)

// Workload traces. The paper closes on "the identification of realistic
// workload distributions, so that the results of future simulations can
// be more meaningful" — traces are the mechanism: a run can record the
// exact message workload it generated, and later runs can replay it,
// pinning the workload while the routing algorithm varies (common
// random numbers, the variance-reduction discipline behind the paper's
// figure comparisons).
//
// The format is one line per message: "cycle src dst length", plain
// decimal, ordered by cycle.

// WriteTrace serializes messages to w in trace format.
func WriteTrace(w io.Writer, msgs []ScriptedMessage) error {
	bw := bufio.NewWriter(w)
	for _, m := range msgs {
		if _, err := fmt.Fprintf(bw, "%d %d %d %d\n", m.Cycle, m.Src, m.Dst, m.Length); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTrace parses a trace into scripted messages.
func ReadTrace(r io.Reader) ([]ScriptedMessage, error) {
	var msgs []ScriptedMessage
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" {
			continue
		}
		var cycle int64
		var src, dst, length int
		if _, err := fmt.Sscanf(text, "%d %d %d %d", &cycle, &src, &dst, &length); err != nil {
			return nil, fmt.Errorf("sim: trace line %d: %v", line, err)
		}
		if length < 1 || src == dst {
			return nil, fmt.Errorf("sim: trace line %d: invalid message (src=%d dst=%d len=%d)", line, src, dst, length)
		}
		msgs = append(msgs, ScriptedMessage{
			Cycle: cycle, Src: topology.NodeID(src), Dst: topology.NodeID(dst), Length: length,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return msgs, nil
}

// RecordWorkload generates the message workload a configuration would
// produce over the given horizon — the same stochastic process the
// simulator drives — without simulating the network. The result can be
// replayed via Config.Script against any algorithm on the same
// topology. Each message's Cycle is the cycle the stochastic run
// enqueues it, so a replay on the same configuration injects, forwards
// and delivers exactly as that run does, unless a random selection
// policy shares the generator's random stream. Its latencies read one
// cycle shorter: a replay counts latency from the enqueue cycle, the
// stochastic run from the whole cycle before it (the generation time
// rounded down).
func RecordWorkload(cfg Config, horizon int64) ([]ScriptedMessage, error) {
	e, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if e.script != nil {
		return nil, fmt.Errorf("sim: RecordWorkload requires a stochastic configuration, not a script")
	}
	var msgs []ScriptedMessage
	for e.cycle = 0; e.cycle < horizon; e.cycle++ {
		e.generate()
		for v := range e.queues {
			q := &e.queues[v]
			for q.len() > 0 {
				p := q.pop()
				msgs = append(msgs, ScriptedMessage{
					Cycle: e.cycle, Src: p.src, Dst: p.dst, Length: p.length,
				})
				e.releasePacket(p)
			}
		}
	}
	return msgs, nil
}
