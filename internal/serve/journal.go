package serve

import (
	"time"

	"turnmodel/internal/jsonl"
)

// The job journal is the store's write-ahead log: a jsonl.Log, like
// internal/explore's campaign log, recording every lifecycle
// transition of every admitted job. A process killed mid-write leaves
// at most one unparsable final line, which replay skips and the next
// append never joins, so a SIGKILL at any point lets the next start
// converge to the same terminal state an uninterrupted server would
// have reached:
//
//   - submit + no terminal entry  -> the job is re-queued and re-run
//     (the engine is deterministic, so the re-run's figure JSON is
//     byte-identical to what the killed run would have produced);
//   - done                        -> the result is served from the
//     journal without running a single leaf;
//   - poisoned                    -> the job is quarantined and never
//     re-executed (the crash-loop guard for panicking inputs);
//   - failed / canceled / timeout -> the job stays terminal; only a
//     fresh submission replaces it.
type journalEntry struct {
	// Type is "submit", "start", or a terminal state: "done",
	// "failed", "canceled", "timeout", "poisoned".
	Type string `json:"type"`
	// ID is the content-addressed job ID every entry is keyed by.
	ID string `json:"id"`
	// Submit entries carry the request, its canonical cache key and
	// the admission timestamp (RFC 3339 with nanoseconds).
	Req  *JobRequest `json:"req,omitempty"`
	Key  string      `json:"key,omitempty"`
	Time string      `json:"time,omitempty"`
	// Start entries carry the 1-based execution attempt, counting
	// crash replays.
	Attempt int `json:"attempt,omitempty"`
	// Done entries carry the figure JSON verbatim. It is stored as a
	// JSON string — newlines escape to \n — so the entry stays one
	// line and the bytes round-trip exactly.
	Result   string `json:"result,omitempty"`
	CacheHit bool   `json:"cache_hit,omitempty"`
	// Terminal failures carry the error; poisoned entries also carry
	// the panic stack.
	Error string `json:"error,omitempty"`
	Stack string `json:"stack,omitempty"`
}

// readJournal parses the log, skipping blank and torn lines and
// entries without a job ID.
func readJournal(path string) ([]journalEntry, error) {
	all, err := jsonl.Read[journalEntry](path)
	if err != nil {
		return nil, err
	}
	out := all[:0]
	for _, e := range all {
		if e.ID != "" {
			out = append(out, e)
		}
	}
	return out, nil
}

// replayState is one job's folded journal state at startup.
type replayState struct {
	Req       JobRequest
	Key       string
	Submitted time.Time
	// Attempts counts start entries since the last submit: how many
	// times execution began, including runs lost to crashes.
	Attempts int
	// State is the folded lifecycle position: StateQueued or
	// StateRunning for a job the crash interrupted, or a terminal
	// state.
	State    JobState
	Result   string
	CacheHit bool
	Error    string
	Stack    string
}

// foldJournal reduces the entry sequence to per-job replay states,
// returning the job IDs in first-submission order (the deterministic
// re-queue order) alongside. A submit entry over a replaceable
// terminal state (failed, canceled, timeout) starts a fresh
// incarnation, mirroring Store.Submit's replacement rule; done and
// poisoned are never replaced.
func foldJournal(entries []journalEntry) ([]string, map[string]*replayState) {
	var order []string
	states := map[string]*replayState{}
	for _, e := range entries {
		st := states[e.ID]
		switch e.Type {
		case "submit":
			if st != nil && (st.State == StateDone || st.State == StatePoisoned) {
				continue // authoritative result; Submit would have deduped
			}
			fresh := replayState{Key: e.Key, State: StateQueued}
			if e.Req != nil {
				fresh.Req = *e.Req
			}
			if t, err := time.Parse(time.RFC3339Nano, e.Time); err == nil {
				fresh.Submitted = t
			}
			if st == nil {
				order = append(order, e.ID)
				states[e.ID] = &fresh
			} else {
				*st = fresh
			}
		case "start":
			if st == nil || st.State.terminal() {
				continue
			}
			st.Attempts++
			st.State = StateRunning
		case string(StateDone):
			if st == nil || st.State.terminal() {
				continue
			}
			st.State, st.Result, st.CacheHit = StateDone, e.Result, e.CacheHit
		case string(StateFailed), string(StateCanceled), string(StateTimeout), string(StatePoisoned):
			if st == nil || st.State.terminal() {
				continue
			}
			st.State, st.Error, st.Stack = JobState(e.Type), e.Error, e.Stack
		}
	}
	return order, states
}
