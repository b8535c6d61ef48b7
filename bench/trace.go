package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the public function it calls. Spans of one request or sample
// share a trace ID; Parent is the ID of the span that caused this one
// (0 for a root).
type span struct {
	Trace  string `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // Unix nanoseconds
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	next  int64
	spans []span
	// idBase keeps span IDs distinct across the processes whose spans
	// land in one file.
	idBase int64
}

func newTracer(idBase int64) *tracer { return &tracer{idBase: idBase} }

// begin opens a span and returns the function that closes it, plus the
// span's ID for use as a parent.
func (t *tracer) begin(trace string, parent int64, name string) (id int64, end func()) {
	if t == nil {
		return 0, func() {}
	}
	t.mu.Lock()
	t.next++
	id = t.idBase + t.next
	t.mu.Unlock()
	start := time.Now()
	return id, func() {
		t.add(span{Trace: trace, ID: id, Parent: parent, Name: name, Start: start.UnixNano(), End: time.Now().UnixNano()})
	}
}

// add records a span whose times were taken elsewhere.
func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.ID == 0 {
		t.next++
		s.ID = t.idBase + t.next
	}
	t.spans = append(t.spans, s)
}

// named returns the recorded spans called name.
func (t *tracer) named(name string) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// totalMs sums the durations of the spans called name, in ms.
func (t *tracer) totalMs(name string) float64 {
	var d time.Duration
	for _, s := range t.named(name) {
		d += s.dur()
	}
	return ms(d)
}

// selfMs returns, in ms, the self time of each span called name: the
// part of it no child span covers, which is time no layer accounts for.
func (t *tracer) selfMs(name string) []float64 {
	var out []float64
	for _, p := range t.named(name) {
		t.mu.Lock()
		var kids []span
		for _, s := range t.spans {
			if s.Parent == p.ID {
				kids = append(kids, s)
			}
		}
		t.mu.Unlock()
		out = append(out, ms(selfTime(p, kids)))
	}
	return out
}

// appendTo writes the spans as JSON lines to path, appending so that
// several processes of one run share a file.
func (t *tracer) appendTo(path string) error {
	if t == nil || path == "" {
		return nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("open span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("write span: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write span file: %w", err)
	}
	return f.Close()
}

// selfTime is a span's duration minus the part of its interval that
// its children cover. Overlapping children (parallel work) count once.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			covered += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		covered += curB - curA
	}
	return parent.dur() - time.Duration(covered)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
