package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"turnmodel/internal/exp"
	"turnmodel/internal/sim"
)

func TestTailPercentileRule(t *testing.T) {
	series := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0.5}, {5, 0.5}, {19, 0.5}, {40, 0.75}, {100, 0.9}, {200, 0.95}, {1000, 0.95}} {
		if _, q := tail(series(c.n)); q != c.want {
			t.Errorf("n=%d: tail quantile %v, want %v", c.n, q, c.want)
		}
	}
	// Whatever the sample count, the reported tail leaves at least ten
	// samples beyond it once the rule goes above the median.
	for n := 20; n <= 400; n++ {
		xs := series(n)
		v, q := tail(xs)
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if q > 0.5 && beyond < 10 {
			t.Fatalf("n=%d: p%.0f leaves %d samples beyond it", n, 100*q, beyond)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] and
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5].
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestTailIdle(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms ...int) []time.Time {
		var out []time.Time
		for _, m := range ms {
			out = append(out, t0.Add(time.Duration(m)*time.Millisecond))
		}
		return out
	}
	for _, c := range []struct {
		name string
		done []time.Time
		w    int
		want time.Duration
	}{
		// Four leaves on two workers: both busy until the third
		// completion, one idle from then until the last.
		{"tail after the (n-w+1)-th", at(10, 3, 1, 2), 2, 7 * time.Millisecond},
		{"one worker never idles", at(1, 2, 3), 1, 0},
		// One leaf on two workers: the second worker idles throughout.
		{"fewer leaves than workers", at(40), 2, 40 * time.Millisecond},
		{"no leaves", nil, 2, 0},
	} {
		if got := tailIdle(t0, c.done, c.w); got != c.want {
			t.Errorf("%s: tailIdle = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestWorkAccounting(t *testing.T) {
	leaves := []leaf{
		{nodes: 256, point: exp.SweepPoint{Result: sim.Result{Cycles: 1000, PacketsDeliveredTotal: 10, AvgHops: 2}}},
		{nodes: 64, point: exp.SweepPoint{Result: sim.Result{Cycles: 500, PacketsDeliveredTotal: 4, AvgHops: 3.5}}},
	}
	cycles, hops := work(leaves)
	if cycles != 256*1000+64*500 {
		t.Errorf("router-cycles = %v, want %v", cycles, 256*1000+64*500)
	}
	// The default length distribution is 10 or 200 flits, equally likely.
	if want := 10*105*2.0 + 4*105*3.5; hops != want {
		t.Errorf("flit-hops = %v, want %v", hops, want)
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{Start: 0, End: 100}
	children := []span{
		{Start: 10, End: 30},
		{Start: 20, End: 40},  // overlaps the first: 10..40 counts once
		{Start: 90, End: 120}, // clipped to 90..100
		{Start: 200, End: 300},
	}
	if got := selfTime(parent, children); got != 60 {
		t.Errorf("selfTime = %v, want 60ns", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %v, want 100ns", got)
	}
}

// TestBenchmarkJSONMatches keeps the repository's BENCHMARK.json and
// the metrics this command reports in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", names, workloads)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from endToEnd:\n%+v\n%+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from perLayer:\n%+v\n%+v", spec.PerLayer, perLayer)
	}
	if !reflect.DeepEqual(spec.Paths, []string{"bench"}) || !reflect.DeepEqual(spec.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("BENCHMARK.json command %v / paths %v", spec.Command, spec.Paths)
	}
}

// TestSmoke runs every workload and check at 1/50 scale, traced, so
// the whole benchmark path stays working.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two binaries and runs every workload")
	}
	dir := t.TempDir()
	bin, server := filepath.Join(dir, "bench"), filepath.Join(dir, "turnserver")
	for _, args := range [][]string{{"-o", bin, "."}, {"-o", server, "turnmodel/cmd/turnserver"}} {
		if out, err := exec.Command("go", append([]string{"build"}, args...)...).CombinedOutput(); err != nil {
			t.Fatalf("go build %v: %v\n%s", args, err, out)
		}
	}
	spans := filepath.Join(dir, "spans.jsonl")
	cmd := exec.Command(bin, "-root", "..", "-turnserver", server, "-scale", "50", "-seconds", "0.1",
		"-trace", "1", "-spans", spans)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		t.Fatalf("bench: %v\n%s", err, out.String())
	}
	var results []resultLine
	for _, line := range strings.Split(out.String(), "\n") {
		var r resultLine
		if strings.HasPrefix(line, "{") && json.Unmarshal([]byte(line), &r) == nil {
			results = append(results, r)
		}
	}
	if len(results) != len(workloads) {
		t.Fatalf("%d result lines for %d workloads:\n%s", len(results), len(workloads), out.String())
	}
	for i, r := range results {
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", workloads[i], r.Correct, r.Attempted, r.Failed)
		}
		for _, d := range perLayer {
			if _, ok := r.Metrics[d.Name]; !ok {
				t.Errorf("%s: no per-layer metric %s", workloads[i], d.Name)
			}
		}
	}
	b, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	var s span
	if len(lines) == 0 || json.Unmarshal(lines[0], &s) != nil || s.Trace == "" || s.ID == 0 || s.End < s.Start {
		t.Errorf("span file does not hold spans: %q", lines[0])
	}
}
