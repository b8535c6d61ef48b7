package main

import "fmt"

// metricDef names one reported metric. BENCHMARK.json at the repository
// root lists the same metrics; TestBenchmarkJSONMatches keeps the two
// in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator, the turn-set
// campaign or the job server sees, reported by every untraced run of
// every workload. Bound is the share of the baseline median by which a
// metric may worsen before a change counts as a regression. Timings get
// 25%: on a 2-CPU host their median moves 10-17% between runs a minute
// apart with no change at all (bench/README.md, Stability).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"max_rss_mb", "MB", "lower", 0.15},
	{"router_cycles_per_s", "1/s", "higher", 0.25},
	{"job_p50_ms", "ms", "lower", 0.25},
	{"job_p95_ms", "ms", "lower", 0.25},
	{"hit_p50_ms", "ms", "lower", 0.25},
	{"jobs_per_s", "1/s", "higher", 0.25},
}

// perLayer are the metrics of single layers, reported by traced runs.
// Every layer listed is called by every workload, so each metric is
// measured on each; layers only one workload calls (explore's
// campaign, the HTTP service) print extra diagnostics instead.
var perLayer = []metricDef{
	{Name: "routing.compiles", Unit: "count", Better: "lower"},
	{Name: "routing.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "routing.table_mb", Unit: "MB", Better: "lower"},
	{Name: "sim.ns_per_router_cycle", Unit: "ns", Better: "lower"},
	{Name: "sim.ns_per_flit_hop", Unit: "ns", Better: "lower"},
	{Name: "exp.leaves", Unit: "count", Better: "lower"},
	{Name: "exp.leaves_per_s", Unit: "1/s", Better: "higher"},
	{Name: "exp.tail_idle_ms", Unit: "ms", Better: "lower"},
	{Name: "exp.render_ms", Unit: "ms", Better: "lower"},
	{Name: "exp.allocs_per_leaf", Unit: "count", Better: "lower"},
	{Name: "exp.bytes_per_leaf", Unit: "B", Better: "lower"},
	{Name: "deadlock.verify_ms", Unit: "ms", Better: "lower"},
	{Name: "analytic.bound_excess_points", Unit: "count", Better: "lower"},
	{Name: "trace_overhead_pct", Unit: "%", Better: "lower"},
}

// checks tallies a run's operations and the failures among them.
type checks struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
}

// expect records one checked operation; a false condition fails it.
func (c *checks) expect(ok bool, format string, args ...any) {
	c.Attempted++
	if !ok {
		c.Failed++
		c.Failures = append(c.Failures, fmt.Sprintf(format, args...))
	}
}

// add folds another tally into c.
func (c *checks) add(o checks) {
	c.Attempted += o.Attempted
	c.Failed += o.Failed
	c.Failures = append(c.Failures, o.Failures...)
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a run prints: the contract between the
// benchmark and whatever compares two of its runs.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metricsFor fills the result line's metrics from vals, in the units
// of defs.
func metricsFor(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}
