// Command turnsim runs a single wormhole-routing simulation and prints
// the measured latency and throughput.
//
// Usage:
//
//	turnsim -topo mesh16x16 -alg negative-first -traffic transpose -load 1.5
//
// Topologies: meshAxB[xC...] (e.g. mesh16x16), cubeN (binary N-cube,
// e.g. cube8), torusKxN (k-ary n-cube, e.g. torus8x2).
//
// Algorithms: xy/e-cube (dimension-order), west-first, north-last,
// negative-first (p-cube on hypercubes), abonf, abopl, the torus
// extensions, dateline-dor and double-y (virtual channels), and
// fully-adaptive (deadlocks!).
//
// Traffic: uniform, transpose, reverse-flip, bit-complement, hotspot,
// tornado, bit-reversal, shuffle.
package main

import (
	"flag"
	"fmt"
	"os"

	"turnmodel/internal/cli"
	"turnmodel/internal/fault"
	"turnmodel/internal/metrics"
	"turnmodel/internal/sim"
)

func main() {
	topoFlag := flag.String("topo", "mesh16x16", "topology: meshAxB[xC...], cubeN, torusKxN")
	algFlag := flag.String("alg", "negative-first", "routing algorithm")
	trafficFlag := flag.String("traffic", "uniform", "traffic pattern")
	load := flag.Float64("load", 1.0, "offered load in flits/us/node")
	warmup := flag.Int64("warmup", 10000, "warmup cycles")
	measure := flag.Int64("measure", 40000, "measurement cycles")
	seed := flag.Int64("seed", 1, "random seed")
	buffer := flag.Int("buffer", 1, "input buffer depth in flits")
	policy := flag.String("policy", "xy", "output selection policy: xy, high, random")
	input := flag.String("input", "fcfs", "input selection policy: fcfs, port, random")
	switching := flag.String("switching", "wormhole", "switching: wormhole, saf, vct")
	misroute := flag.Int64("misroute", 0, "misroute patience in cycles (0 = relation as-is)")
	delay := flag.Int64("delay", 0, "extra router decision delay in cycles")
	verbose := flag.Bool("v", false, "print percentiles and channel utilization")
	record := flag.String("record", "", "record the workload to a trace file and exit (horizon = warmup+measure cycles)")
	replay := flag.String("replay", "", "replay a recorded workload trace instead of generating traffic (not with -load or -traffic)")
	metricsDir := flag.String("metrics", "", "collect run metrics and write manifest.json, metrics.prom and heatmap.txt to this directory (not with -record)")
	metricsInterval := flag.Int64("metrics-interval", 1000, "metrics time-series sampling cadence in cycles (with -metrics)")
	exactLat := flag.Bool("metrics-exact-latencies", false, "record every packet's latency exactly in the metrics manifest (unbounded memory; with -metrics)")
	faultRate := flag.Float64("fault-rate", 0, "random transient channel-fault onsets per 1000 cycles (0 = no faults)")
	faultMTTR := flag.Int64("fault-mttr", 2000, "mean time to repair a transient fault in cycles (0 = permanent faults)")
	recovery := flag.Int64("recovery", 0, "deadlock-recovery watchdog threshold in cycles (0 = recovery off)")
	retryLimit := flag.Int("retry-limit", 0, "recovery retry budget per packet (0 = default 8, negative = drop on first abort)")
	retryBackoff := flag.Int64("retry-backoff", 0, "base recovery retry backoff in cycles (0 = recovery threshold)")
	checkInv := flag.Bool("check", false, "run the structural invariant checker during and after the simulation")
	flag.Parse()

	// A flag the chosen run would ignore is a usage error, not a no-op.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, name := range []string{"metrics-interval", "metrics-exact-latencies"} {
		if set[name] && *metricsDir == "" {
			usage("-" + name + " needs -metrics: without a collector it would be ignored")
		}
	}
	if *replay != "" {
		for _, name := range []string{"load", "traffic"} {
			if set[name] {
				usage("-" + name + " does not apply with -replay: the trace is the workload")
			}
		}
	}
	if *record != "" && *metricsDir != "" {
		usage("-metrics does not apply with -record: recording simulates no network")
	}

	t, err := cli.ParseTopology(*topoFlag)
	check(err)
	valg, err := cli.ParseVCAlgorithm(t, *algFlag)
	check(err)
	pat, err := cli.ParseTraffic(t, *trafficFlag)
	check(err)
	pol, err := cli.ParsePolicy(*policy)
	check(err)
	inp, err := cli.ParseInputPolicy(*input)
	check(err)

	var sw sim.Switching
	switch *switching {
	case "wormhole":
		sw = sim.Wormhole
	case "saf", "store-and-forward":
		sw = sim.StoreAndForward
	case "vct", "virtual-cut-through":
		sw = sim.VirtualCutThrough
	default:
		check(fmt.Errorf("unknown switching %q", *switching))
	}

	cfg := sim.Config{
		Pattern:       pat,
		OfferedLoad:   *load,
		WarmupCycles:  *warmup,
		MeasureCycles: *measure,
		Seed:          *seed,
		BufferDepth:   *buffer,
		Policy:        pol,
		Input:         inp,
		Switching:     sw,
		MisrouteAfter: *misroute,
		RouterDelay:   *delay,

		RecoveryThreshold: *recovery,
		RetryLimit:        *retryLimit,
		RetryBackoff:      *retryBackoff,
		CheckInvariants:   *checkInv,
	}
	if *faultRate > 0 {
		plan, err := fault.NewCampaign(t, fault.Campaign{
			Seed:    *seed + 1,
			Horizon: *warmup + *measure,
			Rate:    *faultRate,
			MTTR:    *faultMTTR,
		})
		check(err)
		cfg.FaultPlan = plan
	}
	// Single-VC relations run through the plain algorithm path so the
	// buffer layout matches the paper's model exactly.
	if valg.NumVCs() == 1 {
		alg, err := cli.ParseAlgorithm(t, *algFlag)
		check(err)
		cfg.Algorithm = alg
	} else {
		cfg.VCAlgorithm = valg
	}

	if *record != "" {
		msgs, err := sim.RecordWorkload(cfg, *warmup+*measure)
		check(err)
		f, err := os.Create(*record)
		check(err)
		check(sim.WriteTrace(f, msgs))
		check(f.Close())
		fmt.Printf("recorded %d messages over %d cycles to %s\n", len(msgs), *warmup+*measure, *record)
		return
	}
	if *replay != "" {
		f, err := os.Open(*replay)
		check(err)
		msgs, err := sim.ReadTrace(f)
		check(err)
		check(f.Close())
		cfg.Pattern = nil
		cfg.OfferedLoad = 0
		cfg.WarmupCycles = 0
		cfg.MeasureCycles = 0
		cfg.Script = msgs
		cfg.DeadlockThreshold = 100000
	}

	var m *metrics.Collector
	if *metricsDir != "" {
		m = metrics.New(metrics.Config{Interval: *metricsInterval, ExactLatencies: *exactLat})
		cfg.Metrics = m
	}

	res, err := sim.Run(cfg)
	check(err)
	fmt.Printf("topology:   %v\n", t)
	fmt.Println(res)
	if m != nil {
		check(m.WriteFiles(*metricsDir))
		sum := m.Summarize()
		fmt.Printf("metrics:    %s, %s, %s written to %s\n",
			metrics.ManifestFile, metrics.PrometheusFile, metrics.HeatmapFile, *metricsDir)
		fmt.Printf("            grants=%d denials=%d misroutes=%d mean-occupancy=%.2f flits/router\n",
			sum.Grants, sum.Denials, sum.Misroutes, sum.MeanOccupancy)
	}
	if *recovery > 0 || *faultRate > 0 {
		fmt.Printf("recovery:   recoveries=%d retries=%d dropped=%d drained-flits=%d stranded-flits=%d\n",
			res.Recoveries, res.Retries, res.PacketsDropped, res.FlitsDrained, res.StrandedFlits)
		fmt.Printf("accounting: delivered-ever=%d dropped=%d in-flight=%d\n",
			res.PacketsDeliveredTotal, res.PacketsDropped, res.PacketsInFlight)
	}
	if res.InvariantViolation != "" {
		fmt.Fprintf(os.Stderr, "turnsim: invariant violation: %s\n", res.InvariantViolation)
		os.Exit(1)
	}
	if *verbose {
		fmt.Printf("latency percentiles: p50=%.2f p95=%.2f p99=%.2f max=%.2f us\n",
			res.LatencyP50, res.LatencyP95, res.LatencyP99, res.MaxLatency)
		fmt.Printf("hottest channel: %v at %.1f%% utilization\n",
			res.HottestChannel, res.MaxChannelUtilization*100)
		fmt.Printf("backlog growth: %d flits over the measurement window\n", res.BacklogGrowth)
	}
}

// usage reports a flag combination the run cannot honor and exits 2.
func usage(msg string) {
	fmt.Fprintln(os.Stderr, "turnsim:", msg)
	os.Exit(2)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "turnsim:", err)
		os.Exit(1)
	}
}
