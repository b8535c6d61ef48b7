// Command sweep measures one latency-versus-throughput curve — a single
// series of a Section 6 figure — by sweeping the offered load for one
// topology, routing algorithm and traffic pattern.
//
// Usage:
//
//	sweep -topo mesh16x16 -alg xy,west-first -traffic transpose \
//	      -loads 0.25:3.0:0.25
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"turnmodel/internal/cli"
	"turnmodel/internal/exp"
	"turnmodel/internal/prof"
	"turnmodel/internal/sim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

func run() error {
	topoFlag := flag.String("topo", "mesh16x16", "topology: meshAxB[xC...], cubeN, torusKxN")
	algFlag := flag.String("alg", "xy,west-first,north-last,negative-first", "comma-separated algorithms")
	trafficFlag := flag.String("traffic", "uniform", "traffic pattern")
	loadsFlag := flag.String("loads", "0.25:3.0:0.25", "offered loads: lo:hi:step or comma-separated list (flits/us/node)")
	warmup := flag.Int64("warmup", 10000, "warmup cycles")
	measure := flag.Int64("measure", 40000, "measurement cycles")
	seed := flag.Int64("seed", 1, "random seed")
	workers := flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
	metricsDir := flag.String("metrics", "", "attach metric collectors and write a per-algorithm dump to <dir>/<alg>.metrics.json")
	metricsInterval := flag.Int64("metrics-interval", 0, "metrics time-series sampling cadence in cycles (0 = default)")
	progress := flag.Bool("progress", false, "print progress/ETA lines to stderr as simulations complete")
	saturate := flag.Bool("saturate", false, "bisect for the exact sustainable edge instead of sweeping the grid (not with -metrics, -metrics-interval or -progress)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *saturate && (*metricsDir != "" || *metricsInterval != 0 || *progress) {
		fmt.Fprintln(os.Stderr, "sweep: -saturate takes no -metrics, -metrics-interval or -progress: the bisection attaches no collector and reports no progress")
		os.Exit(2)
	}

	stop, err := prof.Start(*cpuprofile)
	if err != nil {
		return err
	}
	defer stop()

	t, err := cli.ParseTopology(*topoFlag)
	if err != nil {
		return err
	}
	pat, err := cli.ParseTraffic(t, *trafficFlag)
	if err != nil {
		return err
	}
	loads, err := cli.ParseLoads(*loadsFlag)
	if err != nil {
		return err
	}

	opts := exp.Options{
		Seed: *seed, Warmup: *warmup, Measure: *measure, Workers: *workers,
		MetricsDir: *metricsDir, MetricsInterval: *metricsInterval,
	}
	if *progress {
		opts.Progress = os.Stderr
	}
	for _, name := range strings.Split(*algFlag, ",") {
		alg, err := cli.ParseAlgorithm(t, strings.TrimSpace(name))
		if err != nil {
			return err
		}
		if *saturate {
			lo, hi := loads[0], loads[len(loads)-1]
			sat, err := exp.FindSaturation(sim.Config{Algorithm: alg, Pattern: pat}, lo, hi, 8, opts)
			if err != nil {
				return err
			}
			fmt.Printf("# %s on %v, %s traffic: sustainable edge at offered %.3f flits/us/node, throughput %.1f flits/us, latency %.2f us\n",
				alg.Name(), t, pat.Name(), sat.Load, sat.Throughput, sat.Result.AvgLatency)
			continue
		}
		sw, err := exp.RunSweep(alg, pat, loads, opts)
		if err != nil {
			return err
		}
		if *metricsDir != "" {
			if err := exp.WriteSweepMetrics(*metricsDir, alg.Name(), opts, []exp.Sweep{sw}); err != nil {
				return err
			}
		}
		fmt.Printf("# %s on %v, %s traffic\n", alg.Name(), t, pat.Name())
		fmt.Printf("%-10s %-12s %-10s %-12s %-6s %s\n",
			"offered", "throughput", "latency", "net-latency", "hops", "sustainable")
		for _, p := range sw.Points {
			sus := "yes"
			if !p.Result.Sustainable {
				sus = "no"
			}
			fmt.Printf("%-10.2f %-12.1f %-10.2f %-12.2f %-6.2f %s\n",
				p.Offered, p.Result.Throughput, p.Result.AvgLatency,
				p.Result.AvgNetLatency, p.Result.AvgHops, sus)
		}
		thr, at := sw.MaxSustainable()
		fmt.Printf("# max sustainable throughput: %.1f flits/us at offered %.2f\n\n", thr, at)
	}
	return prof.WriteHeap(*memprofile)
}
