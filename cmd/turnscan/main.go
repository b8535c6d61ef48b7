// Command turnscan exhaustively explores the 2D turn-set design space:
// all 256 subsets of the eight 90-degree turns, folded into symmetry
// classes, screened for deadlock freedom with the incremental CDG
// checker, and — unless -screen-only — benchmarked per surviving class
// representative across the workload suite.
//
// Usage:
//
//	turnscan [-mesh 8x8] [-screen-only] [-quick] [-seed N]
//	         [-loads lo:hi:step|0.5,1.0,...] [-patterns uniform,transpose]
//	         [-workers N] [-log path] [-out path]
//	         [-stop-after N]
//
// The campaign checkpoints every completed figure to the JSONL log
// (keyed by exp.CacheKey), so a killed run resumes where it stopped:
// rerun the same command and only the missing figures are simulated.
// The leaderboard in -out is rebuilt from the log alone and is byte
// identical across resumes. Before anything expensive runs, the
// screening is self-checked against the paper's Section 3 counts (12
// of the 16 one-turn-per-cycle prohibitions deadlock free, folding
// into 3 classes); a mismatch aborts.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"turnmodel/internal/cli"
	"turnmodel/internal/exp"
	"turnmodel/internal/explore"
	"turnmodel/internal/topology"
)

func main() {
	os.Exit(run())
}

func run() int {
	mesh := flag.String("mesh", "8x8", "simulation/screening mesh, e.g. 8x8 or 16x16")
	screenOnly := flag.Bool("screen-only", false, "screen and self-check only; no simulations")
	quick := flag.Bool("quick", false, "shorter simulations and coarser sweeps")
	seed := flag.Int64("seed", 1, "random seed for the stochastic sweeps")
	loads := flag.String("loads", "", "offered loads: lo:hi:step or comma-separated list, flits/us/node (default: the campaign sweep)")
	patterns := flag.String("patterns", "uniform,transpose", "comma-separated traffic patterns")
	workers := flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
	logPath := flag.String("log", "results/turnscan.jsonl", "JSONL checkpoint log (appended on resume)")
	outPath := flag.String("out", "results/turnscan.md", "leaderboard output path")
	stopAfter := flag.Int("stop-after", 0, "cancel after N completed figures (kill half of the kill-and-resume test)")
	quiet := flag.Bool("quiet", false, "suppress per-figure progress lines")
	flag.Parse()

	opts := exp.Options{Quick: *quick, Seed: *seed, Workers: *workers}
	if *loads != "" {
		var err error
		if opts.Loads, err = cli.ParseLoads(*loads); err != nil {
			fmt.Fprintln(os.Stderr, "turnscan:", err)
			return 2
		}
	}
	dims, err := parseMesh(*mesh)
	if err != nil {
		fmt.Fprintln(os.Stderr, "turnscan:", err)
		return 1
	}
	t := topology.NewMesh(dims...)
	s := explore.Screen(t)
	if err := s.SelfCheck(); err != nil {
		fmt.Fprintln(os.Stderr, "turnscan: SELF-CHECK FAILED:", err)
		return 1
	}
	cnt := s.Counts()
	fmt.Printf("self-check: 12/16 one-turn-per-cycle sets deadlock free, 3 symmetry classes (paper Section 3)\n")
	fmt.Printf("screening: %d sets -> %d classes; %d deadlock-free sets -> %d classes (%.1fx dedup); %d survivors (connected)\n",
		cnt.Sets, cnt.Classes, cnt.FreeSets, cnt.FreeClasses, cnt.DedupRatio(), cnt.Survivors)
	if *screenOnly {
		return 0
	}

	c := &explore.Campaign{
		Screen:    s,
		Patterns:  splitList(*patterns),
		Opts:      opts,
		LogPath:   *logPath,
		OutPath:   *outPath,
		StopAfter: *stopAfter,
	}
	if !*quiet {
		c.Verbose = os.Stderr
	}
	if err := c.Run(); err != nil {
		if errors.Is(err, context.Canceled) && *stopAfter > 0 {
			fmt.Printf("stopped after %d figures; rerun to resume from %s\n", *stopAfter, *logPath)
			return 0
		}
		fmt.Fprintln(os.Stderr, "turnscan:", err)
		return 1
	}
	fmt.Printf("leaderboard written to %s (checkpoint log: %s)\n", *outPath, *logPath)
	return 0
}

// parseMesh accepts "8x8", "8,8" or "8 8".
func parseMesh(s string) ([]int, error) {
	fields := strings.FieldsFunc(s, func(r rune) bool { return r == 'x' || r == ',' || r == ' ' })
	var dims []int
	for _, f := range fields {
		v, err := strconv.Atoi(f)
		if err != nil || v < 2 {
			return nil, fmt.Errorf("bad mesh %q: dimensions are integers >= 2", s)
		}
		dims = append(dims, v)
	}
	if len(dims) != 2 {
		return nil, fmt.Errorf("bad mesh %q: the 2D design space needs exactly two dimensions", s)
	}
	return dims, nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
