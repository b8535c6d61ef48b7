// Command experiments regenerates every figure and table of the paper.
//
// Usage:
//
//	experiments [-only id[,id...]] [-quick] [-seed N] [-list]
//
// With no flags it runs the full experiment suite in paper order and
// prints each artifact's regenerated rows or series. The full simulation
// figures take several minutes; -quick runs coarser, shorter sweeps.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"turnmodel/internal/exp"
	"turnmodel/internal/prof"
)

func main() {
	os.Exit(run())
}

func run() int {
	only := flag.String("only", "", "comma-separated experiment IDs to run (default: all)")
	quick := flag.Bool("quick", false, "shorter simulations and coarser sweeps")
	seed := flag.Int64("seed", 1, "random seed for the stochastic experiments")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	outDir := flag.String("out", "", "also write each experiment's output to <dir>/<id>.txt")
	jsonDir := flag.String("json", "", "also write simulation figures as <dir>/<id>.json")
	workers := flag.Int("workers", 0, "concurrent simulations across figures and sweeps (0 = GOMAXPROCS)")
	metricsDir := flag.String("metrics", "", "attach metric collectors to every simulation and write per-figure dumps to <dir>/<id>.metrics.json")
	metricsInterval := flag.Int64("metrics-interval", 0, "metrics time-series sampling cadence in cycles (0 = default)")
	progress := flag.Bool("progress", false, "print progress/ETA lines to stderr as sweep simulations complete")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	stop, err := prof.Start(*cpuprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return 1
	}
	defer stop()

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
	}

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return 0
	}

	opts := exp.Options{
		Quick: *quick, Seed: *seed, Workers: *workers,
		MetricsDir: *metricsDir, MetricsInterval: *metricsInterval,
	}
	if *progress {
		opts.Progress = os.Stderr
	}
	var chosen []exp.Experiment
	if *only == "" {
		chosen = exp.All()
	} else {
		for _, id := range strings.Split(*only, ",") {
			e, ok := exp.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (use -list)\n", id)
				return 2
			}
			chosen = append(chosen, e)
		}
	}

	failed := 0
	// Warm the figure cache for every chosen simulation figure in one
	// parallel batch; each experiment's own RunFigure then hits the
	// cache and only renders.
	var figs []exp.FigureSpec
	for _, e := range chosen {
		if f, ok := exp.FigureByID(e.ID); ok {
			figs = append(figs, f)
		}
	}
	if len(figs) > 1 {
		if err := exp.RunFigureSet(figs, opts, nil); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: prefetch: %v\n", err)
			failed++
		}
	}
	for _, e := range chosen {
		fmt.Printf("==== %s: %s ====\n", e.ID, e.Title)
		var w io.Writer = os.Stdout
		var f *os.File
		if *outDir != "" {
			var err error
			f, err = os.Create(filepath.Join(*outDir, e.ID+".txt"))
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				return 1
			}
			w = io.MultiWriter(os.Stdout, f)
		}
		start := time.Now()
		if err := e.Run(opts, w); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s FAILED: %v\n", e.ID, err)
			failed++
		}
		if f != nil {
			f.Close()
		}
		fmt.Printf("---- %s done in %v ----\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if *jsonDir != "" {
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
		for _, e := range chosen {
			f, ok := exp.FigureByID(e.ID)
			if !ok {
				continue
			}
			// The sweeps are cached from the run above, so this is cheap.
			sweeps, err := exp.RunFigure(f, opts)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %s json: %v\n", e.ID, err)
				failed++
				continue
			}
			jf, err := os.Create(filepath.Join(*jsonDir, e.ID+".json"))
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				return 1
			}
			if err := exp.WriteFigureJSON(jf, f, sweeps); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %s json: %v\n", e.ID, err)
				failed++
			}
			jf.Close()
		}
	}
	if err := prof.WriteHeap(*memprofile); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		failed++
	}
	if failed > 0 {
		return 1
	}
	return 0
}
