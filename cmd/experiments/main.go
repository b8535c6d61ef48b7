// Command experiments regenerates every figure and table of the paper,
// or one latency-versus-throughput figure described on the command
// line.
//
// Usage:
//
//	experiments [-only id[,id...]] [-quick] [-seed N] [-list]
//	experiments -topo T -alg A[,B...] -traffic P [-loads L] [-saturate]
//
// With no flags it runs the full experiment suite in paper order and
// prints each artifact's regenerated rows or series. The full simulation
// figures take several minutes; -quick runs coarser, shorter sweeps.
// -topo, -alg and -traffic together describe one more simulation figure,
// one line per algorithm, which runs instead of the suite (-only IDs
// still add to it). -loads, -warmup and -measure apply to every chosen
// figure; -saturate bisects each chosen figure line for its sustainable
// edge instead of running the figures.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"turnmodel/internal/cli"
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
	progress := flag.Bool("progress", false, "print progress/ETA lines to stderr as sweep simulations complete")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	topo := flag.String("topo", "", "with -alg and -traffic, run one figure instead of the suite: meshAxB[xC...], cubeN, torusKxN")
	algs := flag.String("alg", "", "the figure's comma-separated algorithms, one line each (with -topo and -traffic)")
	pattern := flag.String("traffic", "", "the figure's traffic pattern (with -topo and -alg)")
	loads := flag.String("loads", "", "offered loads of every chosen figure: lo:hi:step or comma-separated list, flits/us/node (default: each figure's grid)")
	warmup := flag.Int64("warmup", 0, "warmup cycles of every simulation (0 = the fidelity's default)")
	measure := flag.Int64("measure", 0, "measurement cycles of every simulation (0 = the fidelity's default)")
	saturate := flag.Bool("saturate", false, "bisect every line of the chosen figures for its sustainable edge instead of running them (not with -metrics, -progress, -json or -out)")
	flag.Parse()

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return 0
	}
	usage := func(msg string) int {
		fmt.Fprintln(os.Stderr, "experiments:", msg)
		return 2
	}
	if *saturate && (*metricsDir != "" || *progress || *jsonDir != "" || *outDir != "") {
		return usage("-saturate takes no -metrics, -progress, -json or -out: the bisection attaches no collector, reports no progress and renders no figure")
	}
	opts := exp.Options{
		Quick: *quick, Seed: *seed, Workers: *workers,
		Warmup: *warmup, Measure: *measure, MetricsDir: *metricsDir,
	}
	if *loads != "" {
		var err error
		if opts.Loads, err = cli.ParseLoads(*loads); err != nil {
			return usage(err.Error())
		}
	}
	if *progress {
		opts.Progress = os.Stderr
	}
	var chosen []exp.Experiment
	var figs []exp.FigureSpec // the chosen simulation figures
	switch {
	case *topo != "" && *algs != "" && *pattern != "":
		f, err := cli.Figure(*topo, *algs, *pattern)
		if err != nil {
			return usage(err.Error())
		}
		chosen, figs = []exp.Experiment{exp.FigureExperiment(f)}, []exp.FigureSpec{f}
	case *topo != "" || *algs != "" || *pattern != "":
		return usage("-topo, -alg and -traffic go together")
	case *only == "":
		chosen = exp.All()
	}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			e, ok := exp.ByID(strings.TrimSpace(id))
			if !ok {
				return usage(fmt.Sprintf("unknown experiment %q (use -list)", id))
			}
			chosen = append(chosen, e)
		}
	}
	for _, e := range chosen {
		if f, ok := exp.FigureByID(e.ID); ok {
			figs = append(figs, f)
		}
	}

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

	failed := 0
	if *saturate {
		for _, f := range figs {
			if err := exp.WriteFigureSaturation(os.Stdout, f, opts); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %s FAILED: %v\n", f.ID, err)
				failed++
			}
		}
		chosen, figs = nil, nil // -saturate runs nothing else
	}
	// Warm the figure cache for every chosen simulation figure in one
	// parallel batch; each experiment's own RunFigure then hits the
	// cache and only renders.
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
		for _, f := range figs {
			// The sweeps are cached from the run above, so this is cheap.
			sweeps, err := exp.RunFigure(f, opts)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %s json: %v\n", f.ID, err)
				failed++
				continue
			}
			jf, err := os.Create(filepath.Join(*jsonDir, f.ID+".json"))
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				return 1
			}
			if err := exp.WriteFigureJSON(jf, f, sweeps); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %s json: %v\n", f.ID, err)
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
