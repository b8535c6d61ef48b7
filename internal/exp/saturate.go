package exp

import (
	"fmt"
	"io"
	"slices"

	"turnmodel/internal/sim"
)

// Saturation is the result of a bisection search for the sustainability
// boundary — a sharper estimate of the paper's "maximum sustainable
// throughput" than reading it off a load grid.
type Saturation struct {
	// Load is the highest offered load (flits/us/node) found
	// sustainable.
	Load float64
	// Throughput is the measured network throughput at that load.
	Throughput float64
	// Result is the full measurement at the sustainable edge.
	Result sim.Result
}

// FindSaturation bisects the offered load between lo and hi (flits/us/
// node) for the largest sustainable point of the configuration base
// (relation, pattern, policies), running iters rounds. Each probe runs a
// copy of base with its load, Options' windows and the seed
// o.Seed + load·10000. lo must be sustainable; if it is not, the zero
// Saturation is returned.
func FindSaturation(base sim.Config, lo, hi float64, iters int, o Options) (Saturation, error) {
	run := func(load float64) (sim.Result, error) {
		c := base
		c.OfferedLoad = load
		c.WarmupCycles, c.MeasureCycles = o.warmup(), o.measure()
		c.Seed = o.Seed + int64(load*10000)
		return sim.Run(c)
	}
	best := Saturation{}
	r, err := run(lo)
	if err != nil {
		return best, err
	}
	if r.Sustainable {
		best = Saturation{Load: lo, Throughput: r.Throughput, Result: r}
	} else {
		return best, nil // even the floor saturates; report zero
	}
	for i := 0; i < iters && hi-lo > 1e-3; i++ {
		mid := (lo + hi) / 2
		r, err := run(mid)
		if err != nil {
			return best, err
		}
		if r.Sustainable {
			lo = mid
			if r.Throughput > best.Throughput {
				best = Saturation{Load: mid, Throughput: r.Throughput, Result: r}
			}
		} else {
			hi = mid
		}
	}
	return best, nil
}

// WriteFigureSaturation bisects every line of figure f for its
// sustainable edge, 8 rounds between the lowest and the highest of the
// figure's effective loads, and writes one line per algorithm. It runs
// the lines one after another and reports no progress.
func WriteFigureSaturation(w io.Writer, f FigureSpec, o Options) error {
	t := SharedTopology(f.Topology)
	pat := f.Pattern(t)
	loads := o.loads(f.Loads)
	for _, alg := range SharedAlgorithms(t, f.Algs(t)) {
		sat, err := FindSaturation(sim.Config{Algorithm: alg, Pattern: pat}, slices.Min(loads), slices.Max(loads), 8, o)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "# %s on %v, %s traffic: sustainable edge at offered %.3f flits/us/node, throughput %.1f flits/us, latency %.2f us\n",
			alg.Name(), t, pat.Name(), sat.Load, sat.Throughput, sat.Result.AvgLatency)
	}
	return nil
}
