package exp

import "turnmodel/internal/sim"

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
