package main

import (
	"sort"
	"time"
)

// median returns the middle of xs (the mean of the two middle values
// for an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tail applies the percentile rule for reporting a latency tail: the
// highest nearest-rank percentile, at most the 95th, that leaves at
// least ten samples beyond it. Below twenty samples no rank above the
// median qualifies, and the rule falls back to the median. It returns
// the value and the quantile it stands for.
func tail(xs []float64) (value, q float64) {
	n := len(xs)
	if n < 20 {
		return median(xs), 0.5
	}
	k := min((95*n+99)/100, n-10) // 1-based rank: ceil(0.95n), capped
	return sorted(xs)[k-1], float64(k) / float64(n)
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// which is how the benchmark's spread is judged.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		// Python's integer arithmetic, including its clamping of the
		// rank to 1..n-1 (which extrapolates for tiny samples).
		m := n + 1
		j := max(1, min(i*m/4, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// tailIdle measures how long a worker pool ran below full occupancy at
// the end of a batch: n leaves on w workers keep every worker busy
// until the (n-w+1)-th completion, after which workers go idle one by
// one until the last completion. done holds the completion times and
// start the moment the batch began; when n < w some workers never had
// a leaf, so the tail runs from the start.
func tailIdle(start time.Time, done []time.Time, w int) time.Duration {
	n := len(done)
	if n == 0 {
		return 0
	}
	ts := append([]time.Time(nil), done...)
	sort.Slice(ts, func(i, j int) bool { return ts[i].Before(ts[j]) })
	from := start
	if n >= w {
		from = ts[n-w]
	}
	return ts[n-1].Sub(from)
}
