package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runRepeat runs the suite n times on seeds cfg.seed..cfg.seed+n-1,
// reversing the workload order on every other pass so no workload
// always runs first. Each workload runs in its own process, exactly as
// a single invocation would. It prints every end-to-end metric's
// median, quartiles, quartile spread and largest deviation against the
// metric's bound, then each run's output digest, and returns nonzero
// when a spread exceeds its bound or a run failed a check.
func runRepeat(cfg runConfig, names []string, n int, w io.Writer) int {
	printHeader(w, cfg.root)
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	vals := map[string]map[string][]float64{}
	var digests []string
	bad := 0
	for i := 0; i < n; i++ {
		order := append([]string(nil), names...)
		if i%2 == 1 {
			for a, b := 0, len(order)-1; a < b; a, b = a+1, b-1 {
				order[a], order[b] = order[b], order[a]
			}
		}
		seed := cfg.seed + int64(i)
		for _, name := range order {
			cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", "0",
				"-scale", strconv.FormatInt(cfg.scale, 10), "-root", cfg.root, "-turnserver", cfg.turnserver)
			var out bytes.Buffer
			cmd.Stdout = &out
			cmd.Stderr = os.Stderr
			runErr := cmd.Run()
			var res resultLine
			if err := json.Unmarshal(lastLine(out.Bytes()), &res); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: no result line (%v, %v)\n", name, seed, runErr, err)
				bad++
				continue
			}
			if runErr != nil || !res.Correct {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %d of %d operations failed\n", name, seed, res.Failed, res.Attempted)
				bad++
			}
			if vals[name] == nil {
				vals[name] = map[string][]float64{}
			}
			for k, v := range res.Metrics {
				vals[name][k] = append(vals[name][k], v.Value)
			}
			sc := bufio.NewScanner(&out)
			for sc.Scan() {
				if d, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "digest "); ok {
					digests = append(digests, d)
				}
			}
			fmt.Fprintf(os.Stderr, "bench: pass %d/%d: %s seed %d done\n", i+1, n, name, seed)
		}
	}

	fmt.Fprintf(w, "%-9s %-20s %3s %12s %12s %12s %8s %8s %7s  %s\n",
		"workload", "metric", "n", "median", "q1", "q3", "spread", "maxdev", "bound", "verdict")
	for _, name := range names {
		for _, d := range endToEnd {
			vs := vals[name][d.Name]
			if len(vs) == 0 {
				continue
			}
			m := median(vs)
			q1, q3 := quartiles(vs)
			spread := relative(q3-q1, m)
			maxdev := 0.0
			for _, v := range vs {
				maxdev = math.Max(maxdev, relative(math.Abs(v-m), m))
			}
			verdict := "ok"
			if spread > d.Bound {
				verdict = "OUT OF BOUND"
				bad++
			}
			fmt.Fprintf(w, "%-9s %-20s %3d %12.6g %12.6g %12.6g %7.1f%% %7.1f%% %6.0f%%  %s\n",
				name, d.Name, len(vs), m, q1, q3, 100*spread, 100*maxdev, 100*d.Bound, verdict)
		}
	}
	for _, d := range digests {
		fmt.Fprintf(w, "digest %s\n", d)
	}
	fmt.Fprintf(w, "loadavg at end: %s\n", loadavg())
	if bad > 0 {
		fmt.Fprintf(w, "repeat: %d metric spreads out of bound or failed runs\n", bad)
		return 1
	}
	return 0
}

// relative is d as a share of base, 0 when base is 0.
func relative(d, base float64) float64 {
	if base == 0 {
		return 0
	}
	return d / math.Abs(base)
}
