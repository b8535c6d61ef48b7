package exp

import (
	"fmt"
	"io"

	"turnmodel/internal/core"
	"turnmodel/internal/fault"
	"turnmodel/internal/routing"
	"turnmodel/internal/sim"
	"turnmodel/internal/stats"
	"turnmodel/internal/topology"
	"turnmodel/internal/traffic"
)

func init() {
	register(Experiment{
		ID:    "degrade",
		Title: "Extension: graceful degradation — delivered fraction and tail latency under random fault campaigns with deadlock recovery",
		Run:   runDegrade,
	})
}

// runDegrade sweeps the transient-fault rate of a random campaign on a
// 16x16 mesh (8x8 in quick mode) and measures how west-first routing
// degrades: the minimal relation loses connectivity and leans on the
// recovery watchdog's abort/retry/drop path, while the nonminimal
// relation detours around faults and keeps its delivered fraction high.
// Faults follow a seeded Poisson process with exponential repair times
// (the campaign's MTTR), so every row is reproducible.
func runDegrade(o Options, w io.Writer) error {
	side := 16
	if o.Quick {
		side = 8
	}
	rates := []float64{0, 0.5, 1, 2, 4}
	if o.Quick {
		rates = []float64{0, 1, 4}
	}
	horizon := o.warmup() + o.measure()
	tbl := stats.NewTable("faults/kcycle", "relation", "delivered", "p50 (us)", "p99 (us)",
		"recoveries", "retries", "dropped")
	for _, rate := range rates {
		for _, minimal := range []bool{true, false} {
			// Ownership split (sharecache.go): fault-free rows share the
			// process-wide topology and compiled table, while campaign
			// rows build private copies — the fault driver mutates the
			// topology, which must never happen to a shared instance.
			var topo *topology.Topology
			var alg routing.Algorithm
			if rate == 0 {
				topo = SharedTopology(func() *topology.Topology { return topology.NewMesh(side, side) })
				min := minimal
				alg = SharedAlgorithm(topo, func(t *topology.Topology) routing.Algorithm {
					return routing.NewTurnGraphRouting(t, core.WestFirstSet(), min)
				})
			} else {
				topo = topology.NewMesh(side, side)
				alg = routing.NewTurnGraphRouting(topo, core.WestFirstSet(), minimal)
			}
			name := "west-first (minimal)"
			var patience int64
			if !minimal {
				name = "west-first (nonminimal)"
				patience = 8
			}
			var plan *fault.Plan
			if rate > 0 {
				var err error
				plan, err = fault.NewCampaign(topo, fault.Campaign{
					Seed:    o.Seed + 1,
					Horizon: horizon,
					Rate:    rate,
					MTTR:    2000,
				})
				if err != nil {
					return err
				}
			}
			res, err := sim.Run(sim.Config{
				Algorithm:         alg,
				Pattern:           traffic.NewUniform(topo),
				OfferedLoad:       1.0,
				WarmupCycles:      o.warmup(),
				MeasureCycles:     o.measure(),
				Seed:              o.Seed,
				MisrouteAfter:     patience,
				FaultPlan:         plan,
				RecoveryThreshold: 2000,
				RetryLimit:        8,
			})
			if err != nil {
				return err
			}
			// The delivered fraction accounts for every packet generated
			// over the whole run: delivered-ever over delivered + dropped
			// + still in flight at the end.
			total := res.PacketsDeliveredTotal + res.PacketsDropped + res.PacketsInFlight
			frac := 1.0
			if total > 0 {
				frac = float64(res.PacketsDeliveredTotal) / float64(total)
			}
			tbl.AddRow(fmt.Sprintf("%.1f", rate), name, fmt.Sprintf("%.4f", frac),
				res.LatencyP50, res.LatencyP99,
				fmt.Sprint(res.Recoveries), fmt.Sprint(res.Retries), fmt.Sprint(res.PacketsDropped))
		}
	}
	fmt.Fprintf(w, "%dx%d mesh, uniform traffic at 1.0 flits/us/node, random transient channel\nfaults (MTTR 2000 cycles), recovery threshold 2000 cycles, retry budget 8:\n%s", side, side, tbl)
	fmt.Fprintf(w, "\nthe minimal relation leans on the recovery watchdog as the fault rate grows —\npairs whose only west-first paths cross a fault stall until aborted and\nretried, inflating the latency tail — while the nonminimal relation detours\naround faults and degrades far more gracefully (fewer aborts, flatter p99)\n")
	return nil
}
