// Command faultstorm runs randomized fault-injection campaigns against
// one simulator configuration and verifies that the engine survives
// them: every campaign runs with the structural invariant checker armed,
// and every generated packet must be accounted for as delivered, dropped
// or still in flight when the run ends. It exits nonzero on the first
// violation, which makes it suitable as a CI chaos smoke test:
//
//	faultstorm -topo mesh8x8 -alg west-first -campaigns 4 -rate 2 -recovery 512
//	faultstorm -topo torus6x2 -classes wormhole,multivc,chained-saf
//
// Each campaign perturbs the seed, so one invocation covers several
// independent fault schedules, and -classes repeats them per switching
// class (multi-VC and chained store-and-forward included) so the move
// phase's virtual-channel round robin and same-cycle cascades are
// stormed too. The tool also reports the routing relation's unroutable
// source/destination pairs under the final fault set of each campaign's
// plan, quantifying how much connectivity the schedule destroyed.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"turnmodel/internal/cli"
	"turnmodel/internal/core"
	"turnmodel/internal/fault"
	"turnmodel/internal/routing"
	"turnmodel/internal/sim"
	"turnmodel/internal/stats"
	"turnmodel/internal/topology"
)

func main() {
	topoFlag := flag.String("topo", "mesh8x8", "topology: meshAxB[xC...], cubeN, torusKxN")
	algFlag := flag.String("alg", "west-first", "routing algorithm")
	nonminimal := flag.Bool("nonminimal", false, "use the nonminimal west-first relation (detours around faults; ignores -alg)")
	trafficFlag := flag.String("traffic", "uniform", "traffic pattern")
	load := flag.Float64("load", 1.0, "offered load in flits/us/node")
	cycles := flag.Int64("cycles", 20000, "simulated cycles per campaign")
	seed := flag.Int64("seed", 1, "base random seed (campaign i uses seed+i)")
	rate := flag.Float64("rate", 2, "fault onsets per 1000 cycles")
	mttr := flag.Int64("mttr", 2000, "mean time to repair in cycles (0 = permanent faults)")
	campaigns := flag.Int("campaigns", 4, "independent fault campaigns to run")
	recovery := flag.Int64("recovery", 512, "deadlock-recovery watchdog threshold in cycles (0 = recovery off)")
	retries := flag.Int("retries", 8, "recovery retry budget per packet (negative = drop on first abort)")
	backoff := flag.Int64("backoff", 0, "base retry backoff in cycles (0 = recovery threshold)")
	misroute := flag.Int64("misroute", 0, "misroute patience in cycles (nonminimal relations)")
	check := flag.Bool("check", true, "run the structural invariant checker")
	verbose := flag.Bool("v", false, "print each campaign's fault schedule size and result line")
	classesFlag := flag.String("classes", "wormhole", "comma-separated switching classes to storm: wormhole, multivc, chained-saf. multivc swaps in a 2-VC relation (dateline-dor on tori, double-y on meshes) and ignores -alg/-nonminimal; chained-saf runs -alg under chained store-and-forward")
	flag.Parse()

	tbl := stats.NewTable("class", "campaign", "faults", "unroutable", "delivered", "dropped", "in-flight",
		"recoveries", "retries", "stranded", "deadlock")
	failed := false
	for _, class := range strings.Split(*classesFlag, ",") {
		class = strings.TrimSpace(class)
		for i := 0; i < *campaigns; i++ {
			t, err := cli.ParseTopology(*topoFlag)
			fatal(err)
			var alg routing.Algorithm
			if *nonminimal {
				alg = routing.NewTurnGraphRouting(t, core.WestFirstSet(), false)
				if *misroute == 0 {
					*misroute = 8
				}
			} else {
				alg, err = cli.ParseAlgorithm(t, *algFlag)
				fatal(err)
			}
			pat, err := cli.ParseTraffic(t, *trafficFlag)
			fatal(err)

			plan, err := fault.NewCampaign(t, fault.Campaign{
				Seed:    *seed + int64(i),
				Horizon: *cycles,
				Rate:    *rate,
				MTTR:    *mttr,
			})
			fatal(err)

			cfg := sim.Config{
				Algorithm:         alg,
				Pattern:           pat,
				OfferedLoad:       *load,
				WarmupCycles:      *cycles / 4,
				MeasureCycles:     *cycles - *cycles/4,
				Seed:              *seed + int64(i),
				MisrouteAfter:     *misroute,
				FaultPlan:         plan,
				RecoveryThreshold: *recovery,
				RetryLimit:        *retries,
				RetryBackoff:      *backoff,
				CheckInvariants:   *check,
			}
			var vcalg routing.VCAlgorithm
			switch class {
			case "wormhole":
			case "multivc":
				// Per-link VC wait chains under faults: virtual channels
				// share each link through the move phase's round robin.
				name := "double-y"
				if t.Kind() == topology.KindTorus {
					name = "dateline-dor"
				}
				vcalg, err = cli.ParseVCAlgorithm(t, name)
				fatal(err)
				cfg.Algorithm = nil
				cfg.VCAlgorithm = vcalg
			case "chained-saf":
				// Same-cycle cross-router SAF cascades under faults.
				cfg.Switching = sim.StoreAndForward
				cfg.Lengths = []int{6, 12}
			default:
				fatal(fmt.Errorf("unknown -classes entry %q (known: wormhole, multivc, chained-saf)", class))
			}

			res, err := sim.Run(cfg)
			fatal(err)

			// Connectivity damage of the schedule's final fault set: replay
			// the plan to its end on a fresh driver, count the pairs the
			// relation cannot serve, then heal the topology again.
			count := func() int { return routing.UnroutablePairs(alg) }
			if vcalg != nil {
				count = func() int { return routing.UnroutablePairsVC(vcalg) }
			}
			unroutable, err := unroutableAtEnd(t, plan, *cycles, count)
			fatal(err)

			deadlock := "no"
			if res.Deadlocked {
				deadlock = fmt.Sprintf("@%d", res.DeadlockCycle)
			}
			tbl.AddRow(class, fmt.Sprint(i), fmt.Sprint(len(plan.Events)), fmt.Sprint(unroutable),
				fmt.Sprint(res.PacketsDeliveredTotal), fmt.Sprint(res.PacketsDropped),
				fmt.Sprint(res.PacketsInFlight), fmt.Sprint(res.Recoveries),
				fmt.Sprint(res.Retries), fmt.Sprint(res.StrandedFlits), deadlock)
			if *verbose {
				fmt.Printf("%s campaign %d: %d fault events, %s\n", class, i, len(plan.Events), res)
			}

			if res.InvariantViolation != "" {
				fmt.Fprintf(os.Stderr, "faultstorm: %s campaign %d: invariant violation: %s\n", class, i, res.InvariantViolation)
				failed = true
			}
			// Conservation: every packet the run generated is delivered,
			// dropped, or still in flight — nothing vanishes.
			if got := res.PacketsDeliveredTotal + res.PacketsDropped + res.PacketsInFlight; got != res.PacketsGeneratedTotal {
				fmt.Fprintf(os.Stderr, "faultstorm: %s campaign %d: packet accounting broken: delivered+dropped+in-flight %d != generated %d\n",
					class, i, got, res.PacketsGeneratedTotal)
				failed = true
			}
			if res.StrandedFlits < 0 {
				fmt.Fprintf(os.Stderr, "faultstorm: %s campaign %d: negative stranded-flit count %d\n", class, i, res.StrandedFlits)
				failed = true
			}
		}
	}
	algName := *algFlag
	if *nonminimal {
		algName = "west-first (nonminimal)"
	}
	fmt.Printf("%s/%s on %s, load %.2f, rate %.1f/kcycle, mttr %d, recovery %d, classes %s:\n%s",
		algName, *trafficFlag, *topoFlag, *load, *rate, *mttr, *recovery, *classesFlag, tbl)
	if failed {
		os.Exit(1)
	}
	fmt.Println("all campaigns conserved packets and passed invariant checks")
}

// unroutableAtEnd applies plan's full schedule to t, calls count to
// tally the relation's unroutable ordered pairs under the resulting
// fault set, and restores the topology to health.
func unroutableAtEnd(t *topology.Topology, plan *fault.Plan, horizon int64, count func() int) (int, error) {
	drv, err := fault.NewDriver(t, plan)
	if err != nil {
		return 0, err
	}
	if _, err := drv.Advance(horizon); err != nil {
		return 0, err
	}
	n := count()
	if err := drv.Reset(); err != nil {
		return 0, err
	}
	return n, nil
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "faultstorm:", err)
		os.Exit(1)
	}
}
