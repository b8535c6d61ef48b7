package exp

import (
	"fmt"
	"io"

	"turnmodel/internal/routing"
	"turnmodel/internal/sim"
	"turnmodel/internal/stats"
	"turnmodel/internal/topology"
	"turnmodel/internal/traffic"
)

func init() {
	register(Experiment{
		ID:    "sens14",
		Title: "Sensitivity: the Figure 14 adaptive advantage under different output selection policies",
		Run:   runSens14,
	})
}

// runSens14 probes the one magnitude deviation recorded in
// EXPERIMENTS.md: our measured mesh-transpose best-PA/xy ratio is about
// 1.6x against the paper's "twice". The likeliest unspecified knob is
// router behaviour around output selection, so this experiment bisects
// the exact sustainable edge of xy and negative-first under each output
// selection policy. xy has a single candidate everywhere, so its edge is
// policy-invariant; negative-first's edge moves with how eagerly the
// policy exploits its choices.
func runSens14(o Options, w io.Writer) error {
	// Shared instances: the bisection runs 8 probes (the floor and 7
	// rounds) per (policy, relation) pair, and nothing here touches the
	// fault set, so every probe — across all three policies — shares one
	// topology and one compiled table per relation.
	topo := SharedTopology(func() *topology.Topology { return topology.NewMesh(16, 16) })
	xyAlg := SharedAlgorithm(topo, func(t *topology.Topology) routing.Algorithm { return routing.NewDimensionOrder(t) })
	nfAlg := SharedAlgorithm(topo, func(t *topology.Topology) routing.Algorithm { return routing.NewNegativeFirst(t) })
	pat := traffic.NewMeshTranspose(topo)
	pols := []sim.OutputPolicy{sim.LowestDimension, sim.HighestDimension, sim.RandomPolicy}
	tbl := stats.NewTable("output policy", "xy edge (flits/us)", "negative-first edge (flits/us)", "ratio")
	for _, pol := range pols {
		edge := func(alg routing.Algorithm) (float64, error) {
			sat, err := FindSaturation(sim.Config{Algorithm: alg, Pattern: pat, Policy: pol}, 0.25, 4.0, 7, o)
			return sat.Throughput, err
		}
		xy, err := edge(xyAlg)
		if err != nil {
			return err
		}
		nf, err := edge(nfAlg)
		if err != nil {
			return err
		}
		tbl.AddRow(pol.String(), xy, nf, fmt.Sprintf("%.2fx", nf/xy))
	}
	fmt.Fprintf(w, "16x16 mesh, matrix transpose, bisected sustainable edges:\n%s", tbl)
	fmt.Fprintf(w, "\npaper reference: the partially adaptive maximum sustainable throughput is\n\"twice that of the nonadaptive algorithms\" (Section 6)\n")
	return nil
}
