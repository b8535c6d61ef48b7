package exp

import (
	"fmt"
	"io"
	"math/big"

	"turnmodel/internal/adapt"
	"turnmodel/internal/core"
	"turnmodel/internal/deadlock"
	"turnmodel/internal/routing"
	"turnmodel/internal/sim"
	"turnmodel/internal/stats"
	"turnmodel/internal/topology"
	"turnmodel/internal/traffic"
)

// Figure1Script returns the paper's Figure 1 scenario: four packets on a
// 2x2 mesh, each trying to turn left, injected simultaneously. Under an
// unrestricted (fully adaptive) relation they enter a circular wait.
func Figure1Script() []sim.ScriptedMessage {
	t := topology.NewMesh(2, 2)
	east := topology.Direction{Dim: 0, Pos: true}
	west := topology.Direction{Dim: 0}
	north := topology.Direction{Dim: 1, Pos: true}
	south := topology.Direction{Dim: 1}
	at := func(x, y int) topology.NodeID { return t.ID(topology.Coord{x, y}) }
	return []sim.ScriptedMessage{
		{Src: at(0, 0), Dst: at(1, 1), Length: 4, FirstDir: &east},
		{Src: at(1, 0), Dst: at(0, 1), Length: 4, FirstDir: &north},
		{Src: at(1, 1), Dst: at(0, 0), Length: 4, FirstDir: &west},
		{Src: at(0, 1), Dst: at(1, 0), Length: 4, FirstDir: &south},
	}
}

// RunFigure1 simulates the Figure 1 scenario under alg and reports the
// outcome. The scripted first hops steer each packet into the left-turn
// pattern when the relation offers them.
func RunFigure1(alg routing.Algorithm, seed int64) (sim.Result, error) {
	return sim.Run(sim.Config{
		Algorithm:         alg,
		Script:            Figure1Script(),
		Seed:              seed,
		DeadlockThreshold: 500,
		DrainDeadline:     100000,
	})
}

func init() {
	register(Experiment{
		ID:    "fig1",
		Title: "Figure 1: a wormhole deadlock involving four routers and four packets",
		Run: func(o Options, w io.Writer) error {
			t := topology.NewMesh(2, 2)
			full := routing.NewFullyAdaptive(t)
			r, err := RunFigure1(full, o.Seed)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "four packets, each turning left, under %s routing:\n  deadlocked=%v delivered=%d/%d\n",
				full.Name(), r.Deadlocked, r.PacketsDelivered, r.PacketsGenerated)
			wf := routing.NewWestFirst(t)
			r2, err := RunFigure1(wf, o.Seed)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "same scenario under %s (two turns prohibited):\n  deadlocked=%v delivered=%d/%d\n",
				wf.Name(), r2.Deadlocked, r2.PacketsDelivered, r2.PacketsGenerated)
			return nil
		},
	})

	register(Experiment{
		ID:    "fig2",
		Title: "Figure 2: the possible abstract cycles and turns in a 2D mesh",
		Run: func(_ Options, w io.Writer) error {
			turns := core.AllTurns(2)
			fmt.Fprintf(w, "90-degree turns in a 2D mesh: %d (4n(n-1) with n=2)\n", len(turns))
			for _, c := range core.AbstractCycles(2) {
				fmt.Fprintf(w, "  %v\n", c)
			}
			return nil
		},
	})

	register(Experiment{
		ID:    "fig3",
		Title: "Figure 3: only four turns are allowed in the xy routing algorithm",
		Run: func(_ Options, w io.Writer) error {
			set := core.DimensionOrderSet(2)
			fmt.Fprintf(w, "xy allowed turns: %d of %d\nprohibited: %v\n",
				set.NumAllowed(), len(core.AllTurns(2)), set.Prohibited())
			t := topology.NewMesh(8, 8)
			res := deadlock.Check(routing.NewDimensionOrder(t))
			fmt.Fprintf(w, "xy on %v: %v\n", t, res)
			// No adaptiveness: every pair has exactly one path.
			xy := routing.NewDimensionOrder(t)
			one := big.NewInt(1)
			for src := topology.NodeID(0); src < topology.NodeID(t.Nodes()); src++ {
				for dst := topology.NodeID(0); dst < topology.NodeID(t.Nodes()); dst++ {
					if src == dst {
						continue
					}
					if adapt.CountShortestPaths(xy, src, dst).Cmp(one) != 0 {
						return fmt.Errorf("xy offered multiple paths for %d->%d", src, dst)
					}
				}
			}
			fmt.Fprintf(w, "every source-destination pair has exactly 1 path (no adaptiveness)\n")
			return nil
		},
	})

	register(Experiment{
		ID:    "fig4",
		Title: "Figure 4: six turns that complete the abstract cycles and allow deadlock",
		Run: func(_ Options, w io.Writer) error {
			set := core.Figure4Set()
			ok, _ := set.BreaksAllAbstractCycles()
			fmt.Fprintf(w, "%v\nprohibits one turn from each abstract cycle: %v\n", set, ok)
			t := topology.NewMesh(4, 4)
			res := deadlock.CheckTurnSet(t, set)
			fmt.Fprintf(w, "turn-relation channel dependency graph on %v: %v\n", t, res)
			if res.DeadlockFree {
				return fmt.Errorf("figure 4 set unexpectedly deadlock free")
			}
			fmt.Fprintf(w, "the three allowed left turns compose to the prohibited right\nturn (and vice versa), so both cycles still exist\n")
			return nil
		},
	})

	registerTurnSetFigure("fig5", "Figure 5: the west-first routing algorithm for 2D meshes",
		core.WestFirstSet, func(t *topology.Topology) routing.Algorithm { return routing.NewWestFirst(t) })
	registerTurnSetFigure("fig9", "Figure 9: the north-last routing algorithm for 2D meshes",
		core.NorthLastSet, func(t *topology.Topology) routing.Algorithm { return routing.NewNorthLast(t) })
	registerTurnSetFigure("fig10", "Figure 10: the negative-first routing algorithm for 2D meshes",
		func() *core.Set { return core.NegativeFirstSet(2) },
		func(t *topology.Topology) routing.Algorithm { return routing.NewNegativeFirst(t) })

	register(Experiment{
		ID:    "thm1",
		Title: "Theorems 1 & 6: a quarter of the turns must and may be prohibited",
		Run: func(_ Options, w io.Writer) error {
			tbl := stats.NewTable("n", "turns 4n(n-1)", "abstract cycles n(n-1)", "minimum prohibited", "negative-first prohibits")
			for n := 2; n <= 6; n++ {
				nf := core.NegativeFirstSet(n)
				tbl.AddRow(n, core.NumTurns(n), core.NumAbstractCycles(n),
					core.MinimumProhibited(n), len(nf.Prohibited()))
			}
			fmt.Fprint(w, tbl)
			fmt.Fprintf(w, "\nsufficiency witness: negative-first prohibits exactly n(n-1) turns and is deadlock free (thm5)\n")
			return nil
		},
	})

	register(Experiment{
		ID:    "thm2",
		Title: "Theorem 2 (Figures 6-8): west-first is deadlock free, via strictly decreasing channel numbers",
		Run: func(_ Options, w io.Writer) error {
			for _, dims := range [][2]int{{4, 4}, {8, 8}, {16, 16}, {5, 9}} {
				t := topology.NewMesh(dims[0], dims[1])
				alg := routing.NewWestFirst(t)
				g := deadlock.BuildCDG(alg)
				viol := deadlock.VerifyMonotone(g, deadlock.WestFirstNumbering(t), deadlock.Decreasing)
				fmt.Fprintf(w, "%v: %d dependency edges, numbering violations: %d, acyclic: %v\n",
					t, g.NumEdges(), len(viol), g.Acyclic())
				if len(viol) > 0 || !g.Acyclic() {
					return fmt.Errorf("west-first failed deadlock-freedom verification on %v", t)
				}
			}
			return nil
		},
	})

	register(Experiment{
		ID:    "thm3",
		Title: "Theorem 3: north-last is deadlock free (rotated west-first numbering, strictly increasing)",
		Run: func(_ Options, w io.Writer) error {
			for _, dims := range [][2]int{{4, 4}, {8, 8}, {16, 16}, {9, 5}} {
				t := topology.NewMesh(dims[0], dims[1])
				alg := routing.NewNorthLast(t)
				g := deadlock.BuildCDG(alg)
				viol := deadlock.VerifyMonotone(g, deadlock.NorthLastNumbering(t), deadlock.Increasing)
				fmt.Fprintf(w, "%v: %d dependency edges, numbering violations: %d, acyclic: %v\n",
					t, g.NumEdges(), len(viol), g.Acyclic())
				if len(viol) > 0 || !g.Acyclic() {
					return fmt.Errorf("north-last failed deadlock-freedom verification on %v", t)
				}
			}
			return nil
		},
	})

	register(Experiment{
		ID:    "thm5",
		Title: "Theorems 4 & 5: negative-first is deadlock free in n dimensions (K-n+-X numbering, strictly increasing)",
		Run: func(_ Options, w io.Writer) error {
			tops := []*topology.Topology{
				topology.NewMesh(16, 16),
				topology.NewMesh(4, 4, 4),
				topology.NewMesh(3, 4, 5, 2),
				topology.NewHypercube(8),
			}
			for _, t := range tops {
				alg := routing.NewNegativeFirst(t)
				g := deadlock.BuildCDG(alg)
				viol := deadlock.VerifyMonotone(g, deadlock.NegativeFirstNumbering(t), deadlock.Increasing)
				fmt.Fprintf(w, "%v: %d dependency edges, numbering violations: %d, acyclic: %v\n",
					t, g.NumEdges(), len(viol), g.Acyclic())
				if len(viol) > 0 || !g.Acyclic() {
					return fmt.Errorf("negative-first failed deadlock-freedom verification on %v", t)
				}
			}
			return nil
		},
	})

	register(Experiment{
		ID:    "turnpairs",
		Title: "Section 3: of 16 ways to prohibit one turn per cycle, 12 prevent deadlock, 3 unique under symmetry",
		Run: func(_ Options, w io.Writer) error {
			t := topology.NewMesh(6, 6)
			var free, dead int
			tbl := stats.NewTable("prohibited pair", "deadlock free")
			var freeSets []*core.Set
			for _, set := range core.OneTurnPerCyclePairs2D() {
				res := deadlock.CheckTurnSet(t, set)
				verdict := "yes"
				if res.DeadlockFree {
					free++
					freeSets = append(freeSets, set)
				} else {
					dead++
					verdict = "NO (cycle remains)"
				}
				tbl.AddRow(fmt.Sprint(set.Prohibited()), verdict)
			}
			fmt.Fprint(w, tbl)
			classes := SymmetryClasses2D(freeSets)
			fmt.Fprintf(w, "\n%d of 16 prevent deadlock; %d allow it; %d unique classes under mesh symmetry\n",
				free, dead, classes)
			if free != 12 || classes != 3 {
				return fmt.Errorf("expected 12 deadlock-free pairs in 3 classes, got %d in %d", free, classes)
			}
			return nil
		},
	})

	register(Experiment{
		ID:    "adapt",
		Title: "Sections 3.4 & 4.1: degree of adaptiveness S_p/S_f",
		Run: func(o Options, w io.Writer) error {
			t := topology.NewMesh(16, 16)
			tbl := stats.NewTable("algorithm", "mean S_p/S_f", "fraction of pairs with S_p=1")
			for _, e := range []struct {
				name string
				fn   adapt.SFunc
			}{
				{"fully adaptive", func(s, d topology.NodeID) *big.Int { return adapt.SFull(t, s, d) }},
				{"west-first", func(s, d topology.NodeID) *big.Int { return adapt.SWestFirst(t, s, d) }},
				{"north-last", func(s, d topology.NodeID) *big.Int { return adapt.SNorthLast(t, s, d) }},
				{"negative-first", func(s, d topology.NodeID) *big.Int { return adapt.SNegativeFirst(t, s, d) }},
			} {
				r := adapt.AverageRatio(t, e.fn)
				tbl.AddRow(e.name, fmt.Sprintf("%.4f", r.MeanRatio), fmt.Sprintf("%.4f", r.FractionSingle))
			}
			fmt.Fprintf(w, "16x16 mesh (%d ordered pairs):\n%s", 256*255, tbl)
			fmt.Fprintf(w, "\nSection 3.4: averaged across all pairs, S_p/S_f > 1/2 for each partially adaptive algorithm\n")

			h := topology.NewHypercube(8)
			tbl2 := stats.NewTable("algorithm", "mean S_p/S_f")
			rNF := adapt.AverageRatio(h, func(s, d topology.NodeID) *big.Int { return adapt.SNegativeFirst(h, s, d) })
			tbl2.AddRow("p-cube (8-cube)", fmt.Sprintf("%.4f", rNF.MeanRatio))
			fmt.Fprintf(w, "\nbinary 8-cube:\n%s", tbl2)
			fmt.Fprintf(w, "\nSection 4.1: the ratio decreases with n but stays above 1/2^(n-1) = %.6f\n",
				1.0/float64(int(1)<<7))
			return nil
		},
	})

	register(Experiment{
		ID:    "pcube10",
		Title: "Section 5 table: p-cube routing choices from 1011010100 to 0010111001 in a 10-cube",
		Run: func(_ Options, w io.Writer) error {
			t := topology.NewHypercube(10)
			src := topology.NodeID(0b1011010100)
			dst := topology.NodeID(0b0010111001)
			rows := adapt.PCubeWalkChoices(t, src, dst, []int{2, 9, 6, 5, 0, 3})
			tbl := stats.NewTable("address", "choices", "dimension taken", "comment")
			for i, r := range rows {
				comment := ""
				switch {
				case i == 0:
					comment = "source"
				case i == len(rows)-1:
					comment = "destination"
				case r.Phase == 1:
					comment = "phase 1"
				default:
					comment = "phase 2"
				}
				choices, dim := "", ""
				if i < len(rows)-1 {
					choices = fmt.Sprint(r.Choices)
					if r.NonminimalChoices > 0 {
						choices = fmt.Sprintf("%d(+%d)", r.Choices, r.NonminimalChoices)
					}
					dim = fmt.Sprint(r.DimensionTaken)
				}
				tbl.AddRow(fmt.Sprintf("%010b", uint(r.Node)), choices, dim, comment)
			}
			fmt.Fprint(w, tbl)
			sp := routing.NumShortestPCube(routing.AddrOf(src), routing.AddrOf(dst))
			sf := routing.NumShortestFullHypercube(routing.AddrOf(src), routing.AddrOf(dst))
			fmt.Fprintf(w, "\nS_p-cube = h1! * h0! = %d of S_f = h! = %d shortest paths (h=6, h0=3, h1=3)\n", sp, sf)
			return nil
		},
	})

	register(Experiment{
		ID:    "pathlen",
		Title: "Section 6 (text): average path lengths per traffic pattern",
		Run: func(_ Options, w io.Writer) error {
			mesh := topology.NewMesh(16, 16)
			cube := topology.NewHypercube(8)
			tbl := stats.NewTable("topology", "pattern", "average path length (hops)", "paper")
			tbl.AddRow(mesh.String(), "uniform", fmt.Sprintf("%.2f", traffic.AverageUniformPathLength(mesh)), "10.61")
			tbl.AddRow(mesh.String(), "matrix-transpose", fmt.Sprintf("%.2f", traffic.AveragePathLength(mesh, traffic.NewMeshTranspose(mesh))), "11.34")
			tbl.AddRow(cube.String(), "uniform", fmt.Sprintf("%.2f", traffic.AverageUniformPathLength(cube)), "4.01")
			tbl.AddRow(cube.String(), "matrix-transpose", fmt.Sprintf("%.2f", traffic.AveragePathLength(cube, traffic.NewHypercubeTranspose(cube))), "(n/a)")
			tbl.AddRow(cube.String(), "reverse-flip", fmt.Sprintf("%.2f", traffic.AveragePathLength(cube, traffic.NewReverseFlip(cube))), "4.27")
			fmt.Fprint(w, tbl)
			return nil
		},
	})

	register(Experiment{
		ID:    "claims",
		Title: "Section 6: sustainable-throughput ratio claims",
		Run:   runClaims,
	})
}

// registerTurnSetFigure registers the pattern shared by Figures 5, 9 and
// 10: print the allowed turn set, verify deadlock freedom, and show
// example paths in an 8x8 mesh.
func registerTurnSetFigure(id, title string, set func() *core.Set, mk func(*topology.Topology) routing.Algorithm) {
	register(Experiment{
		ID:    id,
		Title: title,
		Run: func(_ Options, w io.Writer) error {
			s := set()
			fmt.Fprintf(w, "%v\nallowed 90-degree turns: %d of 8\n", s, s.NumAllowed())
			fmt.Fprint(w, routing.RenderTurns(func(from, to topology.Direction) bool {
				return s.Allowed(core.Turn{From: from, To: to})
			}))
			t := topology.NewMesh(8, 8)
			alg := mk(t)
			res := deadlock.Check(alg)
			fmt.Fprintf(w, "%s on %v: %v\n\nexample paths:\n", alg.Name(), t, res)
			if !res.DeadlockFree {
				return fmt.Errorf("%s unexpectedly not deadlock free", alg.Name())
			}
			pairs := [][2]topology.Coord{
				{{6, 1}, {1, 6}},
				{{1, 2}, {6, 6}},
				{{5, 6}, {2, 0}},
			}
			for _, pr := range pairs {
				src, dst := t.ID(pr[0]), t.ID(pr[1])
				path, err := routing.Walk(alg, src, dst, nil)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "  %v\n", routing.FormatPath(t, path))
				for _, line := range splitLines(routing.RenderPathGrid(t, path)) {
					fmt.Fprintf(w, "    %s\n", line)
				}
			}
			// The figures' gray bars: block a channel on the default
			// route and show the adaptive alternative (the turn-set
			// relation honors faults).
			src, dst := t.ID(pairs[1][0]), t.ID(pairs[1][1])
			rel := routing.NewTurnGraphRouting(t, s, true)
			path, err := routing.Walk(rel, src, dst, nil)
			if err != nil {
				return err
			}
			blocked := topology.Channel{From: path[1], Dir: dirBetween(t, path[1], path[2])}
			if err := t.DisableChannel(blocked); err != nil {
				return err
			}
			alt, altErr := routing.Walk(rel, src, dst, nil)
			if err := t.EnableChannel(blocked); err != nil {
				return err
			}
			if altErr != nil {
				// The paper's dashed lines: no allowed alternative, the
				// packet waits for the blocked channel.
				fmt.Fprintf(w, "\nwith channel %v blocked (the figures' gray bars), this relation\noffers no alternative turn here: the packet must wait (the figures'\ndashed lines)\n", blocked)
				return nil
			}
			fmt.Fprintf(w, "\nwith channel %v blocked (the figures' gray bars), the relation\nadapts onto an alternative shortest path:\n  %v\n", blocked, routing.FormatPath(t, alt))
			return nil
		},
	})
}

// dirBetween returns the direction of the channel from a to its
// neighbor b.
func dirBetween(t *topology.Topology, a, b topology.NodeID) topology.Direction {
	for i := 0; i < 2*t.NumDims(); i++ {
		d := topology.DirectionFromIndex(i)
		if next, ok := t.Neighbor(a, d); ok && next == b {
			return d
		}
	}
	panic("exp: nodes are not neighbors")
}

// SymmetryClasses2D counts equivalence classes of 2D turn sets under the
// eight symmetries of the square (rotations and reflections), the sense
// in which Section 3 calls three of the twelve deadlock-free
// prohibitions unique. Classes are keyed by core.CanonicalKey2D, the
// same canonicalization the exhaustive explorer deduplicates with.
func SymmetryClasses2D(sets []*core.Set) int {
	canon := map[uint16]bool{}
	for _, s := range sets {
		canon[core.CanonicalKey2D(s.Key())] = true
	}
	return len(canon)
}

// ClaimResult records one Section 6 ratio claim against its measurement.
type ClaimResult struct {
	Name     string
	Paper    float64
	Measured float64
}

// RunClaims computes the Section 6 sustainable-throughput ratios from
// the figure sweeps.
func RunClaims(o Options) ([]ClaimResult, error) {
	claimFigs := []string{"fig13", "fig14", "fig15", "fig16", "fig13c"}
	// Warm the figure cache with every claim figure in one parallel
	// batch; the RunFigure calls below then hit the cache.
	var specs []FigureSpec
	for _, id := range claimFigs {
		f, _ := FigureByID(id)
		specs = append(specs, f)
	}
	if err := RunFigureSet(specs, o, nil); err != nil {
		return nil, err
	}
	best := map[string]map[string]float64{} // figID -> alg -> max sustainable
	for _, id := range claimFigs {
		f, _ := FigureByID(id)
		sweeps, err := RunFigure(f, o)
		if err != nil {
			return nil, err
		}
		m := map[string]float64{}
		for _, s := range sweeps {
			thr, _ := s.MaxSustainable()
			m[s.Algorithm] = thr
		}
		best[id] = m
	}
	bestPA := func(fig string) float64 {
		var b float64
		for alg, thr := range best[fig] {
			if alg != "xy" && alg != "e-cube" && thr > b {
				b = thr
			}
		}
		return b
	}
	return []ClaimResult{
		{"mesh transpose: best PA / xy", 2.0, ratio(bestPA("fig14"), best["fig14"]["xy"])},
		{"cube transpose: best PA / e-cube", 2.0, ratio(bestPA("fig15"), best["fig15"]["e-cube"])},
		{"cube reverse-flip: best PA / e-cube", 4.0, ratio(bestPA("fig16"), best["fig16"]["e-cube"])},
		{"negative-first transpose / xy uniform (mesh)", 1.3, ratio(best["fig14"]["negative-first"], best["fig13"]["xy"])},
		{"PA reverse-flip / e-cube uniform (cube)", 1.5, ratio(bestPA("fig16"), best["fig13c"]["e-cube"])},
	}, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func runClaims(o Options, w io.Writer) error {
	claims, err := RunClaims(o)
	if err != nil {
		return err
	}
	tbl := stats.NewTable("claim", "paper ratio", "measured ratio")
	for _, c := range claims {
		tbl.AddRow(c.Name, fmt.Sprintf("%.1fx", c.Paper), fmt.Sprintf("%.2fx", c.Measured))
	}
	fmt.Fprint(w, tbl)
	return nil
}
