// Package cli parses the shared command-line vocabulary of the cmd/
// tools: topology specs, algorithm names, traffic patterns, load ranges
// and the simulation figure the three names describe together.
package cli

import (
	"fmt"
	"strconv"
	"strings"

	"turnmodel/internal/exp"
	"turnmodel/internal/routing"
	"turnmodel/internal/sim"
	"turnmodel/internal/topology"
	"turnmodel/internal/traffic"
)

// ParseTopology parses "meshAxB[xC...]", "cubeN" (binary N-cube) or
// "torusKxN" (k-ary n-cube).
func ParseTopology(s string) (*topology.Topology, error) {
	switch {
	case strings.HasPrefix(s, "mesh"):
		dims, err := parseDims(s[4:])
		if err != nil {
			return nil, err
		}
		return topology.NewMesh(dims...), nil
	case strings.HasPrefix(s, "cube"):
		n, err := strconv.Atoi(s[4:])
		if err != nil || n < 1 {
			return nil, fmt.Errorf("cli: bad hypercube spec %q", s)
		}
		return topology.NewHypercube(n), nil
	case strings.HasPrefix(s, "torus"):
		dims, err := parseDims(s[5:])
		if err != nil || len(dims) != 2 {
			return nil, fmt.Errorf("cli: torus spec must be torusKxN (k-ary n-cube), got %q", s)
		}
		return topology.NewTorus(dims[0], dims[1]), nil
	}
	return nil, fmt.Errorf("cli: unknown topology %q", s)
}

func parseDims(s string) ([]int, error) {
	var dims []int
	for _, p := range strings.Split(s, "x") {
		v, err := strconv.Atoi(p)
		if err != nil || v < 2 {
			return nil, fmt.Errorf("cli: bad dimension %q", p)
		}
		dims = append(dims, v)
	}
	if len(dims) == 0 {
		return nil, fmt.Errorf("cli: no dimensions in %q", s)
	}
	return dims, nil
}

// AlgorithmNames lists the accepted -alg values.
func AlgorithmNames() []string {
	return []string{
		"xy", "e-cube", "dor", "dimension-order",
		"west-first", "wf", "north-last", "nl",
		"negative-first", "nf", "p-cube",
		"abonf", "abopl",
		"negative-first-torus", "wrap-first-hop-nf", "torus-dor",
		"fully-adaptive",
	}
}

// capture converts constructor panics (e.g. west-first on a 3D mesh)
// into errors.
func capture[T any](fn func() T) (out T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("cli: %v", r)
		}
	}()
	return fn(), nil
}

// ParseAlgorithm resolves an algorithm name on t.
func ParseAlgorithm(t *topology.Topology, s string) (routing.Algorithm, error) {
	return capture(func() routing.Algorithm { return mustAlgorithm(t, s) })
}

func mustAlgorithm(t *topology.Topology, s string) routing.Algorithm {
	switch s {
	case "xy", "e-cube", "dor", "dimension-order":
		return routing.NewDimensionOrder(t)
	case "west-first", "wf":
		return routing.NewWestFirst(t)
	case "north-last", "nl":
		return routing.NewNorthLast(t)
	case "negative-first", "nf", "p-cube":
		return routing.NewNegativeFirst(t)
	case "abonf":
		return routing.NewABONF(t, t.NumDims()-1)
	case "abopl":
		return routing.NewABOPL(t, 0)
	case "negative-first-torus":
		return routing.NewNegativeFirstTorus(t)
	case "wrap-first-hop-nf":
		return routing.NewWrapFirstHop(routing.NewNegativeFirst(t))
	case "torus-dor":
		return routing.NewTorusDOR(t)
	case "fully-adaptive":
		return routing.NewFullyAdaptive(t)
	}
	panic(fmt.Sprintf("unknown algorithm %q (known: %s)", s, strings.Join(AlgorithmNames(), ", ")))
}

// ParseVCAlgorithm resolves names that denote virtual-channel relations
// ("dateline-dor", "double-y"), or falls back to ParseAlgorithm wrapped
// with a single virtual channel.
func ParseVCAlgorithm(t *topology.Topology, s string) (routing.VCAlgorithm, error) {
	switch s {
	case "dateline-dor":
		return capture(func() routing.VCAlgorithm { return routing.NewDatelineDOR(t) })
	case "double-y":
		return capture(func() routing.VCAlgorithm { return routing.NewDoubleY(t) })
	}
	alg, err := ParseAlgorithm(t, s)
	if err != nil {
		return nil, err
	}
	return routing.AsVC(alg), nil
}

// ParseTraffic resolves a traffic pattern name on t.
func ParseTraffic(t *topology.Topology, s string) (traffic.Pattern, error) {
	switch s {
	case "uniform":
		return traffic.NewUniform(t), nil
	case "transpose", "matrix-transpose":
		if t.IsHypercube() {
			return traffic.NewHypercubeTranspose(t), nil
		}
		return traffic.NewMeshTranspose(t), nil
	case "reverse-flip":
		return traffic.NewReverseFlip(t), nil
	case "bit-complement":
		return traffic.NewBitComplement(t), nil
	case "hotspot":
		return traffic.NewHotspot(t, 0, 0.1), nil
	case "tornado":
		return traffic.NewTornado(t), nil
	case "bit-reversal":
		return traffic.NewBitReversal(t), nil
	case "shuffle":
		return traffic.NewShuffle(t), nil
	}
	return nil, fmt.Errorf("cli: unknown traffic pattern %q", s)
}

// ParseLoads parses "lo:hi:step" or a comma-separated list of offered
// loads in flits/us/node.
func ParseLoads(s string) ([]float64, error) {
	if strings.Contains(s, ":") {
		parts := strings.Split(s, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("cli: range must be lo:hi:step, got %q", s)
		}
		lo, err1 := strconv.ParseFloat(parts[0], 64)
		hi, err2 := strconv.ParseFloat(parts[1], 64)
		step, err3 := strconv.ParseFloat(parts[2], 64)
		if err1 != nil || err2 != nil || err3 != nil || step <= 0 || hi < lo || lo <= 0 {
			return nil, fmt.Errorf("cli: bad load range %q", s)
		}
		var loads []float64
		for l := lo; l <= hi+1e-9; l += step {
			loads = append(loads, l)
		}
		return loads, nil
	}
	var loads []float64
	for _, p := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("cli: bad load %q", p)
		}
		loads = append(loads, v)
	}
	return loads, nil
}

// Figure builds the simulation figure that a topology spec, a
// comma-separated algorithm list and a traffic pattern name describe:
// one line per algorithm, in list order, over the mesh figures' load
// grid. Every name is resolved here, so an unknown one fails before any
// simulation runs. The ID names all three, e.g.
// "mesh8x8-transpose-xy+west-first".
func Figure(topo, algs, pattern string) (exp.FigureSpec, error) {
	t, err := ParseTopology(topo)
	if err != nil {
		return exp.FigureSpec{}, err
	}
	pat, err := ParseTraffic(t, pattern)
	if err != nil {
		return exp.FigureSpec{}, err
	}
	names := strings.Split(algs, ",")
	for i, name := range names {
		names[i] = strings.TrimSpace(name)
		if _, err := ParseAlgorithm(t, names[i]); err != nil {
			return exp.FigureSpec{}, err
		}
	}
	// The spec's constructors resolve the names checked above again, on
	// topologies built from the same spec, so they cannot fail.
	return exp.FigureSpec{
		ID:       fmt.Sprintf("%s-%s-%s", topo, pattern, strings.Join(names, "+")),
		Title:    fmt.Sprintf("%s traffic on the %v", pat.Name(), t),
		Topology: func() *topology.Topology { t, _ := ParseTopology(topo); return t },
		Pattern:  func(t *topology.Topology) traffic.Pattern { p, _ := ParseTraffic(t, pattern); return p },
		Algs: func(t *topology.Topology) []routing.Algorithm {
			out := make([]routing.Algorithm, len(names))
			for i, name := range names {
				out[i] = mustAlgorithm(t, name)
			}
			return out
		},
		Loads: exp.MeshLoads,
	}, nil
}

// ParsePolicy resolves an output selection policy name.
func ParsePolicy(s string) (sim.OutputPolicy, error) {
	switch s {
	case "xy", "lowest":
		return sim.LowestDimension, nil
	case "high", "highest":
		return sim.HighestDimension, nil
	case "random":
		return sim.RandomPolicy, nil
	}
	return 0, fmt.Errorf("cli: unknown output policy %q", s)
}

// ParseInputPolicy resolves an input selection policy name.
func ParseInputPolicy(s string) (sim.InputPolicy, error) {
	switch s {
	case "fcfs", "local-fcfs":
		return sim.LocalFCFS, nil
	case "port", "port-order":
		return sim.PortOrder, nil
	case "random":
		return sim.RandomInput, nil
	}
	return 0, fmt.Errorf("cli: unknown input policy %q", s)
}
