package cli

import (
	"strings"
	"testing"

	"turnmodel/internal/sim"
)

func TestParseTopology(t *testing.T) {
	good := map[string]string{
		"mesh16x16": "16x16 mesh",
		"mesh3x4x5": "3x4x5 mesh",
		"cube8":     "binary 8-cube",
		"torus8x2":  "8-ary 2-cube",
	}
	for spec, want := range good {
		topo, err := ParseTopology(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if topo.String() != want {
			t.Errorf("%s parsed to %v, want %s", spec, topo, want)
		}
	}
	for _, bad := range []string{"", "grid4x4", "mesh", "meshAxB", "mesh1x4", "cube0", "cubeX", "torus4", "torus4x4x4"} {
		if _, err := ParseTopology(bad); err == nil {
			t.Errorf("%q should fail", bad)
		}
	}
}

func TestParseAlgorithm(t *testing.T) {
	mesh, _ := ParseTopology("mesh8x8")
	for _, name := range []string{"xy", "west-first", "nl", "negative-first", "abonf", "abopl", "fully-adaptive"} {
		alg, err := ParseAlgorithm(mesh, name)
		if err != nil || alg == nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := ParseAlgorithm(mesh, "bogus"); err == nil || !strings.Contains(err.Error(), "known:") {
		t.Errorf("unknown algorithm should list the options, got %v", err)
	}
	// Constructor panics surface as errors, not crashes.
	mesh3, _ := ParseTopology("mesh4x4x4")
	if _, err := ParseAlgorithm(mesh3, "west-first"); err == nil {
		t.Error("west-first on a 3D mesh should error")
	}
	torus, _ := ParseTopology("torus8x2")
	if _, err := ParseAlgorithm(mesh, "negative-first-torus"); err == nil {
		t.Error("negative-first-torus on a mesh should error")
	}
	if _, err := ParseAlgorithm(torus, "negative-first-torus"); err != nil {
		t.Errorf("negative-first-torus on a torus: %v", err)
	}
}

func TestParseVCAlgorithm(t *testing.T) {
	torus, _ := ParseTopology("torus8x2")
	mesh, _ := ParseTopology("mesh8x8")
	if v, err := ParseVCAlgorithm(torus, "dateline-dor"); err != nil || v.NumVCs() != 2 {
		t.Errorf("dateline: %v %v", v, err)
	}
	if v, err := ParseVCAlgorithm(mesh, "double-y"); err != nil || v.NumVCs() != 2 {
		t.Errorf("double-y: %v %v", v, err)
	}
	if _, err := ParseVCAlgorithm(mesh, "dateline-dor"); err == nil {
		t.Error("dateline on a mesh should error")
	}
	if v, err := ParseVCAlgorithm(mesh, "west-first"); err != nil || v.NumVCs() != 1 {
		t.Errorf("plain algorithm should adapt to one VC: %v %v", v, err)
	}
}

func TestParseTraffic(t *testing.T) {
	mesh, _ := ParseTopology("mesh16x16")
	cube, _ := ParseTopology("cube8")
	for _, name := range []string{"uniform", "transpose", "bit-complement", "hotspot", "tornado"} {
		if _, err := ParseTraffic(mesh, name); err != nil {
			t.Errorf("%s on mesh: %v", name, err)
		}
	}
	for _, name := range []string{"reverse-flip", "bit-reversal", "shuffle", "matrix-transpose"} {
		if _, err := ParseTraffic(cube, name); err != nil {
			t.Errorf("%s on cube: %v", name, err)
		}
	}
	if _, err := ParseTraffic(mesh, "nonsense"); err == nil {
		t.Error("unknown pattern should fail")
	}
	// Transpose dispatches by topology kind.
	p, _ := ParseTraffic(cube, "transpose")
	if p.Name() != "matrix-transpose" {
		t.Errorf("cube transpose resolved to %s", p.Name())
	}
}

func TestParseLoads(t *testing.T) {
	loads, err := ParseLoads("0.5:2.0:0.5")
	if err != nil || len(loads) != 4 || loads[0] != 0.5 || loads[3] != 2.0 {
		t.Errorf("range parse: %v %v", loads, err)
	}
	loads, err = ParseLoads("1, 2.5, 3")
	if err != nil || len(loads) != 3 || loads[1] != 2.5 {
		t.Errorf("list parse: %v %v", loads, err)
	}
	for _, bad := range []string{"", "1:2", "2:1:0.5", "1:2:-1", "0:1:0.5", "a,b", "-1"} {
		if _, err := ParseLoads(bad); err == nil {
			t.Errorf("%q should fail", bad)
		}
	}
}

func TestParsePolicies(t *testing.T) {
	if p, err := ParsePolicy("xy"); err != nil || p != sim.LowestDimension {
		t.Errorf("xy policy: %v %v", p, err)
	}
	if p, err := ParsePolicy("random"); err != nil || p != sim.RandomPolicy {
		t.Errorf("random policy: %v %v", p, err)
	}
	if _, err := ParsePolicy("zigzag"); err == nil {
		t.Error("unknown output policy should fail")
	}
	if p, err := ParseInputPolicy("fcfs"); err != nil || p != sim.LocalFCFS {
		t.Errorf("fcfs: %v %v", p, err)
	}
	if p, err := ParseInputPolicy("port"); err != nil || p != sim.PortOrder {
		t.Errorf("port: %v %v", p, err)
	}
	if _, err := ParseInputPolicy("psychic"); err == nil {
		t.Error("unknown input policy should fail")
	}
}

func TestAlgorithmNamesAllParse(t *testing.T) {
	mesh, _ := ParseTopology("mesh8x8")
	torus, _ := ParseTopology("torus8x2")
	for _, name := range AlgorithmNames() {
		if _, errMesh := ParseAlgorithm(mesh, name); errMesh != nil {
			if _, errTorus := ParseAlgorithm(torus, name); errTorus != nil {
				t.Errorf("%s parses on neither mesh nor torus: %v / %v", name, errMesh, errTorus)
			}
		}
	}
}

// TestFigure: the figure the -topo, -alg and -traffic strings describe
// has an ID that tells figures apart, one line per algorithm in -alg
// order, and no unknown name gets past it.
func TestFigure(t *testing.T) {
	f, err := Figure("mesh8x8", "west-first, xy", "transpose")
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != "mesh8x8-transpose-west-first+xy" {
		t.Errorf("ID %q, want mesh8x8-transpose-west-first+xy", f.ID)
	}
	topo := f.Topology()
	if topo.String() != "8x8 mesh" || f.Pattern(topo).Name() != "matrix-transpose" {
		t.Errorf("figure simulates %s traffic on the %v", f.Pattern(topo).Name(), topo)
	}
	var lines []string
	for _, a := range f.Algs(topo) {
		lines = append(lines, a.Name())
	}
	wf, _ := ParseAlgorithm(topo, "west-first")
	xy, _ := ParseAlgorithm(topo, "xy")
	if want := []string{wf.Name(), xy.Name()}; strings.Join(lines, ",") != strings.Join(want, ",") {
		t.Errorf("lines %v, want %v in -alg order", lines, want)
	}

	ids := map[string]string{f.ID: "base"}
	for _, c := range []struct{ what, topo, algs, pattern string }{
		{"topology", "mesh16x16", "west-first,xy", "transpose"},
		{"algorithm order", "mesh8x8", "xy,west-first", "transpose"},
		{"algorithm list", "mesh8x8", "west-first", "transpose"},
		{"traffic", "mesh8x8", "west-first,xy", "uniform"},
	} {
		g, err := Figure(c.topo, c.algs, c.pattern)
		if err != nil {
			t.Fatalf("%s: %v", c.what, err)
		}
		if prev, dup := ids[g.ID]; dup {
			t.Errorf("changing the %s keeps the ID %q of %s", c.what, g.ID, prev)
		}
		ids[g.ID] = c.what
	}

	for _, bad := range [][3]string{
		{"grid8x8", "xy", "uniform"},
		{"mesh8x8", "xy,zigzag", "uniform"},
		{"mesh8x8", "xy", "psychic"},
		{"mesh8x8x4", "west-first", "uniform"},
	} {
		if _, err := Figure(bad[0], bad[1], bad[2]); err == nil {
			t.Errorf("Figure(%q, %q, %q) should fail", bad[0], bad[1], bad[2])
		}
	}
}
