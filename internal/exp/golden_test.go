package exp

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden experiment outputs in results/")

// goldenIDs lists the experiments whose output is fully deterministic
// (model-level computations and fixed scripted scenarios), pinned
// against accidental regressions.
var goldenIDs = []string{
	"fig1", "fig2", "fig3", "fig4", "fig5", "fig9", "fig10",
	"thm1", "thm2", "thm3", "thm5",
	"turnpairs", "pcube10", "pathlen", "intro", "hex",
}

// TestGoldenOutputs compares each deterministic experiment's output to
// its checked-in results/<id>.txt, the file `experiments -seed 1 -out
// results` writes. Run with -update-golden after an intentional change.
func TestGoldenOutputs(t *testing.T) {
	for _, id := range goldenIDs {
		id := id
		t.Run(id, func(t *testing.T) {
			e, ok := ByID(id)
			if !ok {
				t.Fatalf("unknown experiment %s", id)
			}
			var buf bytes.Buffer
			if err := e.Run(Options{Seed: 1}, &buf); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("..", "..", "results", id+".txt")
			if *updateGolden {
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run go test ./internal/exp -run TestGolden -update-golden): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("output differs from %s;\n---- got ----\n%s\n---- want ----\n%s", path, buf.Bytes(), want)
			}
		})
	}
}
