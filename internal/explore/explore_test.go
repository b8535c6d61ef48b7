package explore

import (
	"bytes"
	"context"
	"errors"
	"math/big"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"turnmodel/internal/adapt"
	"turnmodel/internal/core"
	"turnmodel/internal/exp"
	"turnmodel/internal/routing"
	"turnmodel/internal/topology"
)

// TestScreenCounts pins the design-space structure: the class count is
// the Burnside orbit count, the deadlock-free frontier matches the
// theory (everything prohibiting at least one turn per abstract cycle
// is acyclic except the four bad reverse pairs), and the counts are
// mesh independent.
func TestScreenCounts(t *testing.T) {
	want := Counts{Sets: 256, Classes: 43, FreeSets: 221, FreeClasses: 36, Survivors: 9}
	for _, dims := range [][]int{{6, 6}, {5, 4}} {
		s := Screen(topology.NewMesh(dims...))
		if got := s.Counts(); got != want {
			t.Errorf("mesh %v: counts %+v, want %+v", dims, got, want)
		}
		if err := s.SelfCheck(); err != nil {
			t.Errorf("mesh %v: self-check: %v", dims, err)
		}
	}
}

// TestCanonicalizationSound is the satellite property test: screening
// one representative per class loses nothing, because every raw set's
// verdict equals its canonical representative's.
func TestCanonicalizationSound(t *testing.T) {
	s := Screen(topology.NewMesh(6, 6))
	for key := 0; key < core.NumSets2D; key++ {
		if s.DeadlockFree[key] != s.DeadlockFree[s.Canon[key]] {
			t.Errorf("set %#02x and its representative %#02x disagree on deadlock freedom",
				key, s.Canon[key])
		}
	}
	for _, c := range s.Classes {
		for _, m := range c.Members {
			if s.Canon[m] != c.Canon {
				t.Errorf("member %#02x of class %#02x maps to %#02x", m, c.Canon, s.Canon[m])
			}
		}
	}
}

// TestSymmetricMetricsInvariant: deterministic figures — adaptivity
// degree and minimal-relation connectivity — are identical for a set
// and every symmetry image of it, the property that justifies reusing
// the representative's benchmark figures for the whole class.
func TestSymmetricMetricsInvariant(t *testing.T) {
	topo := topology.NewMesh(5, 5)
	ratio := func(key uint16) float64 {
		alg := routing.NewTurnGraphRouting(topo, core.SetFromKey2D(key), true)
		return adapt.AverageRatio(topo, func(src, dst topology.NodeID) *big.Int {
			return adapt.CountShortestPaths(alg, src, dst)
		}).MeanRatio
	}
	for _, key := range []uint16{
		core.WestFirstSet().Key(),
		core.NorthLastSet().Key(),
		core.NegativeFirstSet(2).Key(),
		0x07,
	} {
		want := ratio(key)
		conn := minimalConnected(topo, key)
		for _, sy := range core.Symmetries2D() {
			img := sy.PermuteKey(key)
			// The per-pair ratios are identical multisets; only the
			// floating-point accumulation order differs under relabeling.
			if got := ratio(img); got < want-1e-9 || got > want+1e-9 {
				t.Errorf("set %#02x image %#02x (%s): adaptivity %v, want %v", key, img, sy.Name(), got, want)
			}
			if minimalConnected(topo, img) != conn {
				t.Errorf("set %#02x image %#02x (%s): connectivity differs", key, img, sy.Name())
			}
		}
	}
}

// campaignFor builds a small, fast campaign over a shared screening.
func campaignFor(t *testing.T, s *Screening, dir, name string) *Campaign {
	t.Helper()
	return &Campaign{
		Screen:   s,
		Patterns: []string{"transpose"},
		Opts: exp.Options{
			Quick: true, Seed: 7,
			Loads:   []float64{0.5, 2.0},
			Warmup:  300,
			Measure: 700,
		},
		LogPath: filepath.Join(dir, name+".jsonl"),
		OutPath: filepath.Join(dir, name+".md"),
	}
}

// runKilled runs c, a campaign that StopAfter kills, with its first
// StopAfter figures already in exp's sweep cache: they complete before
// any leaf starts, so the stop lands ahead of every remaining leaf.
// Left to scheduling, a loaded host could delay the completion callback
// that closes the stop channel until every leaf had run, and the
// "killed" run would finish.
func runKilled(t *testing.T, c *Campaign) error {
	t.Helper()
	specs, err := c.specs()
	if err != nil {
		t.Fatal(err)
	}
	if err := exp.RunFigureSet(specs[:c.StopAfter], c.Opts, nil); err != nil {
		t.Fatal(err)
	}
	return c.Run()
}

// TestCampaignResume is the kill-and-resume contract: cancel a
// campaign after a few completed figures, rerun it against the same
// checkpoint log, and the finished leaderboard must be byte identical
// to an uninterrupted campaign's.
func TestCampaignResume(t *testing.T) {
	dir := t.TempDir()
	s := Screen(topology.NewMesh(5, 5))

	// Killed run: stop after 3 checkpointed figures.
	killed := campaignFor(t, s, dir, "resumed")
	killed.StopAfter = 3
	killed.Opts.Workers = 1
	if err := runKilled(t, killed); !errors.Is(err, context.Canceled) {
		t.Fatalf("killed run returned %v, want context.Canceled", err)
	}
	logged, err := loadLog(killed.LogPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(logged) < killed.StopAfter {
		t.Fatalf("killed run checkpointed %d figures, want >= %d", len(logged), killed.StopAfter)
	}
	specs, err := killed.specs()
	if err != nil {
		t.Fatal(err)
	}
	if len(logged) >= len(specs) {
		t.Fatalf("killed run checkpointed all %d figures; the resume path is untested", len(specs))
	}

	// Resume: same log, no stop. Must finish the remaining figures.
	resumed := campaignFor(t, s, dir, "resumed")
	if err := resumed.Run(); err != nil {
		t.Fatalf("resumed run: %v", err)
	}

	// Reference: the same campaign uninterrupted, fresh log.
	fresh := campaignFor(t, s, dir, "fresh")
	if err := fresh.Run(); err != nil {
		t.Fatalf("fresh run: %v", err)
	}

	got, err := os.ReadFile(resumed.OutPath)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(fresh.OutPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("resumed leaderboard differs from uninterrupted run:\n--- resumed ---\n%s\n--- fresh ---\n%s", got, want)
	}
	if !strings.Contains(string(got), "| rank |") {
		t.Error("leaderboard missing the ranking table")
	}
}

// TestCampaignRunLeavesNoGoroutine: a campaign run with a caller's
// Opts.Context that is never canceled leaves no goroutine behind once
// Run returns; the campaign's own stop, derived from that context, must
// not outlive the run.
func TestCampaignRunLeavesNoGoroutine(t *testing.T) {
	c := campaignFor(t, Screen(topology.NewMesh(4, 4)), t.TempDir(), "leak")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c.Opts.Context = ctx
	before := runtime.NumGoroutine()
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	// Goroutines that Run ended may still be on their way out.
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before Run, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCampaignLogTolerance: a torn trailing line (killed mid-write)
// is skipped on load instead of poisoning the resume.
func TestCampaignLogTolerance(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "torn.jsonl")
	full := `{"cache_key":"k1","figure":"f1","set":"0x03","pattern":"uniform","points":[]}` + "\n"
	torn := `{"cache_key":"k2","figure":"f2","set":"0x05","pat`
	if err := os.WriteFile(path, []byte(full+torn), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := loadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("loaded %d records, want 1 (torn line skipped)", len(recs))
	}
	if _, ok := recs["k1"]; !ok {
		t.Error("intact record missing")
	}
}

// TestCampaignTornTailThenAppend: a campaign resumed after a torn final
// line must not glue its first checkpoint onto the fragment. Every
// figure it completes has to load back from the log, so a later resume
// has nothing left to run.
func TestCampaignTornTailThenAppend(t *testing.T) {
	dir := t.TempDir()
	s := Screen(topology.NewMesh(5, 5))
	// A seed of its own keeps exp's process-wide sweep cache, warmed by
	// the other campaign tests, from finishing the run before it stops.
	killed := campaignFor(t, s, dir, "torn")
	killed.Opts.Seed = 11
	killed.StopAfter = 1
	killed.Opts.Workers = 1
	if err := runKilled(t, killed); !errors.Is(err, context.Canceled) {
		t.Fatalf("killed run returned %v, want context.Canceled", err)
	}
	f, err := os.OpenFile(killed.LogPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"cache_key":"dead","figure":"f","set":"0x05","pat`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	resumed := campaignFor(t, s, dir, "torn")
	resumed.Opts.Seed = killed.Opts.Seed
	if err := resumed.Run(); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	logged, err := loadLog(resumed.LogPath)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := resumed.specs()
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		if _, ok := logged[exp.CacheKey(sp, resumed.Opts)]; !ok {
			t.Errorf("figure %s completed but its checkpoint does not load back", sp.ID)
		}
	}
	if _, ok := logged["dead"]; ok {
		t.Error("the torn fragment loaded as a record")
	}
}

// TestCheckedInCampaignCurrent: results/turnscan.jsonl is the checkpoint
// of the default turnscan campaign (8x8 mesh, seed 1, campaign loads).
// It must hold a record under the current exp.CacheKey of every figure
// — a key drift (an exp.Options field added or removed) orphans the
// records, and a resume then silently re-runs the whole campaign — and
// the leaderboard rendered from it must be results/turnscan.md byte for
// byte.
func TestCheckedInCampaignCurrent(t *testing.T) {
	results := filepath.Join("..", "..", "results")
	c := &Campaign{Screen: Screen(topology.NewMesh(8, 8)), Opts: exp.Options{Seed: 1}}
	o := c.options()
	done, err := loadLog(filepath.Join(results, "turnscan.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	specs, err := c.specs()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range specs {
		if _, ok := done[exp.CacheKey(f, o)]; !ok {
			t.Errorf("results/turnscan.jsonl has no record for %s under its current cache key; regenerate it with go run ./cmd/turnscan from an empty log", f.ID)
		}
	}
	if t.Failed() {
		return
	}
	var got bytes.Buffer
	if err := c.WriteLeaderboard(&got, done, o); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(results, "turnscan.md"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("leaderboard rendered from results/turnscan.jsonl differs from results/turnscan.md:\n%s", got.Bytes())
	}
}
