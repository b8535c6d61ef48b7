package exp

import (
	"bytes"
	"reflect"
	"testing"
)

// TestParallelFigureDeterminism: the parallel harness must be invisible
// in the results. One figure sweep run through the worker pool and the
// same sweep with workers forced to 1 (sequential order) must agree
// byte for byte, both as raw Sweep values and as rendered output.
func TestParallelFigureDeterminism(t *testing.T) {
	f, ok := FigureByID("fig13")
	if !ok {
		t.Fatal("fig13 spec missing")
	}
	base := Options{Quick: true, Seed: 7, Warmup: 1000, Measure: 3000}

	seq := base
	seq.Workers = 1
	par := base
	par.Workers = 8

	// runFigure bypasses the sweep cache, so both runs really simulate.
	sweepsSeq, err := runFigure(f, seq, make(chan struct{}, seq.workers()))
	if err != nil {
		t.Fatal(err)
	}
	sweepsPar, err := runFigure(f, par, make(chan struct{}, par.workers()))
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(sweepsSeq, sweepsPar) {
		t.Fatalf("parallel sweep results diverge from sequential:\nseq: %+v\npar: %+v", sweepsSeq, sweepsPar)
	}
	var bufSeq, bufPar bytes.Buffer
	WriteFigure(&bufSeq, f, sweepsSeq)
	WriteFigure(&bufPar, f, sweepsPar)
	if !bytes.Equal(bufSeq.Bytes(), bufPar.Bytes()) {
		t.Fatal("rendered figure output differs between worker counts")
	}

	// RunFigureSet must fill the cache with the identical result.
	sweepCacheReset(t, f, par)
	if err := RunFigureSet([]FigureSpec{f}, par, nil); err != nil {
		t.Fatal(err)
	}
	cached, err := RunFigure(f, par)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sweepsSeq, cached) {
		t.Fatal("RunFigureSet results diverge from sequential run")
	}
}

// sweepCacheReset clears any cache entry for (f, o) so the next run
// actually simulates.
func sweepCacheReset(t *testing.T, f FigureSpec, o Options) {
	t.Helper()
	sweepMu.Lock()
	delete(sweepCache, cacheKey(f, o))
	sweepMu.Unlock()
}
