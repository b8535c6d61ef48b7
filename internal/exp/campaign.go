package exp

import "sync"

// RunFigureSet runs a batch of figure specs concurrently — figures,
// algorithm lines and load points all fan out over one worker pool of
// o.workers() simulations — fills the figure cache, so later RunFigure
// calls return without simulating, and invokes onDone (when non-nil)
// serially as each figure completes, in completion order. Results are
// bit-identical to sequential RunFigure calls. Cached figures complete
// immediately (still through onDone), so a caller that checkpoints
// completed figures can resume an interrupted batch and see every
// figure exactly once. Figures that fail (including cancellation via
// Options.Context) do not reach onDone; the first error is returned
// after the whole batch has drained.
//
// onDone is called with the pool's slots still busy on other figures,
// so it should be brief (append a log record, update a counter); it
// never needs its own locking.
func RunFigureSet(figs []FigureSpec, o Options, onDone func(FigureSpec, []Sweep)) error {
	var doneMu sync.Mutex
	emit := func(f FigureSpec, s []Sweep) {
		if onDone == nil {
			return
		}
		doneMu.Lock()
		defer doneMu.Unlock()
		onDone(f, s)
	}

	type pending struct {
		i   int
		f   FigureSpec
		key string
	}
	var todo []pending
	for i, f := range figs {
		key := cacheKey(f, o)
		sweepMu.Lock()
		s, cached := sweepCache[key]
		sweepMu.Unlock()
		if cached {
			emit(f, s)
			continue
		}
		todo = append(todo, pending{i, f, key})
	}
	sem := make(chan struct{}, o.workers())
	errs := make([]error, len(figs))
	var wg sync.WaitGroup
	for _, p := range todo {
		wg.Add(1)
		go func(p pending) {
			defer wg.Done()
			sweeps, err := runFigure(p.f, o, sem)
			if err != nil {
				errs[p.i] = err
				return
			}
			sweepMu.Lock()
			sweepCache[p.key] = sweeps
			sweepMu.Unlock()
			emit(p.f, sweeps)
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
