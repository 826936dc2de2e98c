package bftbcast

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// SweepPoint is the outcome of one Scenario of a Sweep. Exactly one of
// Report and Err is non-nil.
type SweepPoint struct {
	// Index is the point's position in Sweep.Scenarios.
	Index    int
	Scenario *Scenario
	Report   *Report
	Err      error
}

// Sweep runs a list of Scenarios through one Engine on a deterministic
// worker pool, streaming the results in scenario order. It is the one
// batch path: the experiment harness (E1–E12) and the bftsimd job ranges
// run on it too. Because every Scenario carries its own
// seeds, the reports are identical for any worker count; only the
// wall-clock time changes.
//
//	sweep := bftbcast.Sweep{Workers: runtime.NumCPU(), Scenarios: points}
//	for pt := range sweep.Stream(ctx) {
//		...
//	}
type Sweep struct {
	// Engine executes the points; nil means EngineFast.
	Engine Engine
	// Workers bounds the worker pool (<= 0 means runtime.NumCPU(), 1
	// runs sequentially).
	Workers int
	// Scenarios are the sweep points, streamed back in this order.
	Scenarios []*Scenario
}

// Stream launches the sweep and returns a channel that yields one
// SweepPoint per Scenario, in scenario order, each as soon as it (and
// every earlier point) has finished. The channel is buffered for the
// whole sweep and closes after the last point, so abandoning it leaks
// nothing; cancelling ctx makes the remaining points fail fast with
// ctx.Err().
//
// EngineFast is pinned per worker: each pool worker runs its points on a
// private reusable engine, so a sweep never loses its warmed engine state
// to pool churn, while the topology-derived artifacts (the compiled plan)
// stay shared across all workers. Reports are identical for any worker
// count either way.
func (s *Sweep) Stream(ctx context.Context) <-chan SweepPoint {
	if ctx == nil {
		ctx = context.Background()
	}
	eng := s.Engine
	if eng == nil {
		eng = EngineFast
	}
	workers := s.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if len(s.Scenarios) < workers {
		// Pinned engines are warmed per worker; never build more of them
		// than there are points to run (min 1 keeps the pool well-formed
		// for an empty sweep).
		workers = len(s.Scenarios)
		if workers < 1 {
			workers = 1
		}
	}
	perWorker := make([]Engine, workers)
	for w := range perWorker {
		perWorker[w] = eng
		if e, ok := eng.(*engine); ok {
			perWorker[w] = e.pinned()
		}
	}
	scenarios := s.Scenarios
	points := make([]SweepPoint, len(scenarios))
	ch := make(chan SweepPoint, len(scenarios))
	go func() {
		defer close(ch)
		orderedWorker(workers, len(scenarios), func(w, i int) {
			pt := SweepPoint{Index: i, Scenario: scenarios[i]}
			if err := ctx.Err(); err != nil {
				pt.Err = err // fail fast once cancelled
			} else {
				pt.Report, pt.Err = perWorker[w].Run(ctx, scenarios[i])
			}
			points[i] = pt
		}, func(i int) {
			ch <- points[i] // never blocks: the channel holds the sweep
			// Release the ordering slot: from here the consumer decides
			// how long the Report lives.
			points[i] = SweepPoint{}
		})
	}()
	return ch
}

// Run executes the sweep to completion and returns every point in
// scenario order, plus the first per-point error (by index) if any.
func (s *Sweep) Run(ctx context.Context) ([]SweepPoint, error) {
	points := make([]SweepPoint, 0, len(s.Scenarios))
	for pt := range s.Stream(ctx) {
		points = append(points, pt)
	}
	for _, pt := range points {
		if pt.Err != nil {
			return points, fmt.Errorf("bftbcast: sweep point %d: %w", pt.Index, pt.Err)
		}
	}
	return points, nil
}

// orderedWorker runs fn(w, 0), ..., fn(w, n-1) on a pool of workers
// goroutines (<= 1 runs fn inline) and calls emit(i) in strict index
// order, each as soon as every index <= i has completed. w in [0,
// workers) names the goroutine running index i, and every call with the
// same w runs on the same goroutine, so fn may use per-worker state (a
// pinned engine) without synchronization. fn stores its result in a
// caller-owned slot; emit then streams the slots without reordering, so
// consumers observe the sequence a sequential run would produce. emit
// runs on a dedicated goroutine and never blocks the workers: a slow
// consumer delays emission, not computation. orderedWorker returns once
// every index has been emitted.
func orderedWorker(workers, n int, fn func(worker, i int), emit func(i int)) {
	if n <= 0 {
		return
	}
	var (
		mu   sync.Mutex
		cond = sync.NewCond(&mu)
		done = make([]bool, n)
	)
	emitted := make(chan struct{})
	go func() {
		defer close(emitted)
		next := 0
		mu.Lock()
		defer mu.Unlock()
		for next < n {
			for !done[next] {
				cond.Wait()
			}
			// Emit outside the lock so workers can report completions
			// while the consumer drains.
			mu.Unlock()
			emit(next)
			mu.Lock()
			next++
		}
	}()

	work := func(w, i int) {
		fn(w, i)
		mu.Lock()
		done[i] = true
		mu.Unlock()
		cond.Broadcast()
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			work(0, i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					work(w, i)
				}
			}(w)
		}
		wg.Wait()
	}
	<-emitted
}
