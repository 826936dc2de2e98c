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
// worker pool, streaming the results in scenario order. It is the batch
// path of the experiment harness (E1–E12); a bftsimd job range is one
// executor's serial loop instead, which keeps only each point's
// tallies. Because every Scenario carries its own
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
// EngineFast runs draw their reusable engine state from the fast
// engine's one runner pool, and the topology-derived artifacts (the
// compiled plan) are shared across all workers, so a job's successive
// sweeps reuse warm state too. Reports are identical for any worker
// count.
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
	scenarios := s.Scenarios
	points := make([]SweepPoint, len(scenarios))
	ch := make(chan SweepPoint, len(scenarios))
	go func() {
		defer close(ch)
		orderedWorker(workers, len(scenarios), func(i int) {
			pt := SweepPoint{Index: i, Scenario: scenarios[i]}
			if err := ctx.Err(); err != nil {
				pt.Err = err // fail fast once cancelled
			} else {
				pt.Report, pt.Err = eng.Run(ctx, scenarios[i])
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

// orderedWorker runs fn(0), ..., fn(n-1) on a pool of workers goroutines
// (<= 1 runs fn inline) and calls emit(i) in strict index order, each as
// soon as every index <= i has completed. fn stores its result in a
// caller-owned slot; emit then streams the slots without reordering, so
// consumers observe the sequence a sequential run would produce. emit
// runs on a dedicated goroutine and never blocks the workers: a slow
// consumer delays emission, not computation. orderedWorker returns once
// every index has been emitted.
func orderedWorker(workers, n int, fn, emit func(i int)) {
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

	work := func(i int) {
		fn(i)
		mu.Lock()
		done[i] = true
		mu.Unlock()
		cond.Broadcast()
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			work(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					work(i)
				}
			}()
		}
		wg.Wait()
	}
	<-emitted
}
