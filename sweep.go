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
	Index  int
	Report *Report
	Err    error
}

// Sweep runs a batch of Scenarios on EngineFast across a pool of
// workers and returns their outcomes in scenario order. It is the batch
// path of the experiment harness (E1–E12); a bftsimd job range is one
// executor's serial loop instead, which keeps only each point's
// tallies. Because every Scenario carries its own seeds, the reports
// are identical for any worker count; only the wall-clock time changes.
//
//	sweep := bftbcast.Sweep{Workers: runtime.NumCPU(), Scenarios: points}
//	pts, err := sweep.Run(ctx)
type Sweep struct {
	// Workers bounds the worker pool (<= 0 means runtime.NumCPU(), 1
	// runs sequentially).
	Workers int
	// Scenarios are the sweep points, returned in this order.
	Scenarios []*Scenario
}

// Run executes the sweep to completion and returns every point in
// scenario order, plus the first per-point error (by index) if any.
// min(Workers, len(Scenarios)) goroutines take points in index order and
// each fills its own slot of the result. A point not yet started when
// ctx is cancelled fails fast with ctx.Err(); Run returns once every
// worker has finished.
//
// The runs draw their reusable engine state from the fast engine's one
// runner pool, and the topology-derived artifacts (the compiled plan)
// are shared across all workers, so successive sweeps reuse warm state.
func (s *Sweep) Run(ctx context.Context) ([]SweepPoint, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	workers := s.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	points := make([]SweepPoint, len(s.Scenarios))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(workers, len(points)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(points); i = int(next.Add(1)) - 1 {
				pt := &points[i]
				pt.Index = i
				if pt.Err = ctx.Err(); pt.Err == nil {
					pt.Report, pt.Err = EngineFast.Run(ctx, s.Scenarios[i])
				}
			}
		}()
	}
	wg.Wait()
	for _, pt := range points {
		if pt.Err != nil {
			return points, fmt.Errorf("bftbcast: sweep point %d: %w", pt.Index, pt.Err)
		}
	}
	return points, nil
}
