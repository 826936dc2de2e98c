package bftbcast_test

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"bftbcast"
)

// sweepScenarios builds n protocol-B points with varying adversary
// seeds, each point with its own corruptor.
func sweepScenarios(t *testing.T, n int) []*bftbcast.Scenario {
	t.Helper()
	params := bftbcast.Params{R: 2, T: 2, MF: 2}
	tor, err := bftbcast.NewTorus(20, 20, params.R)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := bftbcast.NewProtocolB(params)
	if err != nil {
		t.Fatal(err)
	}
	base, err := bftbcast.NewScenario(
		bftbcast.WithTopology(tor),
		bftbcast.WithParams(params),
		bftbcast.WithSpec(spec),
	)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*bftbcast.Scenario, n)
	for i := range out {
		out[i], err = base.With(bftbcast.WithAdversary(
			bftbcast.RandomPlacement{T: params.T, Density: 0.05, Seed: uint64(i + 1)},
			bftbcast.NewCorruptor(),
		))
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestSweepOrderAndDeterminism runs the same sweep sequentially and on
// a 4-worker pool: points must come back in scenario order and the
// reports must be identical for any worker count.
func TestSweepOrderAndDeterminism(t *testing.T) {
	const n = 8
	collect := func(workers int) []bftbcast.SweepPoint {
		t.Helper()
		sweep := bftbcast.Sweep{Workers: workers, Scenarios: sweepScenarios(t, n)}
		pts, err := sweep.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
	seq := collect(1)
	par := collect(4)
	if len(seq) != n || len(par) != n {
		t.Fatalf("got %d/%d points, want %d", len(seq), len(par), n)
	}
	for i := range seq {
		if seq[i].Index != i || par[i].Index != i {
			t.Fatalf("out-of-order points: seq[%d].Index=%d par[%d].Index=%d",
				i, seq[i].Index, i, par[i].Index)
		}
		if !reflect.DeepEqual(seq[i].Report, par[i].Report) {
			t.Fatalf("point %d differs between 1 and 4 workers:\nseq: %+v\npar: %+v",
				i, seq[i].Report, par[i].Report)
		}
	}
}

// TestSweepPinnedRunnerMixedTopologies interleaves three topologies
// (two torus sizes and an RGG) through the same sweep: a pooled Runner
// that last ran another topology must retarget correctly mid-sweep, and
// the reports must stay identical for any worker count — the reuse
// guarantee the runner pool must not break.
func TestSweepPinnedRunnerMixedTopologies(t *testing.T) {
	params := bftbcast.Params{R: 2, T: 2, MF: 2}
	spec, err := bftbcast.NewProtocolB(params)
	if err != nil {
		t.Fatal(err)
	}
	torA, err := bftbcast.NewTorus(20, 20, 2)
	if err != nil {
		t.Fatal(err)
	}
	torB, err := bftbcast.NewTorus(15, 15, 2)
	if err != nil {
		t.Fatal(err)
	}
	rgg, err := bftbcast.NewRGG(120, 5)
	if err != nil {
		t.Fatal(err)
	}
	rggParams := bftbcast.Params{R: 1, T: 1, MF: 1}
	rggSpec, err := bftbcast.NewProtocolB(rggParams)
	if err != nil {
		t.Fatal(err)
	}
	build := func() []*bftbcast.Scenario {
		var out []*bftbcast.Scenario
		for i := 0; i < 9; i++ {
			var sc *bftbcast.Scenario
			var err error
			switch i % 3 {
			case 0:
				sc, err = bftbcast.NewScenario(
					bftbcast.WithTopology(torA), bftbcast.WithParams(params), bftbcast.WithSpec(spec),
					bftbcast.WithAdversary(bftbcast.RandomPlacement{T: params.T, Density: 0.05, Seed: uint64(i + 1)}, bftbcast.NewCorruptor()),
				)
			case 1:
				sc, err = bftbcast.NewScenario(
					bftbcast.WithTopology(torB), bftbcast.WithParams(params), bftbcast.WithSpec(spec),
					bftbcast.WithAdversary(bftbcast.RandomPlacement{T: params.T, Density: 0.05, Seed: uint64(i + 1)}, bftbcast.NewCorruptor()),
				)
			default:
				sc, err = bftbcast.NewScenario(
					bftbcast.WithTopology(rgg), bftbcast.WithParams(rggParams), bftbcast.WithSpec(rggSpec),
					bftbcast.WithAdversary(bftbcast.RandomPlacement{T: rggParams.T, Density: 0.03, Seed: uint64(i + 1)}, bftbcast.NewCorruptor()),
				)
			}
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, sc)
		}
		return out
	}
	var baseline []bftbcast.SweepPoint
	for _, workers := range []int{1, 2, 4} {
		sweep := bftbcast.Sweep{Workers: workers, Scenarios: build()}
		pts, err := sweep.Run(context.Background())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if baseline == nil {
			baseline = pts
			continue
		}
		for i := range pts {
			if !reflect.DeepEqual(baseline[i].Report, pts[i].Report) {
				t.Fatalf("point %d differs between 1 and %d workers", i, workers)
			}
		}
	}
}

// TestSweepRun checks Run's first-error contract: point 1 is nil and
// point 3 an invalid Scenario, so Run must surface point 1's
// ErrNoTopology, return every point with point 3's ErrBadLimits, and
// still run the valid ones.
func TestSweepRun(t *testing.T) {
	pts, err := (&bftbcast.Sweep{Workers: 2, Scenarios: sweepScenarios(t, 4)}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("got %d points, want 4", len(pts))
	}
	for i, pt := range pts {
		if pt.Report == nil || !pt.Report.Completed {
			t.Fatalf("point %d: %+v", i, pt.Report)
		}
	}

	scenarios := sweepScenarios(t, 5)
	scenarios[1] = nil
	bad := *scenarios[3]
	bad.MaxSlots = -1
	scenarios[3] = &bad
	pts, err = (&bftbcast.Sweep{Workers: 2, Scenarios: scenarios}).Run(context.Background())
	if !errors.Is(err, bftbcast.ErrNoTopology) || !strings.Contains(err.Error(), "sweep point 1:") {
		t.Fatalf("sweep with a nil point 1: err = %v, want point 1's ErrNoTopology", err)
	}
	if len(pts) != 5 {
		t.Fatalf("got %d points with error, want all 5", len(pts))
	}
	if !errors.Is(pts[3].Err, bftbcast.ErrBadLimits) {
		t.Fatalf("point 3: err = %v, want ErrBadLimits", pts[3].Err)
	}
	for i, pt := range pts {
		failed := i == 1 || i == 3
		if pt.Index != i || failed != (pt.Err != nil) || failed == (pt.Report != nil && pt.Report.Completed) {
			t.Fatalf("point %d: Index %d, Err %v, Report %+v", i, pt.Index, pt.Err, pt.Report)
		}
	}
}

// TestSweepWorkerCounts pins the worker-count seam: Workers of 0 (auto),
// 1 (sequential) and more than len(Scenarios) — whose surplus workers
// find no point to run — all yield identical reports, and an empty sweep
// returns no point and no error for any Workers value.
func TestSweepWorkerCounts(t *testing.T) {
	const n = 3
	var baseline []bftbcast.SweepPoint
	for _, workers := range []int{0, 1, n + 9} {
		pts, err := (&bftbcast.Sweep{Workers: workers, Scenarios: sweepScenarios(t, n)}).Run(context.Background())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(pts) != n {
			t.Fatalf("workers=%d: got %d points, want %d", workers, len(pts), n)
		}
		if baseline == nil {
			baseline = pts
			continue
		}
		for i := range pts {
			if !reflect.DeepEqual(baseline[i].Report, pts[i].Report) {
				t.Fatalf("point %d differs at workers=%d", i, workers)
			}
		}
	}
	for _, workers := range []int{0, 1, 4} {
		if pts, err := (&bftbcast.Sweep{Workers: workers}).Run(context.Background()); len(pts) != 0 || err != nil {
			t.Fatalf("empty sweep at workers=%d: %d points, err %v", workers, len(pts), err)
		}
	}
}

// TestSweepRunsPointsConcurrently: on two workers, points 0 and 1 are in
// flight at once — each one's first slot waits until the other's has
// started, which a pool running one point at a time never satisfies.
func TestSweepRunsPointsConcurrently(t *testing.T) {
	scenarios := sweepScenarios(t, 2)
	started := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	for i := range scenarios {
		var once sync.Once
		var err error
		scenarios[i], err = scenarios[i].With(bftbcast.WithObserver(bftbcast.FuncObserver{OnSlotStart: func(int) {
			once.Do(func() {
				close(started[i])
				select {
				case <-started[1-i]:
				case <-time.After(10 * time.Second):
					t.Errorf("point %d: point %d never ran alongside it", i, 1-i)
				}
			})
		}}))
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := (&bftbcast.Sweep{Workers: 2, Scenarios: scenarios}).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// waitNoGoroutineGrowth polls until the goroutine count returns to (near)
// its baseline: the runtime gets a few scheduling rounds to retire
// finished goroutines before the test declares a leak.
func waitNoGoroutineGrowth(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		after := runtime.NumGoroutine()
		if after <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after — sweep goroutines leaked", before, after)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSweepCancelNoLeak cancels the context from inside a running point
// on a 2-worker pool: Run must return context.Canceled with every later
// point failing fast, and leave no goroutine behind.
func TestSweepCancelNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	scenarios := sweepScenarios(t, 8)
	var err error
	scenarios[2], err = scenarios[2].With(bftbcast.WithObserver(
		bftbcast.FuncObserver{OnSlotStart: func(int) { cancel() }},
	))
	if err != nil {
		t.Fatal(err)
	}
	pts, err := (&bftbcast.Sweep{Workers: 2, Scenarios: scenarios}).Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep: err = %v, want context.Canceled", err)
	}
	if len(pts) != len(scenarios) {
		t.Fatalf("got %d points, want %d", len(pts), len(scenarios))
	}
	waitNoGoroutineGrowth(t, before)
}

// TestSweepCancellation cancels mid-sweep — deterministically, from an
// Observer inside point 5's own run on a sequential pool: Run must still
// return one point per scenario, the earlier ones intact, point 5
// interrupted mid-run and every later point failing fast, all with
// context.Canceled.
func TestSweepCancellation(t *testing.T) {
	const n, cancelAt = 12, 5
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	scenarios := sweepScenarios(t, n)
	var err error
	scenarios[cancelAt], err = scenarios[cancelAt].With(bftbcast.WithObserver(
		bftbcast.FuncObserver{OnSlotStart: func(int) { cancel() }},
	))
	if err != nil {
		t.Fatal(err)
	}
	pts, err := (&bftbcast.Sweep{Workers: 1, Scenarios: scenarios}).Run(ctx)
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "sweep point 5:") {
		t.Fatalf("err = %v, want point %d's context.Canceled", err, cancelAt)
	}
	if len(pts) != n {
		t.Fatalf("got %d points, want %d", len(pts), n)
	}
	for i, pt := range pts {
		if pt.Index != i {
			t.Fatalf("out-of-order point %d at position %d", pt.Index, i)
		}
		if i < cancelAt {
			if pt.Err != nil || !pt.Report.Completed {
				t.Fatalf("point %d before the cancel: err %v", i, pt.Err)
			}
			continue
		}
		if !errors.Is(pt.Err, context.Canceled) {
			t.Fatalf("point %d after the cancel: err = %v, want context.Canceled", i, pt.Err)
		}
	}
}
