package bftbcast_test

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"bftbcast"
)

// sweepScenarios builds n protocol-B points with varying adversary
// seeds. Strategies are single-run, so each point carries its own.
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

// TestSweepStreamOrderAndDeterminism streams the same sweep
// sequentially and on a 4-worker pool: points must arrive in scenario
// order and the reports must be identical for any worker count.
func TestSweepStreamOrderAndDeterminism(t *testing.T) {
	const n = 8
	collect := func(workers int) []bftbcast.SweepPoint {
		t.Helper()
		sweep := bftbcast.Sweep{Workers: workers, Scenarios: sweepScenarios(t, n)}
		var pts []bftbcast.SweepPoint
		for pt := range sweep.Stream(context.Background()) {
			if pt.Err != nil {
				t.Fatalf("point %d: %v", pt.Index, pt.Err)
			}
			pts = append(pts, pt)
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
			t.Fatalf("out-of-order stream: seq[%d].Index=%d par[%d].Index=%d",
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

// refusingEngine is an Engine whose every Run fails.
type refusingEngine struct{}

var errRefused = errors.New("refusing engine: no run")

func (refusingEngine) Name() string { return "refusing" }

func (refusingEngine) Run(context.Context, *bftbcast.Scenario) (*bftbcast.Report, error) {
	return nil, errRefused
}

// TestSweepRun checks the collecting wrapper and its first-error
// contract (a sweep whose engine fails every point: Run must surface
// point 0's error and still return all points).
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

	bad := bftbcast.Sweep{Engine: refusingEngine{}, Workers: 2, Scenarios: sweepScenarios(t, 3)}
	pts, err = bad.Run(context.Background())
	if !errors.Is(err, errRefused) || !strings.Contains(err.Error(), "sweep point 0:") {
		t.Fatalf("sweep on a refusing engine: err = %v, want point 0's error", err)
	}
	if len(pts) != 3 {
		t.Fatalf("got %d points with error, want all 3", len(pts))
	}
}

// TestSweepWorkerCounts pins the worker-count seam: Workers of 0 (auto),
// 1 (sequential) and more than len(Scenarios) — whose surplus workers
// find no point to run — all yield identical reports, and an empty sweep
// closes cleanly for any Workers value.
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
		for range (&bftbcast.Sweep{Workers: workers}).Stream(context.Background()) {
			t.Fatalf("empty sweep yielded a point at workers=%d", workers)
		}
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

// TestSweepStreamAbandonNoLeak drops the stream channel mid-sweep. The
// doc comment promises abandoning the channel leaks nothing: it is
// buffered for the whole sweep, so the producer finishes its points and
// exits with no consumer.
func TestSweepStreamAbandonNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		sweep := bftbcast.Sweep{Workers: 2, Scenarios: sweepScenarios(t, 6)}
		ch := sweep.Stream(context.Background())
		<-ch // consume one point, then abandon the channel mid-sweep
	}()
	waitNoGoroutineGrowth(t, before)
}

// TestSweepStreamCancelNoLeak cancels the context from inside a running
// point and then abandons the channel: the workers must drain the
// remaining points fail-fast and the producer must still close down.
func TestSweepStreamCancelNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	func() {
		scenarios := sweepScenarios(t, 8)
		var err error
		scenarios[2], err = scenarios[2].With(bftbcast.WithObserver(
			bftbcast.FuncObserver{OnSlotStart: func(int) { cancel() }},
		))
		if err != nil {
			t.Fatal(err)
		}
		sweep := bftbcast.Sweep{Workers: 2, Scenarios: scenarios}
		ch := sweep.Stream(ctx)
		<-ch // one point, then walk away from a cancelled sweep
	}()
	waitNoGoroutineGrowth(t, before)
}

// TestSweepCancellation cancels mid-sweep — deterministically, from an
// Observer inside point 5's own run on a sequential pool: the stream
// must still close after yielding one point per scenario, with point 5
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
	sweep := bftbcast.Sweep{Workers: 1, Scenarios: scenarios}
	var got int
	for pt := range sweep.Stream(ctx) {
		if pt.Index != got {
			t.Fatalf("out-of-order point %d at position %d", pt.Index, got)
		}
		got++
		if pt.Index < cancelAt {
			if pt.Err != nil {
				t.Fatalf("point %d before the cancel: %v", pt.Index, pt.Err)
			}
			continue
		}
		if !errors.Is(pt.Err, context.Canceled) {
			t.Fatalf("point %d after the cancel: err = %v, want context.Canceled", pt.Index, pt.Err)
		}
	}
	if got != n {
		t.Fatalf("stream yielded %d points, want %d", got, n)
	}
}
