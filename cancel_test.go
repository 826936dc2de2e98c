package bftbcast_test

// Context-cancellation coverage for every engine: a pre-cancelled
// context and an expired deadline return promptly with ctx.Err() before
// the scenario runs; an Observer-triggered cancel interrupts the run
// mid-flight deterministically (no timing dependence).

import (
	"context"
	"errors"
	"testing"
	"time"

	"bftbcast"
)

// runCase is one (engine, protocol) cell of the cancellation and observer
// tests: the backends on the threshold protocol, plus the reactive
// protocol on the fast engine.
type runCase struct {
	name   string
	engine bftbcast.Engine
}

func runCases() []runCase {
	var cases []runCase
	for _, e := range bftbcast.Engines() {
		cases = append(cases, runCase{e.Name(), e})
	}
	return append(cases, runCase{"reactive", bftbcast.EngineFast})
}

// cancelScenario is modest but multi-slot for every runCase name.
func cancelScenario(t *testing.T, name string) *bftbcast.Scenario {
	t.Helper()
	opts := []bftbcast.ScenarioOption{bftbcast.WithSeed(5)}
	switch name {
	case "reactive":
		tor, err := bftbcast.NewTorus(15, 15, 2)
		if err != nil {
			t.Fatal(err)
		}
		opts = append(opts,
			bftbcast.WithTopology(tor),
			bftbcast.WithParams(bftbcast.Params{R: 2, T: 1, MF: 3}),
			bftbcast.WithProtocol(bftbcast.ProtocolReactive),
			bftbcast.WithPlacement(bftbcast.RandomPlacement{T: 1, Density: 0.06, Seed: 5}),
		)
	default:
		params := bftbcast.Params{R: 2, T: 2, MF: 2}
		tor, err := bftbcast.NewTorus(20, 20, params.R)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := bftbcast.NewProtocolB(params)
		if err != nil {
			t.Fatal(err)
		}
		opts = append(opts,
			bftbcast.WithTopology(tor),
			bftbcast.WithParams(params),
			bftbcast.WithSpec(spec),
			bftbcast.WithAdversary(
				bftbcast.RandomPlacement{T: 2, Density: 0.05, Seed: 5},
				bftbcast.NewCorruptor(),
			),
		)
	}
	sc, err := bftbcast.NewScenario(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestEngineCancellation(t *testing.T) {
	for _, rc := range runCases() {
		engine := rc.engine
		t.Run(rc.name, func(t *testing.T) {
			sc := cancelScenario(t, rc.name)

			// Sanity: the scenario completes without cancellation, in
			// many more than the handful of slots the mid-run test
			// cancels after.
			rep, err := engine.Run(context.Background(), sc)
			if err != nil {
				t.Fatalf("uncancelled run: %v", err)
			}
			if !rep.Completed || rep.Slots < 10 {
				t.Fatalf("unsuitable sanity run: completed=%v slots=%d", rep.Completed, rep.Slots)
			}

			// A pre-cancelled context fails fast with context.Canceled.
			cancelled, cancel := context.WithCancel(context.Background())
			cancel()
			start := time.Now()
			if _, err := engine.Run(cancelled, sc); !errors.Is(err, context.Canceled) {
				t.Fatalf("pre-cancelled run: err = %v, want context.Canceled", err)
			}
			if d := time.Since(start); d > 2*time.Second {
				t.Fatalf("pre-cancelled run took %v, want prompt return", d)
			}

			// An already-expired deadline is honored with DeadlineExceeded.
			expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Nanosecond))
			defer cancel2()
			if _, err := engine.Run(expired, sc); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("expired-deadline run: err = %v, want context.DeadlineExceeded", err)
			}

			// Mid-run cancellation, deterministically: an Observer
			// cancels the context at the third executed slot, and the
			// engine must notice at its next per-slot check.
			midRunCancel(t, engine, sc)
		})
	}
}

// midRunCancel runs sc with an observer that cancels after three slot
// starts and asserts the engine stops promptly with context.Canceled.
func midRunCancel(t *testing.T, engine bftbcast.Engine, sc *bftbcast.Scenario) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	slotStarts := 0
	obs := bftbcast.FuncObserver{
		OnSlotStart: func(int) {
			slotStarts++
			if slotStarts == 3 {
				cancel()
			}
		},
	}
	scObs, err := sc.With(bftbcast.WithObserver(obs))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Run(ctx, scObs); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel: err = %v, want context.Canceled", err)
	}
	if slotStarts < 3 || slotStarts > 4 {
		t.Fatalf("engine executed %d slots after the cancel point, want <= 1", slotStarts-3)
	}
}
