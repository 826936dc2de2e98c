package bftbcast_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"bftbcast"
	"bftbcast/internal/sim"
)

func TestNewScenarioValidation(t *testing.T) {
	if _, err := bftbcast.NewScenario(); err == nil {
		t.Fatal("scenario without topology: want an error")
	}
	tor, err := bftbcast.NewTorus(10, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bftbcast.NewScenario(
		bftbcast.WithTopology(tor),
		bftbcast.WithSource(bftbcast.NodeID(1000)),
	); err == nil {
		t.Fatal("out-of-range source: want an error")
	}
	sc, err := bftbcast.NewScenario(bftbcast.WithTopology(tor))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Params.R != tor.Range() {
		t.Fatalf("Params.R = %d, want topology range %d", sc.Params.R, tor.Range())
	}
}

// TestScenarioTypedValidationErrors pins the typed-error contract: every
// rejection class is classifiable with errors.Is, Validate does not
// mutate the receiver, and a well-formed scenario passes.
func TestScenarioTypedValidationErrors(t *testing.T) {
	tor, err := bftbcast.NewTorus(10, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	topo := bftbcast.WithTopology(tor)
	reactive := bftbcast.WithProtocol(bftbcast.ProtocolReactive)
	cases := []struct {
		name string
		want error
		opts []bftbcast.ScenarioOption
	}{
		{"no topology", bftbcast.ErrNoTopology, nil},
		{"bad source", bftbcast.ErrBadSource, []bftbcast.ScenarioOption{topo, bftbcast.WithSource(1000)}},
		{"negative mf", bftbcast.ErrBadParams, []bftbcast.ScenarioOption{topo, bftbcast.WithParams(bftbcast.Params{R: 1, T: 0, MF: -1})}},
		{"t too large", bftbcast.ErrBadParams, []bftbcast.ScenarioOption{topo, bftbcast.WithParams(bftbcast.Params{R: 1, T: 99, MF: 1})}},
		{"negative max slots", bftbcast.ErrBadLimits, []bftbcast.ScenarioOption{topo, bftbcast.WithMaxSlots(-1)}},
		{"unknown protocol", bftbcast.ErrBadProtocol, []bftbcast.ScenarioOption{topo, bftbcast.WithProtocol("warp")}},
		{"negative broadcasts", bftbcast.ErrBadBroadcasts, []bftbcast.ScenarioOption{topo, bftbcast.WithBroadcasts(-1)}},
		{"broadcasts exceed nodes", bftbcast.ErrBadBroadcasts, []bftbcast.ScenarioOption{topo, bftbcast.WithBroadcasts(1001)}},
		{"broadcasts with reactive", bftbcast.ErrBadBroadcasts, []bftbcast.ScenarioOption{topo, bftbcast.WithProtocol(bftbcast.ProtocolReactive), bftbcast.WithBroadcasts(2)}},
		// The reactive parameter rule, on the defaulted ReactiveSpec
		// (r = 1: t at most CPAMaxT(1) = 1, inside Params' own t < 3).
		{"reactive t above the certified-propagation threshold", bftbcast.ErrBadParams, []bftbcast.ScenarioOption{topo, reactive, bftbcast.WithParams(bftbcast.Params{R: 1, T: 2, MF: 1})}},
		{"reactive mmax below mf", bftbcast.ErrBadParams, []bftbcast.ScenarioOption{topo, reactive, bftbcast.WithParams(bftbcast.Params{R: 1, T: 1, MF: 100}), bftbcast.WithReactive(bftbcast.ReactiveSpec{MMax: 10})}},
		{"reactive negative payload", bftbcast.ErrBadParams, []bftbcast.ScenarioOption{topo, reactive, bftbcast.WithReactive(bftbcast.ReactiveSpec{PayloadBits: -3})}},
		{"reactive oversized payload", bftbcast.ErrBadParams, []bftbcast.ScenarioOption{topo, reactive, bftbcast.WithReactive(bftbcast.ReactiveSpec{PayloadBits: 1<<20 + 1})}},
		{"reactive with a strategy", bftbcast.ErrBadProtocol, []bftbcast.ScenarioOption{topo, reactive, bftbcast.WithStrategy(bftbcast.NewCorruptor())}},
	}
	for _, tc := range cases {
		_, err := bftbcast.NewScenario(tc.opts...)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: NewScenario error = %v, want errors.Is(%v)", tc.name, err, tc.want)
		}
		sc := &bftbcast.Scenario{}
		for _, opt := range tc.opts {
			opt(sc)
		}
		before := sc.Params
		if err := sc.Validate(); !errors.Is(err, tc.want) {
			t.Errorf("%s: Validate error = %v, want errors.Is(%v)", tc.name, err, tc.want)
		}
		if sc.Params != before {
			t.Errorf("%s: Validate mutated the scenario (Params %+v -> %+v)", tc.name, before, sc.Params)
		}
	}
	sc, err := bftbcast.NewScenario(topo)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Validate(); err != nil {
		t.Fatalf("valid scenario: Validate = %v", err)
	}
	// MMax 0 defaults to max(64, mf), so a large mf alone is admissible.
	if _, err := sc.With(reactive, bftbcast.WithParams(bftbcast.Params{R: 1, T: 1, MF: 100})); err != nil {
		t.Fatalf("reactive scenario with the default mmax: %v", err)
	}
}

// TestNilScenario: a nil *Scenario is refused with ErrNoTopology by
// Validate and by both engines' Run and RunCounts, not dereferenced.
func TestNilScenario(t *testing.T) {
	var sc *bftbcast.Scenario
	if err := sc.Validate(); !errors.Is(err, bftbcast.ErrNoTopology) {
		t.Errorf("Validate on nil: %v, want ErrNoTopology", err)
	}
	for _, eng := range bftbcast.Engines() {
		if _, err := eng.Run(context.Background(), nil); !errors.Is(err, bftbcast.ErrNoTopology) {
			t.Errorf("%s Run on nil: %v, want ErrNoTopology", eng.Name(), err)
		}
		counts, ok := eng.(interface {
			RunCounts(context.Context, *bftbcast.Scenario) (bftbcast.Report, error)
		})
		if !ok {
			t.Fatalf("%s has no RunCounts", eng.Name())
		}
		if _, err := counts.RunCounts(context.Background(), nil); !errors.Is(err, bftbcast.ErrNoTopology) {
			t.Errorf("%s RunCounts on nil: %v, want ErrNoTopology", eng.Name(), err)
		}
	}
}

func TestScenarioWithDoesNotMutateBase(t *testing.T) {
	tor, err := bftbcast.NewTorus(10, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	base, err := bftbcast.NewScenario(bftbcast.WithTopology(tor), bftbcast.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	derived, err := base.With(bftbcast.WithSeed(2), bftbcast.WithMaxSlots(7))
	if err != nil {
		t.Fatal(err)
	}
	if base.Seed != 1 || base.MaxSlots != 0 {
		t.Fatalf("With mutated the base scenario: %+v", base)
	}
	if derived.Seed != 2 || derived.MaxSlots != 7 {
		t.Fatalf("With did not apply options: %+v", derived)
	}
}

func TestNewEngine(t *testing.T) {
	for _, want := range []string{"fast", "ref"} {
		e, err := bftbcast.NewEngine(want)
		if err != nil {
			t.Fatal(err)
		}
		if e.Name() != want {
			t.Fatalf("NewEngine(%q).Name() = %q", want, e.Name())
		}
	}
	for _, name := range []string{"warp", "actor"} {
		if _, err := bftbcast.NewEngine(name); err == nil {
			t.Fatalf("NewEngine(%q): want an error", name)
		}
	}
	// The reactive protocol is not a backend; the error says where it went.
	if _, err := bftbcast.NewEngine("reactive"); err == nil || !strings.Contains(err.Error(), "-protocol reactive") {
		t.Fatalf("NewEngine(reactive): err = %v, want a pointer to -protocol reactive", err)
	}
	if got := len(bftbcast.Engines()); got != 2 {
		t.Fatalf("Engines() returned %d backends, want 2", got)
	}
}

// TestEngineRunDoesNotMutateScenario pins that Run normalizes a copy: a
// hand-built Scenario with a zero Params.R is runnable but stays
// untouched, so one value can drive concurrent runs.
func TestEngineRunDoesNotMutateScenario(t *testing.T) {
	tor, err := bftbcast.NewTorus(15, 15, 1)
	if err != nil {
		t.Fatal(err)
	}
	params := bftbcast.Params{R: 1, T: 0, MF: 0}
	spec, err := bftbcast.NewProtocolB(params)
	if err != nil {
		t.Fatal(err)
	}
	sc := &bftbcast.Scenario{Topo: tor, Params: bftbcast.Params{T: 0, MF: 0}, Spec: spec}
	rep, err := bftbcast.EngineFast.Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed {
		t.Fatalf("run failed: %+v", rep)
	}
	if sc.Params.R != 0 {
		t.Fatalf("Run mutated the caller's scenario: Params.R = %d", sc.Params.R)
	}
}

// TestTimedOutParityAcrossEngines runs one under-capped fault-free
// scenario on every backend: all must classify it as TimedOut, not
// Stalled (the Report contract).
func TestTimedOutParityAcrossEngines(t *testing.T) {
	params := bftbcast.Params{R: 2, T: 0, MF: 0}
	tor, err := bftbcast.NewTorus(20, 20, params.R)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := bftbcast.NewProtocolB(params)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := bftbcast.NewScenario(
		bftbcast.WithTopology(tor),
		bftbcast.WithParams(params),
		bftbcast.WithSpec(spec),
		bftbcast.WithMaxSlots(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range bftbcast.Engines() {
		rep, err := engine.Run(context.Background(), sc)
		if err != nil {
			t.Fatalf("%s: %v", engine.Name(), err)
		}
		if !rep.TimedOut || rep.Stalled || rep.Completed {
			t.Fatalf("%s misclassifies a timeout: timedOut=%v stalled=%v completed=%v",
				engine.Name(), rep.TimedOut, rep.Stalled, rep.Completed)
		}
	}
}

func TestEngineScenarioMismatch(t *testing.T) {
	params := bftbcast.Params{R: 2, T: 2, MF: 2}
	tor, err := bftbcast.NewTorus(10, 10, params.R)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := bftbcast.NewProtocolB(params)
	if err != nil {
		t.Fatal(err)
	}
	adversarial, err := bftbcast.NewScenario(
		bftbcast.WithTopology(tor),
		bftbcast.WithParams(params),
		bftbcast.WithSpec(spec),
		bftbcast.WithAdversary(
			bftbcast.RandomPlacement{T: 2, Density: 0.05, Seed: 1},
			bftbcast.NewCorruptor(),
		),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// A Strategy on the reactive protocol is refused when the Scenario
	// is built, and again by the engine for a hand-built one.
	if _, err := adversarial.With(bftbcast.WithProtocol(bftbcast.ProtocolReactive)); !errors.Is(err, bftbcast.ErrBadProtocol) ||
		!strings.Contains(err.Error(), "Policy") {
		t.Fatalf("reactive protocol with Strategy: With err = %v, want policy rejection", err)
	}
	handBuilt := *adversarial
	handBuilt.Protocol = bftbcast.ProtocolReactive
	if _, err := bftbcast.EngineFast.Run(ctx, &handBuilt); !errors.Is(err, bftbcast.ErrBadProtocol) {
		t.Fatalf("reactive protocol with Strategy: Run err = %v, want ErrBadProtocol", err)
	}
}

// TestLegacyAndScenarioAgree pins the lowering contract: the path that
// predates the facade — a raw sim.Config through sim.RunContext — and the
// Scenario/Engine path produce bit-identical results.
func TestLegacyAndScenarioAgree(t *testing.T) {
	params := bftbcast.Params{R: 2, T: 3, MF: 2}
	tor, err := bftbcast.NewTorus(20, 20, params.R)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := bftbcast.NewProtocolB(params)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunContext(context.Background(), sim.Config{
		Topo: tor, Params: params, Spec: spec,
		Placement: bftbcast.RandomPlacement{T: 3, Density: 0.1, Seed: 1},
		Strategy:  bftbcast.NewCorruptor(),
	})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := bftbcast.NewScenario(
		bftbcast.WithTopology(tor),
		bftbcast.WithParams(params),
		bftbcast.WithSpec(spec),
		bftbcast.WithAdversary(
			bftbcast.RandomPlacement{T: 3, Density: 0.1, Seed: 1},
			bftbcast.NewCorruptor(),
		),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := bftbcast.EngineFast.Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != res.Completed || rep.Slots != res.Slots ||
		rep.GoodMessages != res.GoodMessages || rep.BadMessages != res.BadMessages ||
		rep.DecidedGood != res.DecidedGood || rep.AvgGoodSends != res.AvgGoodSends {
		t.Fatalf("sim.RunContext and scenario paths diverge:\nsim:    %+v\nreport: %+v", res, rep)
	}
}
