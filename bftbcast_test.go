package bftbcast_test

// Facade coverage: the constructors, bounds and engines as a library
// user reaches them.

import (
	"context"
	"testing"

	"bftbcast"
)

func TestFacadeQuickstart(t *testing.T) {
	tor, err := bftbcast.NewTorus(20, 20, 2)
	if err != nil {
		t.Fatal(err)
	}
	params := bftbcast.Params{R: 2, T: 3, MF: 2}
	spec, err := bftbcast.NewProtocolB(params)
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
	if !rep.Completed || rep.WrongDecisions != 0 {
		t.Fatalf("quickstart run failed: %+v", rep)
	}
}

func TestFacadeBounds(t *testing.T) {
	if got := bftbcast.M0(4, 1, 1000); got != 58 {
		t.Fatalf("M0 = %d, want 58", got)
	}
	if got := bftbcast.CPAMaxT(4); got != 17 {
		t.Fatalf("CPAMaxT = %d, want 17", got)
	}
	if bftbcast.TolerableT(8, 4, 2) > bftbcast.BreakableT(8, 4, 2) {
		t.Fatal("Corollary 1 bounds inverted")
	}
	if bftbcast.Theorem4Budget(1024, 4, 10, 4096, 64) <= 0 {
		t.Fatal("Theorem4Budget non-positive")
	}
}

func TestFacadeReactive(t *testing.T) {
	tor, err := bftbcast.NewTorus(15, 15, 2)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := bftbcast.NewScenario(
		bftbcast.WithTopology(tor),
		bftbcast.WithParams(bftbcast.Params{T: 1, MF: 2}),
		bftbcast.WithProtocol(bftbcast.ProtocolReactive),
		bftbcast.WithReactive(bftbcast.ReactiveSpec{MMax: 32, PayloadBits: 16, Policy: bftbcast.PolicyDisrupt}),
		bftbcast.WithPlacement(bftbcast.RandomPlacement{T: 1, Density: 0.05, Seed: 2}),
		bftbcast.WithSeed(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := bftbcast.EngineFast.Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed || rep.Reactive == nil || rep.Reactive.MessageRounds == 0 {
		t.Fatalf("reactive run failed: %+v", rep)
	}
}

func TestFacadeCode(t *testing.T) {
	c, err := bftbcast.NewCode(64, 1024, 4, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if c.PayloadBits() != 64 || c.SubBitLength() != 34 {
		t.Fatalf("code layout: k=%d L=%d", c.PayloadBits(), c.SubBitLength())
	}
}

func TestFacadeBheterAndBaseline(t *testing.T) {
	tor, err := bftbcast.NewTorus(20, 20, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := bftbcast.Params{R: 2, T: 2, MF: 5}
	heter, err := bftbcast.NewBheter(p, tor, bftbcast.Cross{Center: 0, HalfWidth: 2})
	if err != nil {
		t.Fatal(err)
	}
	base, err := bftbcast.NewKooBaseline(p)
	if err != nil {
		t.Fatal(err)
	}
	if heter.AverageBudget(tor, 0) >= base.AverageBudget(tor, 0) {
		t.Fatal("Bheter not cheaper than the baseline")
	}
	if _, err := bftbcast.NewFullBudget(p, 3); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeEngines(t *testing.T) {
	tor, err := bftbcast.NewTorus(20, 20, 2)
	if err != nil {
		t.Fatal(err)
	}
	params := bftbcast.Params{R: 2, T: 2, MF: 2}
	spec, err := bftbcast.NewProtocolB(params)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := bftbcast.NewScenario(
		bftbcast.WithTopology(tor), bftbcast.WithParams(params), bftbcast.WithSpec(spec),
		bftbcast.WithPlacement(bftbcast.RandomPlacement{T: 2, Density: 0.06, Seed: 4}),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	fast, err := bftbcast.EngineFast.Run(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := bftbcast.EngineRef.Run(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Engine != "fast" || dense.Engine != "ref" {
		t.Fatalf("engine labels %q/%q", fast.Engine, dense.Engine)
	}
	if dense.Completed != fast.Completed || dense.Slots != fast.Slots ||
		dense.GoodMessages != fast.GoodMessages {
		t.Fatalf("engines disagree: fast=%+v ref=%+v", fast, dense)
	}
}
