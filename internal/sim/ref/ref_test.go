package ref_test

import (
	"context"
	"testing"

	"bftbcast/internal/adversary"
	"bftbcast/internal/core"
	"bftbcast/internal/grid"
	"bftbcast/internal/sim"
	"bftbcast/internal/sim/ref"
)

// The reference engine is exercised exhaustively by the differential
// oracle (internal/sim/oracle_test.go); the tests here only pin its own
// basic behavior so a bug in ref cannot hide behind a matching bug in
// the fast engine.

func TestRefProtocolBCompletes(t *testing.T) {
	tor := grid.MustNew(20, 20, 2)
	p := core.Params{R: 2, T: 3, MF: 2}
	spec, err := core.NewProtocolB(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ref.RunContext(context.Background(), sim.Config{
		Topo: tor, Params: p, Spec: spec, Source: tor.ID(0, 0),
		Placement: adversary.Random{T: 3, Density: 0.1, Seed: 13},
		Strategy:  adversary.NewCorruptor(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.WrongDecisions != 0 || res.GoodGoodCollisions != 0 {
		t.Fatalf("completed=%v wrong=%d collisions=%d",
			res.Completed, res.WrongDecisions, res.GoodGoodCollisions)
	}
}

func TestRefFigure2Stall(t *testing.T) {
	tor := grid.MustNew(45, 45, 4)
	p := core.Params{R: 4, T: 1, MF: 1000}
	spec, err := core.NewFullBudget(p, p.M0()+1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ref.RunContext(context.Background(), sim.Config{
		Topo: tor, Params: p, Spec: spec, Source: tor.ID(0, 0),
		Placement: adversary.Figure2Lattice(4),
		Strategy:  adversary.NewTargeted(adversary.Figure2Victims(tor)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stalled || res.DecidedGood != 84 {
		t.Fatalf("stalled=%v decided=%d, want the 84-node Figure 2 stall",
			res.Stalled, res.DecidedGood)
	}
}

func TestRefValidation(t *testing.T) {
	tor := grid.MustNew(20, 20, 2)
	p := core.Params{R: 2, T: 1, MF: 1}
	spec, err := core.NewProtocolB(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.RunContext(context.Background(), sim.Config{Params: p, Spec: spec}); err == nil {
		t.Fatal("nil topology accepted")
	}
	if _, err := ref.RunContext(context.Background(), sim.Config{Topo: tor, Params: p, Spec: spec, Source: grid.NodeID(tor.Size())}); err == nil {
		t.Fatal("out-of-range source accepted")
	}
}
