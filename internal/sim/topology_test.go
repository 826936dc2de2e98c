package sim

import (
	"context"
	"testing"

	"bftbcast/internal/adversary"
	"bftbcast/internal/core"
	"bftbcast/internal/topo"
)

// TestRunOnNonTorusTopologies exercises the topology seam at the engine
// level: protocol B must complete fault-free on the bounded grid and on
// a connected RGG, with zero schedule violations.
func TestRunOnNonTorusTopologies(t *testing.T) {
	bounded, err := topo.NewBounded(15, 15, 2)
	if err != nil {
		t.Fatal(err)
	}
	rgg, err := topo.NewConnectedRGG(150, 9)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		tp   topo.Topology
		p    core.Params
	}{
		{"bounded", bounded, core.Params{R: 2, T: 2, MF: 2}},
		{"rgg", rgg, core.Params{R: 1, T: 1, MF: 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := core.NewProtocolB(tc.p)
			if err != nil {
				t.Fatal(err)
			}
			seq, err := RunContext(context.Background(), Config{Topo: tc.tp, Params: tc.p, Spec: spec, Source: 0})
			if err != nil {
				t.Fatal(err)
			}
			if !seq.Completed || seq.WrongDecisions != 0 || seq.GoodGoodCollisions != 0 {
				t.Fatalf("%v: completed=%v wrong=%d collisions=%d",
					tc.tp, seq.Completed, seq.WrongDecisions, seq.GoodGoodCollisions)
			}
		})
	}
}

// TestTorusPlacementsRejectOtherTopologies pins the construction
// placements' torus requirement.
func TestTorusPlacementsRejectOtherTopologies(t *testing.T) {
	bounded, err := topo.NewBounded(20, 20, 2)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := core.NewFullBudget(core.Params{R: 2, T: 2, MF: 2}, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, placement := range []adversary.Placement{
		adversary.Stripe{Y0: 5, T: 2},
		adversary.Sandwich{YLow: 3, YHigh: 12, T: 2},
		adversary.Figure2Lattice(2),
	} {
		_, err := RunContext(context.Background(), Config{
			Topo: bounded, Params: core.Params{R: 2, T: 2, MF: 2}, Spec: spec,
			Placement: placement,
		})
		if err == nil {
			t.Fatalf("placement %q accepted a non-torus topology", placement.Name())
		}
	}
}
