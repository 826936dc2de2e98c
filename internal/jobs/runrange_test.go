package jobs

import (
	"context"
	"fmt"
	"testing"

	"bftbcast"
)

// TestRunRangeMatchesReports holds the records RunRange builds from the
// engines' tallies-only runs to the records of full Reports: over the
// threshold protocols with single and multi-broadcast points and the
// reactive protocol, against every adversary the grid documents name, on
// both built-in engines, each record must equal pointRecord of Engine.Run
// on the same scenario.
func TestRunRangeMatchesReports(t *testing.T) {
	base := bftbcast.ScenarioSpec{
		Topology: bftbcast.TopologySpec{Kind: "torus", W: 15, H: 15, R: 2},
		MF:       1,
		Density:  0.08,
		Seed:     11,
	}
	// -short keeps one point per protocol, adversary and broadcast count,
	// at the t and mf where the adversaries win.
	seeds, ts, mfs := 2, []int{1, 3}, []int{1, 2}
	if testing.Short() {
		seeds, ts, mfs = 1, []int{3}, []int{2}
	}
	var grids []*bftbcast.GridSpec
	for _, protocol := range []string{"b", "bheter", "koo", "full", "reactive"} {
		for _, adv := range []string{"none", "random", "sandwich", "figure2"} {
			reactive := protocol == "reactive"
			if reactive && (adv == "sandwich" || adv == "figure2") {
				continue // the constructions jam; the reactive adversary acts through policy
			}
			g := &bftbcast.GridSpec{Base: base, Seeds: seeds, T: ts, MF: mfs}
			g.Base.Protocol, g.Base.Adversary = protocol, adv
			if protocol == "full" {
				g.Base.M = 1 // far below m0 at t = 3: the adversaries win some points
			}
			if !reactive {
				g.Broadcasts = []int{1, 3}
			}
			grids = append(grids, g)
		}
	}
	tp, err := bftbcast.NewTopology(base.Topology)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, eng := range bftbcast.Engines() {
		if _, ok := eng.(countsEngine); !ok {
			t.Fatalf("engine %s offers no tallies-only run", eng.Name())
		}
		var stalled, jammed int
		for _, g := range grids {
			desc := fmt.Sprintf("%s/%s/%s", eng.Name(), g.Base.Protocol, g.Base.Adversary)
			if err := g.Validate(); err != nil {
				t.Fatalf("%s: %v", desc, err)
			}
			n := g.NPoints()
			// Two ranges, so a range that starts past point 0 is covered.
			got, err := RunRange(ctx, eng, 1, "j", g, tp, 0, n/2, nil)
			if err != nil {
				t.Fatalf("%s: %v", desc, err)
			}
			rest, err := RunRange(ctx, eng, 1, "j", g, tp, n/2, n, nil)
			if err != nil {
				t.Fatalf("%s: %v", desc, err)
			}
			got = append(got, rest...)
			scenarios, err := g.ScenariosOn(tp, 0, n)
			if err != nil {
				t.Fatal(err)
			}
			for i, sc := range scenarios {
				rep, err := eng.Run(ctx, sc)
				if err != nil {
					t.Fatalf("%s point %d: %v", desc, i, err)
				}
				want := pointRecord("j", bftbcast.SweepPoint{Index: i, Report: rep})
				if got[i] != want {
					t.Fatalf("%s point %d: RunRange record\n%+v\nwant Run's\n%+v", desc, i, got[i], want)
				}
				if !want.Completed {
					stalled++
				}
				if want.BadMessages > 0 {
					jammed++
				}
			}
		}
		// The grid must exercise failed broadcasts and adversary spends,
		// or a dropped verdict or tally could slip through.
		if stalled == 0 || jammed == 0 {
			t.Fatalf("%s: %d failed and %d attacked points; the grid must have both", eng.Name(), stalled, jammed)
		}
	}
}

// TestRunRangeRefusesWorkers holds RunRange to its serial contract.
func TestRunRangeRefusesWorkers(t *testing.T) {
	g := &bftbcast.GridSpec{Base: bftbcast.ScenarioSpec{Topology: bftbcast.TopologySpec{Kind: "torus", W: 15, H: 15, R: 2}, T: 1, MF: 1}}
	tp, err := bftbcast.NewTopology(g.Base.Topology)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, -1} {
		if _, err := RunRange(context.Background(), bftbcast.EngineFast, workers, "j", g, tp, 0, 1, nil); err == nil {
			t.Errorf("RunRange ran with workers = %d", workers)
		}
	}
}
