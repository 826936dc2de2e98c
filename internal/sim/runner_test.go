package sim_test

import (
	"context"
	"testing"

	"bftbcast/internal/adversary"
	"bftbcast/internal/core"
	"bftbcast/internal/grid"
	"bftbcast/internal/sim"
	"bftbcast/internal/sim/ref"
	"bftbcast/internal/sim/simtest"
	"bftbcast/internal/topo"
)

// TestResultNotAliased is the regression test for the Result-aliasing
// bug: finish() used to hand out the engine's internal per-node slices,
// so reusing the engine for the next run corrupted every previously
// returned Result. The copies must survive arbitrary further runs on the
// same Runner.
func TestResultNotAliased(t *testing.T) {
	tor := grid.MustNew(20, 20, 2)
	p := core.Params{R: 2, T: 2, MF: 2}
	spec, err := core.NewProtocolB(p)
	if err != nil {
		t.Fatal(err)
	}
	first := sim.Config{
		Topo: tor, Params: p, Spec: spec, Source: tor.ID(0, 0),
		Placement: adversary.Random{T: 2, Density: 0.05, Seed: 3},
	}
	second := first
	second.Source = tor.ID(9, 9)
	second.Placement = adversary.Random{T: 2, Density: 0.08, Seed: 77}

	r := sim.NewRunner()
	got, err := r.RunContext(context.Background(), first)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := func(res *sim.Result) (d []bool, s []int32) {
		d = append(d, res.Decided...)
		s = append(s, res.Sent...)
		return d, s
	}
	wantDecided, wantSent := snapshot(got)

	// Churn the runner with different runs, including a topology switch.
	bounded, err := topo.NewBounded(15, 15, 2)
	if err != nil {
		t.Fatal(err)
	}
	third := sim.Config{Topo: bounded, Params: p, Spec: spec, Source: 0}
	for _, cfg := range []sim.Config{second, third, second} {
		if _, err := r.RunContext(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
	}

	for i := range wantDecided {
		if got.Decided[i] != wantDecided[i] || got.Sent[i] != wantSent[i] {
			t.Fatalf("Result mutated by later runs at node %d: decided %v->%v, sent %d->%d",
				i, wantDecided[i], got.Decided[i], wantSent[i], got.Sent[i])
		}
	}

	// The package-level Run (pooled runners) must return identical
	// results to a dedicated Runner and to the reference engine.
	pooled, err := sim.RunContext(context.Background(), first)
	if err != nil {
		t.Fatal(err)
	}
	if err := simtest.DiffResults(got, pooled); err != nil {
		t.Fatalf("pooled Run diverged from dedicated Runner: %v", err)
	}
	dense, err := ref.RunContext(context.Background(), first)
	if err != nil {
		t.Fatal(err)
	}
	if err := simtest.DiffResults(got, dense); err != nil {
		t.Fatalf("Runner diverged from reference engine: %v", err)
	}
}

// TestRunnerValidation mirrors the engine's config validation through
// the Runner entry point (and keeps validating after a successful run,
// when the reuse path is taken).
func TestRunnerValidation(t *testing.T) {
	tor := grid.MustNew(20, 20, 2)
	p := core.Params{R: 2, T: 1, MF: 1}
	spec, err := core.NewProtocolB(p)
	if err != nil {
		t.Fatal(err)
	}
	good := sim.Config{Topo: tor, Params: p, Spec: spec}
	r := sim.NewRunner()
	if _, err := r.RunContext(context.Background(), good); err != nil {
		t.Fatal(err)
	}

	bad := good
	bad.Topo = nil
	if _, err := r.RunContext(context.Background(), bad); err == nil {
		t.Fatal("nil topology accepted")
	}
	bad = good
	bad.Source = grid.NodeID(tor.Size())
	if _, err := r.RunContext(context.Background(), bad); err == nil {
		t.Fatal("out-of-range source accepted")
	}
	// A failed run must not poison the next good one.
	res, err := r.RunContext(context.Background(), good)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("run after rejected config did not complete")
	}
}
