package sim_test

// Retirement (see the package comment) books a settled transmitter's
// remaining sends in one go, so the slots they would have occupied are
// never executed. The frontier differential cannot see it — its legs
// carry OnSlotStart and OnSend, which keep a run off the path — so these
// tests compare bare fast runs with the dense reference engine, whose
// loop emits every send at its own slot, and use the Runner's
// retired-transmission counter to prove which runs retire.

import (
	"context"
	"fmt"
	"testing"

	"bftbcast/internal/adversary"
	"bftbcast/internal/core"
	"bftbcast/internal/grid"
	"bftbcast/internal/plan"
	"bftbcast/internal/protocol"
	"bftbcast/internal/radio"
	"bftbcast/internal/sim"
	"bftbcast/internal/sim/ref"
	"bftbcast/internal/sim/simtest"
	"bftbcast/internal/topo"
	"bftbcast/internal/topo/topotest"
)

// constSpec is a threshold spec with the given source repeats and per-node
// sends and budget; sends > budget makes the engine clamp every relay.
func constSpec(name string, base core.Spec, repeats, sends, budget int) core.Spec {
	return core.Spec{
		Name: name, SourceRepeats: repeats, Threshold: base.Threshold,
		Sends:    func(grid.NodeID) int { return sends },
		Budget:   func(grid.NodeID) int { return budget },
		MaxSends: sends,
	}
}

// TestRetiredSendsMatchRef holds retirement to the reference engine on
// the torus, the bounded grid and an RGG: protocol B, a spec whose sends
// exceed its budget, and one whose unlimited source repeats itself many
// times, each fault-free and under a corrupting and a dropping Targeted
// adversary and each uncapped and under MaxSlots caps that cut through the
// last retirement windows. Targeted's victims are one node in ten, so its
// jammers keep their budget until the wave has settled the rows around
// them: the jams then land in slots where retired transmitters would have
// sent, on their settled receivers. One Runner serves every run, so no window
// outlives its run.
func TestRetiredSendsMatchRef(t *testing.T) {
	seeds := uint64(3)
	if testing.Short() {
		seeds = 1
	}
	rgg, err := topo.NewConnectedRGG(300, 3)
	if err != nil {
		t.Fatal(err)
	}
	topos := []struct {
		name string
		tp   topo.Topology
		p    core.Params
	}{
		{"torus", grid.MustNew(20, 20, 2), core.Params{R: 2, T: 2, MF: 3}},
		{"grid", topo.MustNewBounded(17, 14, 2), core.Params{R: 2, T: 2, MF: 3}},
		{"rgg", rgg, core.Params{R: 1, T: 1, MF: 3}},
	}
	runner := sim.NewRunner()
	var retiredJams, cutWindows, clamped, loudSource int
	for _, tc := range topos {
		b, err := core.NewProtocolB(tc.p)
		if err != nil {
			t.Fatal(err)
		}
		specs := []core.Spec{
			b,
			constSpec("over-budget", b, b.SourceRepeats, b.MaxSends+3, b.MaxSends),
			constSpec("loud-source", b, 4*b.SourceRepeats+1, b.MaxSends, b.MaxSends),
		}
		for _, spec := range specs {
			for seed := uint64(1); seed <= seeds; seed++ {
				for strat := 0; strat < 3; strat++ {
					build := func(maxSlots int) sim.Config {
						cfg := sim.Config{Topo: tc.tp, Params: tc.p, Spec: spec, MaxSlots: maxSlots}
						if strat == 0 {
							return cfg
						}
						cfg.Placement = adversary.Random{T: tc.p.T, Density: 0.06, Seed: seed}
						victims := make([]bool, tc.tp.Size())
						for i := range victims {
							victims[i] = i%10 == 0
						}
						cfg.Strategy = &adversary.Targeted{Victims: victims, WrongValue: 3, Drop: strat == 2}
						return cfg
					}
					desc := fmt.Sprintf("%s/%s/seed %d/strategy %d", tc.name, spec.Name, seed, strat)
					full := diffRetired(t, runner, desc, func() sim.Config { return build(0) })
					retired := runner.RetiredTxs()
					if retired == 0 {
						t.Fatalf("%s: no transmission retired", desc)
					}
					if full.BadMessages > 0 {
						retiredJams++
					}
					if spec.Name == "over-budget" && full.MaxGoodSends == b.MaxSends {
						clamped++
					}
					if spec.Name == "loud-source" {
						loudSource++
					}
					period := plan.For(tc.tp).Period()
					for _, cut := range []int{full.Slots - 1, full.Slots - period - 1, full.Slots * 2 / 3} {
						if cut <= 0 {
							continue
						}
						capped := diffRetired(t, runner, fmt.Sprintf("%s/MaxSlots %d", desc, cut), func() sim.Config { return build(cut) })
						if capped.TimedOut && runner.RetiredTxs() < retired {
							cutWindows++
						}
					}
				}
			}
		}
	}
	if retiredJams == 0 || cutWindows == 0 || clamped == 0 || loudSource == 0 {
		t.Fatalf("degenerate case mix: jammed retiring runs=%d caps that refused a window=%d clamped relays=%d loud-source runs=%d",
			retiredJams, cutWindows, clamped, loudSource)
	}
}

// diffRetired runs build's config bare on r and on the reference engine
// and fails unless the Results are equal; it returns the fast Result.
func diffRetired(t *testing.T, r *sim.Runner, desc string, build func() sim.Config) *sim.Result {
	t.Helper()
	fast, err := r.RunContext(context.Background(), build())
	if err != nil {
		t.Fatalf("%s: fast: %v", desc, err)
	}
	dense, err := ref.RunContext(context.Background(), build())
	if err != nil {
		t.Fatalf("%s: ref: %v", desc, err)
	}
	if err := simtest.DiffResults(fast, dense); err != nil {
		t.Fatalf("%s: fast vs ref: %v", desc, err)
	}
	return fast
}

// TestRetirementPath pins which runs retire: unobserved threshold runs on
// the frontier do, on the torus and on an RGG, under the corruptor; a run
// with an OnSend or an OnSlotStart hook, a reactive run and a run on an
// unverified coloring retire nothing. Every run must match ref.
func TestRetirementPath(t *testing.T) {
	rgg, err := topo.NewConnectedRGG(400, 9)
	if err != nil {
		t.Fatal(err)
	}
	tor := grid.MustNew(20, 20, 2)
	torP, rggP := core.Params{R: 2, T: 2, MF: 2}, core.Params{R: 1, T: 1, MF: 2}
	runner := sim.NewRunner()
	// retired runs build's config on runner and on ref, which must agree,
	// and returns the run's retired transmissions.
	retired := func(desc string, build func() sim.Config) int {
		t.Helper()
		diffRetired(t, runner, desc, build)
		return runner.RetiredTxs()
	}

	for _, c := range []struct {
		name string
		tp   topo.Topology
		p    core.Params
	}{{"torus", tor, torP}, {"rgg", rgg, rggP}} {
		spec, err := core.NewProtocolB(c.p)
		if err != nil {
			t.Fatal(err)
		}
		corrupted := func(hooks protocol.Hooks) func() sim.Config {
			return func() sim.Config {
				return sim.Config{
					Topo: c.tp, Params: c.p, Spec: spec, Hooks: hooks,
					Placement: adversary.Random{T: c.p.T, Density: 0.05, Seed: 4},
					Strategy:  adversary.NewCorruptor(),
				}
			}
		}
		if n := retired(c.name+"/corruptor", corrupted(protocol.Hooks{})); n == 0 {
			t.Errorf("%s corruptor run retired nothing", c.name)
		}
		onSend := protocol.Hooks{OnSend: func(int, grid.NodeID, radio.Value, bool) {}}
		if n := retired(c.name+"/OnSend", corrupted(onSend)); n != 0 {
			t.Errorf("%s run with OnSend retired %d transmissions", c.name, n)
		}
		onSlot := protocol.Hooks{OnSlotStart: func(int) {}}
		if n := retired(c.name+"/OnSlotStart", corrupted(onSlot)); n != 0 {
			t.Errorf("%s run with OnSlotStart retired %d transmissions", c.name, n)
		}
	}

	reactive := func() sim.Config {
		return sim.Config{
			Topo: grid.MustNew(15, 15, 2), Params: core.Params{R: 2, T: 1, MF: 3},
			Machine:   &protocol.Reactive{MMax: 64, PayloadBits: 16, Policy: protocol.PolicyMixed},
			Placement: adversary.Random{T: 1, Density: 0.06, Seed: 2}, Seed: 2,
		}
	}
	if n := retired("reactive", reactive); n != 0 || runner.FrontierSlots() == 0 {
		t.Errorf("reactive run: %d retired transmissions, %d frontier slots; want 0 retired on the frontier",
			n, runner.FrontierSlots())
	}

	b := topo.MustNewBounded(12, 12, 1)
	p := core.Params{R: 1, T: 0, MF: 0}
	spec, err := core.NewFullBudget(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	miscolored := func() sim.Config {
		return sim.Config{Topo: topotest.Miscolored(b, b.ID(4, 4), b.ID(6, 4)), Params: p, Spec: spec, Source: b.ID(5, 1)}
	}
	if n := retired("miscolored", miscolored); n != 0 {
		t.Errorf("run on an unverified coloring retired %d transmissions", n)
	}
}
