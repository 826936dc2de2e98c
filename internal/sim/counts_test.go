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
)

// finishPaths are the two ways every engine classifies a run: Finish,
// behind RunContext, and Counts, behind RunCounts.
var finishPaths = []struct {
	name string
	run  func(context.Context, sim.Config) (*sim.Result, error)
}{
	{"fast/finish", sim.RunContext},
	{"fast/counts", countsOnly(sim.RunCounts)},
	{"ref/finish", ref.RunContext},
	{"ref/counts", countsOnly(ref.RunCounts)},
}

func countsOnly(run func(context.Context, sim.Config) (sim.Result, error)) func(context.Context, sim.Config) (*sim.Result, error) {
	return func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
		res, err := run(ctx, cfg)
		if err != nil {
			return nil, err
		}
		return &res, nil
	}
}

// withoutNodes is res less its per-node state: what RunCounts returns.
func withoutNodes(res *sim.Result) *sim.Result {
	out := *res
	out.Decided, out.DecidedValue, out.Correct, out.Wrong, out.Sent = nil, nil, nil, nil, nil
	return &out
}

// TestRunCountsMatchesRunContext holds the tallies-only run to the full
// one on both engines, over the randomized matrix and a gullible spec
// (threshold 1) under a wrong-value spammer, the one case with wrong
// decisions to count: every field but the per-node slices is equal, and
// those are nil.
func TestRunCountsMatchesRunContext(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 20
	}
	gen, err := simtest.NewGen(0xC0DE5)
	if err != nil {
		t.Fatal(err)
	}
	cases := []simtest.Case{{Desc: "gullible spec under spam", Build: func() sim.Config {
		tor := grid.MustNew(15, 15, 2)
		p := core.Params{R: 2, T: 1, MF: 2}
		spec, err := core.NewProtocolB(p)
		if err != nil {
			t.Fatal(err)
		}
		spec.Name, spec.Threshold = "B-gullible", 1
		return sim.Config{
			Topo: tor, Params: p, Spec: spec, Source: tor.ID(0, 0),
			Placement: adversary.Random{T: 1, Density: 0.1, Seed: 3},
			Strategy:  adversary.NewSpammer(),
		}
	}}}
	for i := 0; i < n; i++ {
		cases = append(cases, gen.Next())
	}
	ctx := context.Background()
	for i, c := range cases {
		for _, eng := range []struct {
			name   string
			full   func(context.Context, sim.Config) (*sim.Result, error)
			counts func(context.Context, sim.Config) (sim.Result, error)
		}{
			{"fast", sim.RunContext, sim.RunCounts},
			{"ref", ref.RunContext, ref.RunCounts},
		} {
			full, ferr := eng.full(ctx, c.Build())
			counts, cerr := eng.counts(ctx, c.Build())
			if (ferr == nil) != (cerr == nil) {
				t.Fatalf("case %d (%s) on %s: RunContext error %v, RunCounts error %v", i, c.Desc, eng.name, ferr, cerr)
			}
			if ferr != nil {
				continue
			}
			if i == 0 && full.WrongDecisions == 0 {
				t.Fatalf("%s on %s: no wrong decisions to count", c.Desc, eng.name)
			}
			if err := simtest.DiffResults(&counts, withoutNodes(full)); err != nil {
				t.Fatalf("case %d (%s) on %s: RunCounts diverged from RunContext: %v", i, c.Desc, eng.name, err)
			}
		}
	}
}

// TestOneUndecidedIsNotCompleted pins the Completed test to every good
// node: a run that leaves exactly one good node undecided is a failed
// broadcast on both finish paths of both engines. The spec starves node
// (4,4) of a 9×9 torus by silencing its eight neighbours, which still
// decide from the rest of their rows, so the run drains with that one
// node short.
func TestOneUndecidedIsNotCompleted(t *testing.T) {
	tor := grid.MustNew(9, 9, 1)
	p := core.Params{R: 1, T: 1, MF: 1}
	base, err := core.NewProtocolB(p)
	if err != nil {
		t.Fatal(err)
	}
	starved := tor.ID(4, 4)
	silent := make([]bool, tor.Size())
	for _, nb := range tor.AppendNeighbors(nil, starved) {
		silent[nb] = true
	}
	spec := base
	spec.Name = "B-starve-one"
	spec.Sends = func(id grid.NodeID) int {
		if silent[id] {
			return 0
		}
		return base.Sends(id)
	}
	cfg := sim.Config{Topo: tor, Params: p, Spec: spec, Source: tor.ID(0, 0)}
	for _, path := range finishPaths {
		res, err := path.run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", path.name, err)
		}
		if res.TotalGood != tor.Size() || res.DecidedGood != res.TotalGood-1 || res.WrongDecisions != 0 {
			t.Fatalf("%s: decided %d of %d good nodes (%d wrong), want all but one", path.name, res.DecidedGood, res.TotalGood, res.WrongDecisions)
		}
		if res.Completed || !(res.Stalled || res.TimedOut) {
			t.Errorf("%s: one good node undecided but completed=%v stalled=%v timedOut=%v", path.name, res.Completed, res.Stalled, res.TimedOut)
		}
		if res.Decided != nil && res.Decided[starved] {
			t.Errorf("%s: the starved node decided", path.name)
		}
	}
}

// TestRunnerScratchReuse drives one Runner through corruptor runs on a
// 15×15 and a 45×45 torus and a Targeted sandwich run on a 20×20 one, in
// turn, so the adversary scratch it lends is resized, shrunk and shared
// by both strategies; every Result must equal the same config's on a
// fresh Runner and on the reference engine, whose strategies keep their
// own scratch.
func TestRunnerScratchReuse(t *testing.T) {
	// The corruptor only jams a protocol it can hurt: the full-budget one
	// at m = 1 relay per node.
	corruptor := func(side int, p core.Params, density float64, seed uint64) func() sim.Config {
		tor := grid.MustNew(side, side, p.R)
		spec, err := core.NewFullBudget(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		return func() sim.Config {
			return sim.Config{
				Topo: tor, Params: p, Spec: spec, Source: tor.ID(0, 0),
				Placement: adversary.Random{T: p.T, Density: density, Seed: seed},
				Strategy:  adversary.NewCorruptor(),
			}
		}
	}
	sandwich := func() func() sim.Config {
		// Theorem 1's stripes below m0 (TestTheorem1MiniSandwich).
		p := core.Params{R: 2, T: 5, MF: 4}
		tor := grid.MustNew(20, 20, 2)
		spec, err := core.NewFullBudget(p, p.M0()-4)
		if err != nil {
			t.Fatal(err)
		}
		sw := adversary.Sandwich{YLow: 7, YHigh: 13, T: p.T}
		victims := sw.VictimBand(tor)
		return func() sim.Config {
			return sim.Config{
				Topo: tor, Params: p, Spec: spec, Source: tor.ID(0, 0),
				Placement: sw, Strategy: adversary.NewTargeted(victims),
			}
		}
	}
	configs := []func() sim.Config{
		corruptor(15, core.Params{R: 2, T: 2, MF: 2}, 0.08, 5),
		corruptor(45, core.Params{R: 2, T: 2, MF: 2}, 0.08, 6),
		sandwich(),
		corruptor(15, core.Params{R: 2, T: 1, MF: 3}, 0.08, 7),
		corruptor(45, core.Params{R: 2, T: 1, MF: 3}, 0.08, 8),
		sandwich(),
		corruptor(15, core.Params{R: 2, T: 2, MF: 2}, 0.08, 5),
	}
	ctx := context.Background()
	shared := sim.NewRunner()
	for round := 0; round < 2; round++ {
		for i, build := range configs {
			got, err := shared.RunContext(ctx, build())
			if err != nil {
				t.Fatal(err)
			}
			if got.BadMessages == 0 {
				t.Fatalf("config %d jammed nothing: the scratch went unused", i)
			}
			fresh, err := sim.NewRunner().RunContext(ctx, build())
			if err != nil {
				t.Fatal(err)
			}
			if err := simtest.DiffResults(got, fresh); err != nil {
				t.Fatalf("round %d config %d: reused Runner diverged from a fresh one: %v", round, i, err)
			}
			dense, err := ref.RunContext(ctx, build())
			if err != nil {
				t.Fatal(err)
			}
			if err := simtest.DiffResults(got, dense); err != nil {
				t.Fatalf("round %d config %d: reused Runner diverged from the reference engine: %v", round, i, err)
			}
		}
	}
}
