package actor

import (
	"context"
	"strings"
	"testing"

	"bftbcast/internal/adversary"
	"bftbcast/internal/core"
	"bftbcast/internal/grid"
	"bftbcast/internal/sim"
	"bftbcast/internal/sim/simtest"
	"bftbcast/internal/topo"
)

func TestConcurrentBroadcastCompletes(t *testing.T) {
	tor := grid.MustNew(20, 20, 2)
	p := core.Params{R: 2, T: 3, MF: 2}
	spec, err := core.NewProtocolB(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunContext(context.Background(), sim.Config{Topo: tor, Params: p, Spec: spec, Source: tor.ID(0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("concurrent run incomplete: %d/%d", res.DecidedGood, res.TotalGood)
	}
}

func TestEquivalenceWithSequentialEngine(t *testing.T) {
	// The actor runtime must produce exactly the sequential engine's
	// Result on fault-free runs, every field of it.
	for _, tc := range []struct {
		w, h int
		p    core.Params
		srcX int
	}{
		{15, 15, core.Params{R: 2, T: 0, MF: 0}, 0},
		{20, 20, core.Params{R: 2, T: 3, MF: 2}, 7},
		{21, 21, core.Params{R: 3, T: 5, MF: 1}, 3},
	} {
		tor := grid.MustNew(tc.w, tc.h, tc.p.R)
		spec, err := core.NewProtocolB(tc.p)
		if err != nil {
			t.Fatal(err)
		}
		src := tor.ID(tc.srcX, tc.srcX)
		seq, err := sim.RunContext(context.Background(), sim.Config{Topo: tor, Params: tc.p, Spec: spec, Source: src})
		if err != nil {
			t.Fatal(err)
		}
		conc, err := RunContext(context.Background(), sim.Config{Topo: tor, Params: tc.p, Spec: spec, Source: src})
		if err != nil {
			t.Fatal(err)
		}
		if err := simtest.DiffResults(seq, conc); err != nil {
			t.Fatalf("%+v: sim vs actor: %v", tc.p, err)
		}
	}
}

// TestValidation holds the actor's own refusal: it is fault-free. The
// refusals every engine shares are package sim's TestConfigValidation.
func TestValidation(t *testing.T) {
	tor := grid.MustNew(10, 10, 2)
	p := core.Params{R: 2, T: 1, MF: 1}
	spec, err := core.NewProtocolB(p)
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range map[string]sim.Config{
		"placement": {Topo: tor, Params: p, Spec: spec, Placement: adversary.None{}},
		"strategy":  {Topo: tor, Params: p, Spec: spec, Strategy: adversary.NewCorruptor()},
	} {
		if _, err := RunContext(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), "fault-free") {
			t.Fatalf("%s: err = %v, want the fault-free rejection", name, err)
		}
	}
}

func TestTimeoutReported(t *testing.T) {
	tor := grid.MustNew(15, 15, 2)
	p := core.Params{R: 2, T: 0, MF: 0}
	spec, err := core.NewProtocolB(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunContext(context.Background(), sim.Config{Topo: tor, Params: p, Spec: spec, Source: tor.ID(0, 0), MaxSlots: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed || !res.TimedOut || res.Stalled || res.Slots != 3 {
		t.Fatalf("3-slot run: completed=%v timedOut=%v stalled=%v slots=%d", res.Completed, res.TimedOut, res.Stalled, res.Slots)
	}
}

// TestRandomizedEquivalence extends the hand-picked equivalence cases
// above to the fuzzed fault-free matrix of internal/sim/simtest: on
// every generated topology (torus, bounded grid, RGG), spec and source,
// the concurrent runtime must reproduce the sequential engine's Result
// exactly, field by field (simtest.DiffResults, the fast-vs-ref oracle's
// comparison), and a simtest.Safety watches every actor run. It runs under
// -race in CI, so it doubles as the race check for the actor runtime's
// channel protocol.
func TestRandomizedEquivalence(t *testing.T) {
	cases := 30
	if testing.Short() {
		cases = 10
	}
	gen, err := simtest.NewGen(0xAC708)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cases; i++ {
		c := gen.NextFaultFree()
		seq, err := sim.RunContext(context.Background(), c.Build())
		if err != nil {
			t.Fatalf("case %d (%s): sim: %v", i, c.Desc, err)
		}
		cfg := c.Build()
		safety, err := simtest.WatchSafety(&cfg, true)
		if err != nil {
			t.Fatal(err)
		}
		conc, err := RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatalf("case %d (%s): actor: %v", i, c.Desc, err)
		}
		if err := safety.Err(); err != nil {
			t.Fatalf("case %d (%s): actor: %v", i, c.Desc, err)
		}
		if err := simtest.DiffResults(seq, conc); err != nil {
			t.Fatalf("case %d (%s): sim vs actor: %v", i, c.Desc, err)
		}
	}
}

// TestRunOnNonTorusTopologies is the actor half of package sim's test of
// the same name: on the bounded grid and on a connected RGG the
// concurrent runtime must complete and agree with the sequential engine.
func TestRunOnNonTorusTopologies(t *testing.T) {
	bounded, err := topo.NewBounded(15, 15, 2)
	if err != nil {
		t.Fatal(err)
	}
	rgg, err := topo.NewConnectedRGG(150, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		tp topo.Topology
		p  core.Params
	}{
		{bounded, core.Params{R: 2, T: 2, MF: 2}},
		{rgg, core.Params{R: 1, T: 1, MF: 2}},
	} {
		spec, err := core.NewProtocolB(tc.p)
		if err != nil {
			t.Fatal(err)
		}
		cfg := sim.Config{Topo: tc.tp, Params: tc.p, Spec: spec, Source: 0}
		seq, err := sim.RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		conc, err := RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !conc.Completed {
			t.Fatalf("%v: actor run incomplete: %d/%d", tc.tp, conc.DecidedGood, conc.TotalGood)
		}
		if err := simtest.DiffResults(seq, conc); err != nil {
			t.Fatalf("%v: sim vs actor: %v", tc.tp, err)
		}
	}
}
