package bftbcast_test

// The facade-level differential oracle: randomized scenarios over the
// topology × placement × strategy × spec matrix run through EngineFast
// and EngineRef, asserting equality of the unified *Report (the
// engine-internal oracle in internal/sim asserts the raw Results; this
// one proves the Scenario/Engine/Report layer preserves the property).

import (
	"context"
	"reflect"
	"testing"

	"bftbcast"
	"bftbcast/internal/sim"
	"bftbcast/internal/sim/simtest"
)

// scenarioFromSimConfig lifts a randomized internal config into the
// public Scenario shape.
func scenarioFromSimConfig(t *testing.T, cfg sim.Config) *bftbcast.Scenario {
	t.Helper()
	sc, err := bftbcast.NewScenario(
		bftbcast.WithTopology(cfg.Topo),
		bftbcast.WithParams(cfg.Params),
		bftbcast.WithSpec(cfg.Spec),
		bftbcast.WithSource(cfg.Source),
		bftbcast.WithAdversary(cfg.Placement, cfg.Strategy),
		bftbcast.WithMaxSlots(cfg.MaxSlots),
	)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestReportDifferentialOracle(t *testing.T) {
	cases := 80
	if testing.Short() {
		cases = 25
	}
	gen, err := simtest.NewGen(0x5EE0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var completed, failed, attacked int
	for i := 0; i < cases; i++ {
		c := gen.Next()
		// Build twice, so the two engines share nothing but the case.
		fastRep, fastErr := bftbcast.EngineFast.Run(ctx, scenarioFromSimConfig(t, c.Build()))
		refRep, refErr := bftbcast.EngineRef.Run(ctx, scenarioFromSimConfig(t, c.Build()))
		if (fastErr == nil) != (refErr == nil) {
			t.Fatalf("case %d (%s): fast err=%v, ref err=%v", i, c.Desc, fastErr, refErr)
		}
		if fastErr != nil {
			continue // both engines rejected the config identically
		}
		if fastRep.Engine != "fast" || refRep.Engine != "ref" {
			t.Fatalf("case %d: engine names %q/%q", i, fastRep.Engine, refRep.Engine)
		}
		if fastRep.Sim == nil || refRep.Sim == nil || fastRep.Reactive != nil {
			t.Fatalf("case %d: wrong extension population", i)
		}
		// The unified core (and the Sim extension) must be bit-identical
		// across the two engines; only the Engine label may differ.
		norm := func(r *bftbcast.Report) bftbcast.Report {
			c := *r
			c.Engine = ""
			return c
		}
		if !reflect.DeepEqual(norm(fastRep), norm(refRep)) {
			t.Fatalf("case %d (%s): reports diverge:\nfast: %+v\nref:  %+v", i, c.Desc, fastRep, refRep)
		}
		if fastRep.Completed {
			completed++
		} else {
			failed++
		}
		if fastRep.BadMessages > 0 {
			attacked++
		}
	}
	// Guard against a vacuous oracle, mirroring the internal one.
	if completed == 0 || failed == 0 || attacked == 0 {
		t.Fatalf("degenerate case mix: completed=%d failed=%d attacked=%d",
			completed, failed, attacked)
	}
}
