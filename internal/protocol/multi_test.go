package protocol_test

// Machine-level coverage for the multi-broadcast machine: attach
// validation, seed-deterministic source/stagger draws, the M=1
// bit-identity with the built-in threshold path (the facade pins the
// same property end to end), fault-free completion of every instance,
// and the batching win (BatchedSends < NaiveSends once instances
// overlap).

import (
	"context"
	"reflect"
	"testing"

	"bftbcast/internal/adversary"
	"bftbcast/internal/core"
	"bftbcast/internal/grid"
	"bftbcast/internal/plan"
	"bftbcast/internal/protocol"
	"bftbcast/internal/sim"
)

func multiSpec(t *testing.T) (core.Spec, core.Params) {
	t.Helper()
	params := core.Params{R: 2, T: 1, MF: 2}
	spec, err := core.NewProtocolB(params)
	if err != nil {
		t.Fatal(err)
	}
	return spec, params
}

func TestMultiAttachValidation(t *testing.T) {
	spec, params := multiSpec(t)
	tor, err := grid.New(10, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	env := protocol.Env{Plan: plan.For(tor), Params: params, Seed: 1}
	cases := []struct {
		name string
		m    *protocol.Multi
		env  protocol.Env
	}{
		{"no plan", &protocol.Multi{Spec: spec, M: 2}, protocol.Env{Params: params}},
		{"zero M", &protocol.Multi{Spec: spec, M: 0}, env},
		{"M beyond good nodes", &protocol.Multi{Spec: spec, M: tor.Size() + 1}, env},
		{"bad spec", &protocol.Multi{M: 2}, env},
		{"source out of range", &protocol.Multi{Spec: spec, M: 2},
			protocol.Env{Plan: env.Plan, Params: params, Source: grid.NodeID(tor.Size())}},
	}
	for _, c := range cases {
		if _, err := c.m.Attach(c.env); err == nil {
			t.Errorf("%s: Attach succeeded, want error", c.name)
		}
	}
	bad := make([]bool, tor.Size())
	bad[0] = true
	envBadSource := env
	envBadSource.Bad = bad
	if _, err := (&protocol.Multi{Spec: spec, M: 2}).Attach(envBadSource); err == nil {
		t.Errorf("bad source: Attach succeeded, want error")
	}
	if _, err := (&protocol.Multi{Spec: spec, M: 2}).Attach(env); err != nil {
		t.Fatalf("valid attach: %v", err)
	}
}

// TestMultiSourceDraws pins that source and stagger draws are
// seed-deterministic, distinct, good, and anchored at the scenario
// source, by running the same config twice and a different seed once.
func TestMultiSourceDraws(t *testing.T) {
	spec, params := multiSpec(t)
	tor, err := grid.New(15, 15, 2)
	if err != nil {
		t.Fatal(err)
	}
	run := func(seed uint64) *protocol.MultiStats {
		m := &protocol.Multi{Spec: spec, M: 6}
		res, err := sim.RunContext(context.Background(), sim.Config{
			Topo: tor, Params: params, Machine: m,
			Placement: adversary.Random{T: params.T, Density: 0.05, Seed: seed},
			Seed:      seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		_ = res
		ms := m.TakeStats()
		if ms == nil {
			t.Fatal("machine published no stats")
		}
		return ms
	}
	a, b, c := run(7), run(7), run(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverges:\n%+v\n%+v", a, b)
	}
	if reflect.DeepEqual(a.Instances, c.Instances) {
		t.Fatalf("different seeds drew identical instances: %+v", a.Instances)
	}
	if a.M != 6 || len(a.Instances) != 6 {
		t.Fatalf("M mismatch: %+v", a)
	}
	if a.Instances[0].Source != 0 || a.Instances[0].StartSlot != 0 {
		t.Fatalf("instance 0 not anchored at the scenario source: %+v", a.Instances[0])
	}
	seen := map[grid.NodeID]bool{}
	for _, in := range a.Instances {
		if seen[in.Source] {
			t.Fatalf("duplicate source %d: %+v", in.Source, a.Instances)
		}
		seen[in.Source] = true
	}
}

// TestMultiM1BitIdentical is the machine-level form of the facade
// regression: with M=1 the multi machine's engine Result is
// bit-identical to the built-in threshold path, fault-free and under a
// corrupting adversary.
func TestMultiM1BitIdentical(t *testing.T) {
	spec, params := multiSpec(t)
	tor, err := grid.New(15, 15, 2)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 5; seed++ {
		for _, adversarial := range []bool{false, true} {
			base := sim.Config{Topo: tor, Params: params, Spec: spec, Seed: seed}
			if adversarial {
				base.Placement = adversary.Random{T: params.T, Density: 0.05, Seed: seed}
				base.Strategy = adversary.NewCorruptor()
			}
			want, err := sim.RunContext(context.Background(), base)
			if err != nil {
				t.Fatalf("seed %d threshold: %v", seed, err)
			}
			multi := base
			multi.Spec = core.Spec{}
			multi.Machine = &protocol.Multi{Spec: spec, M: 1}
			got, err := sim.RunContext(context.Background(), multi)
			if err != nil {
				t.Fatalf("seed %d multi: %v", seed, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("seed %d adversarial=%v: M=1 diverges from threshold path:\nthreshold: %+v\nmulti:     %+v",
					seed, adversarial, want, got)
			}
		}
	}
}

// TestMultiFaultFreeCompletes runs M=8 fault-free and checks every
// instance completes with no wrong decisions, and that batching
// strictly beats the naive per-instance send count.
func TestMultiFaultFreeCompletes(t *testing.T) {
	spec, params := multiSpec(t)
	tor, err := grid.New(15, 15, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := &protocol.Multi{Spec: spec, M: 8}
	res, err := sim.RunContext(context.Background(), sim.Config{Topo: tor, Params: params, Machine: m, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.WrongDecisions != 0 {
		t.Fatalf("fault-free multi run: completed=%v wrong=%d", res.Completed, res.WrongDecisions)
	}
	ms := m.TakeStats()
	if ms == nil {
		t.Fatal("machine published no stats")
	}
	for j, in := range ms.Instances {
		if !in.Completed || in.WrongDecisions != 0 || in.DecidedGood != tor.Size() {
			t.Fatalf("instance %d incomplete: %+v", j, in)
		}
		if in.ReleaseSlot < 0 || in.DoneSlot < in.ReleaseSlot {
			t.Fatalf("instance %d slot accounting: %+v", j, in)
		}
	}
	if ms.BatchedSends >= ms.NaiveSends {
		t.Fatalf("batching did not win: batched=%d naive=%d", ms.BatchedSends, ms.NaiveSends)
	}
	if ms.EntriesCarried <= ms.BatchedSends {
		t.Fatalf("no transmission carried more than one entry: entries=%d batched=%d",
			ms.EntriesCarried, ms.BatchedSends)
	}
	if ms.Decisions != 8*(tor.Size()-1) {
		t.Fatalf("decisions = %d, want %d", ms.Decisions, 8*(tor.Size()-1))
	}
	if res.GoodMessages != ms.BatchedSends {
		t.Fatalf("engine sent %d messages, machine scheduled %d", res.GoodMessages, ms.BatchedSends)
	}
}
