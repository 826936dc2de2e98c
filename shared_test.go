package bftbcast_test

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"bftbcast"
	"bftbcast/internal/adversary"
	"bftbcast/internal/core"
	"bftbcast/internal/grid"
	"bftbcast/internal/protocol"
	"bftbcast/internal/sim"
	"bftbcast/internal/sim/ref"
	"bftbcast/internal/sim/simtest"
)

// sharedRuns is how many goroutines drive one descriptor at once.
const sharedRuns = 4

// concurrently calls run on sharedRuns goroutines at once and returns
// their outcomes in goroutine order.
func concurrently[T any](run func() (T, error)) ([]T, []error) {
	outs, errs := make([]T, sharedRuns), make([]error, sharedRuns)
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i], errs[i] = run()
		}()
	}
	wg.Wait()
	return outs, errs
}

// TestSharedDescriptorsConcurrentRuns holds what Scenario.normalized and
// the Strategy and Machine docs promise: one value — a Scenario with its
// placement and strategy, a machine in sim.Configs — drives runs on
// several goroutines at once, on both engines, and every run's Report or
// Result, run record included, equals a lone run's. Under -race it also
// proves that no run writes to a descriptor: the corruptor, the
// construction adversary and the spammer keep their per-slot memory in
// the engine's lent scratch, and Multi and Reactive publish their run
// records on the instance.
func TestSharedDescriptorsConcurrentRuns(t *testing.T) {
	ctx := context.Background()

	torus45, err := bftbcast.NewTorus(45, 45, 4)
	if err != nil {
		t.Fatal(err)
	}
	p45 := bftbcast.Params{R: 4, T: 2, MF: 2}
	b45, err := bftbcast.NewProtocolB(p45)
	if err != nil {
		t.Fatal(err)
	}
	corrupted, err := bftbcast.NewScenario(
		bftbcast.WithTopology(torus45), bftbcast.WithParams(p45), bftbcast.WithSpec(b45),
		bftbcast.WithAdversary(bftbcast.RandomPlacement{T: 2, Density: 0.05, Seed: 3}, bftbcast.NewCorruptor()),
		bftbcast.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	sandwich, err := (&bftbcast.ScenarioSpec{
		Topology: bftbcast.TopologySpec{Kind: "torus", W: 20, H: 20, R: 2},
		T:        3, MF: 2, Adversary: "sandwich",
	}).Scenario()
	if err != nil {
		t.Fatal(err)
	}
	torus15, err := bftbcast.NewTorus(15, 15, 2)
	if err != nil {
		t.Fatal(err)
	}
	p15 := bftbcast.Params{R: 2, T: 1, MF: 3}
	b15, err := bftbcast.NewProtocolB(p15)
	if err != nil {
		t.Fatal(err)
	}
	spammed, err := bftbcast.NewScenario(
		bftbcast.WithTopology(torus15), bftbcast.WithParams(p15), bftbcast.WithSpec(b15),
		bftbcast.WithAdversary(bftbcast.RandomPlacement{T: 1, Density: 0.06, Seed: 5}, bftbcast.NewSpammer()))
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name string
		sc   *bftbcast.Scenario
	}{{"corruptor", corrupted}, {"sandwich", sandwich}, {"spammer", spammed}} {
		for _, eng := range bftbcast.Engines() {
			desc := c.name + "/" + eng.Name()
			want, err := eng.Run(ctx, c.sc)
			if err != nil {
				t.Fatalf("%s: lone run: %v", desc, err)
			}
			if want.BadMessages == 0 {
				t.Fatalf("%s: the strategy never jammed; the sharing is not exercised", desc)
			}
			reps, errs := concurrently(func() (*bftbcast.Report, error) { return eng.Run(ctx, c.sc) })
			for i, rep := range reps {
				if errs[i] != nil {
					t.Fatalf("%s: run %d: %v", desc, i, errs[i])
				}
				if !reflect.DeepEqual(rep, want) {
					t.Fatalf("%s: run %d's Report differs from a lone run's:\n%+v\n%+v", desc, i, rep, want)
				}
			}
		}
	}

	pMulti, pReactive := core.Params{R: 2, T: 1, MF: 2}, core.Params{R: 2, T: 1, MF: 3}
	spec, err := core.NewProtocolB(pMulti)
	if err != nil {
		t.Fatal(err)
	}
	tor := grid.MustNew(15, 15, 2)
	engines := []struct {
		name string
		run  func(context.Context, sim.Config) (*sim.Result, error)
	}{{"fast", sim.RunContext}, {"ref", ref.RunContext}}
	for _, c := range []struct {
		name string
		cfg  sim.Config
	}{
		{"multi", sim.Config{
			Topo: tor, Params: pMulti, Seed: 7,
			Machine:   &protocol.Multi{Spec: spec, M: 4},
			Placement: adversary.Random{T: 1, Density: 0.05, Seed: 7},
		}},
		{"reactive", sim.Config{
			Topo: tor, Params: pReactive, Seed: 2,
			Machine:   &protocol.Reactive{MMax: 64, PayloadBits: 16, Policy: protocol.PolicyMixed},
			Placement: adversary.Random{T: 1, Density: 0.06, Seed: 2},
		}},
	} {
		for _, eng := range engines {
			desc := c.name + "/" + eng.name
			type recorded struct {
				res    *sim.Result
				record any
			}
			// run drives the shared machine through a Recorder of its own,
			// which keeps the run's instance for its record.
			run := func() (recorded, error) {
				cfg := c.cfg
				rec := &sim.Recorder{Machine: cfg.Machine}
				cfg.Machine = rec
				res, err := eng.run(ctx, cfg)
				return recorded{res, rec.Record()}, err
			}
			lone, err := run()
			if err != nil {
				t.Fatalf("%s: lone run: %v", desc, err)
			}
			want, wantRecord := lone.res, lone.record
			if wantRecord == nil {
				t.Fatalf("%s: the lone run published no run record", desc)
			}
			runs, errs := concurrently(run)
			for i, run := range runs {
				if errs[i] != nil {
					t.Fatalf("%s: run %d: %v", desc, i, errs[i])
				}
				if err := simtest.DiffResults(run.res, want); err != nil {
					t.Fatalf("%s: run %d's Result differs from a lone run's: %v", desc, i, err)
				}
				if !reflect.DeepEqual(run.record, wantRecord) {
					t.Fatalf("%s: run %d's run record differs from a lone run's:\n%+v\n%+v", desc, i, run.record, wantRecord)
				}
			}
		}
	}
}
