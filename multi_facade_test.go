package bftbcast_test

// Facade-level coverage of the multi-broadcast traffic mode
// (Scenario.Broadcasts, DESIGN.md §12): the fast-vs-ref differential
// oracle over randomized M × topology × adversary configs, the
// "Broadcasts of 0 and 1 are the classic single-broadcast run"
// regression, and Sweep determinism across
// worker counts. The machine-level M=1 bit-identity proof lives in
// internal/protocol (TestMultiM1BitIdentical).

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"bftbcast"
)

// multiScenario assembles one multi-broadcast cell on the shared matrix
// topologies (see matrix_test.go), protocol B with M instances.
func multiScenario(t *testing.T, kind string, m int, seed uint64, adversarial bool) *bftbcast.Scenario {
	t.Helper()
	tp, params := matrixTopology(t, kind)
	spec, err := bftbcast.NewProtocolB(params)
	if err != nil {
		t.Fatal(err)
	}
	opts := []bftbcast.ScenarioOption{
		bftbcast.WithTopology(tp),
		bftbcast.WithParams(params),
		bftbcast.WithSpec(spec),
		bftbcast.WithSeed(seed),
		bftbcast.WithBroadcasts(m),
	}
	if adversarial {
		opts = append(opts, bftbcast.WithAdversary(
			bftbcast.RandomPlacement{T: params.T, Density: 0.05, Seed: seed},
			bftbcast.NewCorruptor(),
		))
	}
	sc, err := bftbcast.NewScenario(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestMultiFastVsRef is the multi-broadcast differential oracle: full
// Report equality (modulo the engine name) between the sparse fast
// engine and the dense reference engine over the adversarial
// topology × M × seed matrix, including the per-instance MultiResult.
func TestMultiFastVsRef(t *testing.T) {
	ctx := context.Background()
	for _, kind := range []string{"torus", "grid", "rgg"} {
		for _, m := range []int{2, 5, 9} {
			t.Run(fmt.Sprintf("%s/M%d", kind, m), func(t *testing.T) {
				for seed := uint64(1); seed <= 3; seed++ {
					fastRep, err := bftbcast.EngineFast.Run(ctx, multiScenario(t, kind, m, seed, true))
					if err != nil {
						t.Fatalf("M=%d seed %d fast: %v", m, seed, err)
					}
					refRep, err := bftbcast.EngineRef.Run(ctx, multiScenario(t, kind, m, seed, true))
					if err != nil {
						t.Fatalf("M=%d seed %d ref: %v", m, seed, err)
					}
					refRep.Engine = fastRep.Engine
					if !reflect.DeepEqual(fastRep, refRep) {
						t.Fatalf("M=%d seed %d: fast and ref reports diverge:\nfast: %+v\nref:  %+v",
							m, seed, fastRep, refRep)
					}
					checkMultiExtension(t, fastRep, m)
				}
			})
		}
	}
}

// TestMultiBookedFastVsRef is the facade-level oracle of the booked
// slot body (DESIGN.md §12): a run with no strategy and no delivery
// observer hands Multi each slot's transmissions instead of its
// deliveries. Fault-free and placement-only cells (bad nodes that stay
// silent) over the three matrix topologies must give the reference
// engine's Report, the per-instance MultiResult included; M = 65 keeps a
// second mask word in play. internal/sim's TestMultiBookedSlots proves
// that these cells book their slots.
func TestMultiBookedFastVsRef(t *testing.T) {
	ctx := context.Background()
	seeds := uint64(3)
	if testing.Short() {
		seeds = 1
	}
	for _, kind := range []string{"torus", "grid", "rgg"} {
		for _, m := range []int{2, 5, 9, 65} {
			for _, placed := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/M%d/placed=%v", kind, m, placed), func(t *testing.T) {
					for seed := uint64(1); seed <= seeds; seed++ {
						build := func() *bftbcast.Scenario {
							sc := multiScenario(t, kind, m, seed, false)
							if !placed {
								return sc
							}
							sc, err := sc.With(bftbcast.WithPlacement(bftbcast.RandomPlacement{T: 1, Density: 0.05, Seed: seed}))
							if err != nil {
								t.Fatal(err)
							}
							return sc
						}
						fastRep, err := bftbcast.EngineFast.Run(ctx, build())
						if err != nil {
							t.Fatalf("seed %d fast: %v", seed, err)
						}
						refRep, err := bftbcast.EngineRef.Run(ctx, build())
						if err != nil {
							t.Fatalf("seed %d ref: %v", seed, err)
						}
						refRep.Engine = fastRep.Engine
						if !reflect.DeepEqual(fastRep, refRep) {
							t.Fatalf("seed %d: fast and ref reports diverge:\nfast: %+v\nref:  %+v", seed, fastRep, refRep)
						}
						if placed && fastRep.BadCount == 0 {
							t.Fatalf("seed %d: the placement put no bad node", seed)
						}
						checkMultiExtension(t, fastRep, m)
					}
				})
			}
		}
	}
}

// checkMultiExtension asserts the Report extension shape of a
// multi-broadcast run.
func checkMultiExtension(t *testing.T, rep *bftbcast.Report, m int) {
	t.Helper()
	if rep.Multi == nil || rep.Sim != nil || rep.Reactive != nil {
		t.Fatalf("multi run carries the wrong extension: %+v", rep)
	}
	mr := rep.Multi
	if mr.M != m || len(mr.Instances) != m {
		t.Fatalf("MultiResult sized M=%d/%d instances, want %d", mr.M, len(mr.Instances), m)
	}
	if mr.BatchedSends != rep.GoodMessages {
		t.Fatalf("BatchedSends %d != GoodMessages %d (one physical transmission per batched send)",
			mr.BatchedSends, rep.GoodMessages)
	}
	if rep.Completed && mr.BatchedSends >= mr.NaiveSends && m > 1 {
		t.Fatalf("no batching win on a completed run: batched %d, naive %d", mr.BatchedSends, mr.NaiveSends)
	}
	if rep.WrongDecisions != 0 {
		t.Fatalf("%d wrong decisions (Lemma 1 holds per instance)", rep.WrongDecisions)
	}
}

// TestMultiBroadcastsOneIsClassicRun pins that Broadcasts values of 0
// and 1 run the classic single-broadcast path bit for bit: the Reports
// (including the Sim extension) are deeply equal to a plain scenario's.
func TestMultiBroadcastsOneIsClassicRun(t *testing.T) {
	ctx := context.Background()
	for _, engine := range []bftbcast.Engine{bftbcast.EngineFast, bftbcast.EngineRef} {
		for _, m := range []int{0, 1} {
			plainRep, err := engine.Run(ctx, matrixScenario(t, "torus", "b", 3, true))
			if err != nil {
				t.Fatal(err)
			}
			sc, err := matrixScenario(t, "torus", "b", 3, true).With(bftbcast.WithBroadcasts(m))
			if err != nil {
				t.Fatal(err)
			}
			mRep, err := engine.Run(ctx, sc)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plainRep, mRep) {
				t.Fatalf("%s Broadcasts=%d diverged from the plain run:\nplain: %+v\ngot:   %+v",
					engine.Name(), m, plainRep, mRep)
			}
			if mRep.Multi != nil {
				t.Fatalf("Broadcasts=%d populated the Multi extension", m)
			}
		}
	}
}

// TestMultiSweep runs a multi-broadcast M × seed sweep through the
// public Sweep harness on 1 and 4 workers: reports must be identical for
// any worker count (each point derives its instance sources and staggers
// from its own seed), proving the traffic mode composes with pooled
// engines.
func TestMultiSweep(t *testing.T) {
	var scenarios []*bftbcast.Scenario
	build := func() []*bftbcast.Scenario {
		var out []*bftbcast.Scenario
		for _, m := range []int{2, 4, 8} {
			for seed := uint64(1); seed <= 3; seed++ {
				out = append(out, multiScenario(t, "torus", m, seed, true))
			}
		}
		return out
	}
	scenarios = build()
	ctx := context.Background()
	run := func(workers int, scenarios []*bftbcast.Scenario) []bftbcast.SweepPoint {
		pts, err := (&bftbcast.Sweep{Workers: workers, Scenarios: scenarios}).Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
	seq, par := run(1, scenarios), run(4, build())
	for i := range seq {
		if !reflect.DeepEqual(seq[i].Report, par[i].Report) {
			t.Fatalf("point %d differs between 1 and 4 workers:\nseq: %+v\npar: %+v",
				i, seq[i].Report, par[i].Report)
		}
		if seq[i].Report.Multi == nil {
			t.Fatalf("point %d missing the Multi extension", i)
		}
	}
}

// instanceCounter is a minimal InstanceObserver.
type instanceCounter struct {
	delivers, decides int
}

func (c *instanceCounter) Decide(int, bftbcast.NodeID, bftbcast.Value) {}

func (c *instanceCounter) DeliverInstance(int, int, bftbcast.NodeID, bftbcast.NodeID, bftbcast.Value) {
	c.delivers++
}

func (c *instanceCounter) DecideInstance(int, int, bftbcast.NodeID, bftbcast.Value) { c.decides++ }

// TestMultiObservedMatchesUnobserved runs one multi-broadcast scenario
// with no observer, a plain Observer and an InstanceObserver: the
// machine books late entries differently when the per-instance delivery
// hook is attached, and the Reports must not show it. M = 65 keeps the
// second mask word in play.
func TestMultiObservedMatchesUnobserved(t *testing.T) {
	ctx := context.Background()
	const m = 65
	for _, kind := range []string{"torus", "rgg"} {
		run := func(o bftbcast.Observer) *bftbcast.Report {
			sc := multiScenario(t, kind, m, 2, true)
			if o != nil {
				var err error
				if sc, err = sc.With(bftbcast.WithObserver(o)); err != nil {
					t.Fatal(err)
				}
			}
			rep, err := bftbcast.EngineFast.Run(ctx, sc)
			if err != nil {
				t.Fatalf("%s: %v", kind, err)
			}
			return rep
		}
		rawDelivers := 0
		counter := &instanceCounter{}
		bare := run(nil)
		plain := run(bftbcast.FuncObserver{OnDeliver: func(int, bftbcast.NodeID, bftbcast.NodeID, bftbcast.Value) { rawDelivers++ }})
		tagged := run(counter)
		if !reflect.DeepEqual(bare, plain) || !reflect.DeepEqual(bare, tagged) {
			t.Fatalf("%s: observers changed the Report:\nnone:     %+v\nplain:    %+v\ninstance: %+v", kind, bare, plain, tagged)
		}
		checkMultiExtension(t, bare, m)
		if counter.decides != bare.Multi.Decisions || counter.delivers < bare.Multi.EntriesCarried || rawDelivers == 0 {
			t.Fatalf("%s: %d DecideInstance events for %d decisions, %d DeliverInstance events for %d entries carried, %d raw deliveries",
				kind, counter.decides, bare.Multi.Decisions, counter.delivers, bare.Multi.EntriesCarried, rawDelivers)
		}
	}
}
