package bftbcast_test

// The engine×protocol differential matrix: every protocol (B, Bheter,
// Koo, reactive) on every topology kind (torus, bounded grid, RGG) runs
// through the fast and dense-reference engines, asserting equality on
// the unified Report.
// This is the facade-level guarantee the protocol seam exists for: one
// Scenario, any backend, the same answer.

import (
	"cmp"
	"context"
	"reflect"
	"slices"
	"testing"

	"bftbcast"
)

// matrixTopology builds the topology for one matrix cell. The fault
// parameter t adapts to the topology's range (an RGG has hop range 1).
func matrixTopology(t *testing.T, kind string) (bftbcast.Topology, bftbcast.Params) {
	t.Helper()
	switch kind {
	case "torus":
		tor, err := bftbcast.NewTorus(15, 15, 2)
		if err != nil {
			t.Fatal(err)
		}
		return tor, bftbcast.Params{R: 2, T: 1, MF: 2}
	case "grid":
		g, err := bftbcast.NewBoundedGrid(15, 15, 2)
		if err != nil {
			t.Fatal(err)
		}
		return g, bftbcast.Params{R: 2, T: 1, MF: 2}
	case "rgg":
		g, err := bftbcast.NewRGG(250, 11)
		if err != nil {
			t.Fatal(err)
		}
		return g, bftbcast.Params{R: 1, T: 1, MF: 2}
	default:
		t.Fatalf("unknown topology kind %q", kind)
		return nil, bftbcast.Params{}
	}
}

// matrixScenario assembles one cell. adversarial attaches the
// protocol-appropriate adversary (random placement + corruptor for the
// threshold protocols, random placement + policy for reactive).
func matrixScenario(t *testing.T, kind, proto string, seed uint64, adversarial bool) *bftbcast.Scenario {
	t.Helper()
	tp, params := matrixTopology(t, kind)
	opts := []bftbcast.ScenarioOption{
		bftbcast.WithTopology(tp),
		bftbcast.WithParams(params),
		bftbcast.WithSeed(seed),
	}
	if proto == "reactive" {
		if kind == "rgg" && !adversarial {
			// Certified propagation needs t+1 distinct in-window
			// relayers, which an RGG's degree-1 fringe nodes can never
			// assemble for t >= 1: the adversarial cells assert that the
			// engines agree on that stall, while the fault-free
			// completion cell runs the t=0 form (accept any relayer).
			params.T = 0
			opts[1] = bftbcast.WithParams(params)
		}
		opts = append(opts, bftbcast.WithProtocol(bftbcast.ProtocolReactive))
		if adversarial {
			opts = append(opts, bftbcast.WithPlacement(
				bftbcast.RandomPlacement{T: params.T, Density: 0.05, Seed: seed}))
		}
	} else {
		var (
			spec bftbcast.Spec
			err  error
		)
		switch proto {
		case "b":
			spec, err = bftbcast.NewProtocolB(params)
		case "bheter":
			tor, ok := tp.(*bftbcast.Torus)
			if !ok {
				t.Fatalf("bheter needs a torus")
			}
			spec, err = bftbcast.NewBheter(params, tor, bftbcast.Cross{Center: tor.ID(0, 0), HalfWidth: params.R})
		case "koo":
			spec, err = bftbcast.NewKooBaseline(params)
		default:
			t.Fatalf("unknown protocol %q", proto)
		}
		if err != nil {
			t.Fatal(err)
		}
		opts = append(opts, bftbcast.WithSpec(spec))
		if adversarial {
			opts = append(opts, bftbcast.WithAdversary(
				bftbcast.RandomPlacement{T: params.T, Density: 0.05, Seed: seed},
				bftbcast.NewCorruptor(),
			))
		}
	}
	sc, err := bftbcast.NewScenario(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// matrixProtocols lists the protocols runnable on the given topology
// kind (Bheter is a torus construction).
func matrixProtocols(kind string) []string {
	if kind == "torus" {
		return []string{"b", "bheter", "koo", "reactive"}
	}
	return []string{"b", "koo", "reactive"}
}

// TestMatrixFastVsRef asserts full-Report equality (modulo the engine
// name) between the sparse fast engine and the dense reference engine
// over the adversarial protocol×topology×seed matrix.
func TestMatrixFastVsRef(t *testing.T) {
	ctx := context.Background()
	for _, kind := range []string{"torus", "grid", "rgg"} {
		for _, proto := range matrixProtocols(kind) {
			t.Run(kind+"/"+proto, func(t *testing.T) {
				for seed := uint64(1); seed <= 3; seed++ {
					fastRep, err := bftbcast.EngineFast.Run(ctx, matrixScenario(t, kind, proto, seed, true))
					if err != nil {
						t.Fatalf("seed %d fast: %v", seed, err)
					}
					refRep, err := bftbcast.EngineRef.Run(ctx, matrixScenario(t, kind, proto, seed, true))
					if err != nil {
						t.Fatalf("seed %d ref: %v", seed, err)
					}
					refRep.Engine = fastRep.Engine
					if !reflect.DeepEqual(fastRep, refRep) {
						t.Fatalf("seed %d: fast and ref reports diverge:\nfast: %+v\nref:  %+v",
							seed, fastRep, refRep)
					}
					if proto == "reactive" && fastRep.Reactive == nil {
						t.Fatalf("seed %d: reactive run missing its Report extension", seed)
					}
				}
			})
		}
	}
}

// TestMatrixSlotCap pins the engines' classification of a run cut off by
// WithMaxSlots right after its last decision: every node has decided
// Vtrue, so the run is Completed, and relays are still pending at the
// cap, so it is TimedOut too — on every engine.
func TestMatrixSlotCap(t *testing.T) {
	ctx := context.Background()
	tor, err := bftbcast.NewTorus(15, 15, 2)
	if err != nil {
		t.Fatal(err)
	}
	params := bftbcast.Params{R: 2, T: 1, MF: 1}
	spec, err := bftbcast.NewProtocolB(params)
	if err != nil {
		t.Fatal(err)
	}
	last := -1
	sc, err := bftbcast.NewScenario(
		bftbcast.WithTopology(tor), bftbcast.WithParams(params), bftbcast.WithSpec(spec),
		bftbcast.WithObserver(bftbcast.FuncObserver{
			OnDecide: func(slot int, _ bftbcast.NodeID, _ bftbcast.Value) { last = slot },
		}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bftbcast.EngineFast.Run(ctx, sc); err != nil {
		t.Fatal(err)
	}
	if last < 0 {
		t.Fatal("no Decide event")
	}
	capped, err := sc.With(bftbcast.WithObserver(nil), bftbcast.WithMaxSlots(last+1))
	if err != nil {
		t.Fatal(err)
	}
	var first *bftbcast.Report
	for _, engine := range bftbcast.Engines() {
		rep, err := engine.Run(ctx, capped)
		if err != nil {
			t.Fatalf("%s: %v", engine.Name(), err)
		}
		if !rep.Completed || !rep.TimedOut || rep.Stalled || rep.Slots != last+1 || rep.DecidedGood != rep.TotalGood {
			t.Fatalf("%s: completed=%v timedOut=%v stalled=%v slots=%d decided=%d/%d, want a completed, timed-out run of %d slots",
				engine.Name(), rep.Completed, rep.TimedOut, rep.Stalled, rep.Slots, rep.DecidedGood, rep.TotalGood, last+1)
		}
		rep.Engine = ""
		if first == nil {
			first = rep
		} else if !reflect.DeepEqual(first, rep) {
			t.Fatalf("%s disagrees with fast on the capped run:\nfast: %+v\n%s: %+v", engine.Name(), first, engine.Name(), rep)
		}
	}
}

// streamEvent is one Send ('s'), Deliver ('d') or Decide ('a') event of
// an observed run; a Decide carries its node in to.
type streamEvent struct {
	kind     byte
	slot     int
	from, to bftbcast.NodeID
	v        bftbcast.Value
}

// recordStream runs sc on engine with a recording Observer attached: one
// that watches sends, deliveries and decisions, or decisions alone.
func recordStream(t *testing.T, engine bftbcast.Engine, sc *bftbcast.Scenario, decideOnly bool) []streamEvent {
	t.Helper()
	var evs []streamEvent
	obs := bftbcast.FuncObserver{OnDecide: func(slot int, id bftbcast.NodeID, v bftbcast.Value) {
		evs = append(evs, streamEvent{'a', slot, id, id, v})
	}}
	if !decideOnly {
		obs.OnSend = func(slot int, from bftbcast.NodeID, v bftbcast.Value, _ bool) {
			evs = append(evs, streamEvent{'s', slot, from, from, v})
		}
		obs.OnDeliver = func(slot int, from, to bftbcast.NodeID, v bftbcast.Value) {
			evs = append(evs, streamEvent{'d', slot, from, to, v})
		}
	}
	observed, err := sc.With(bftbcast.WithObserver(obs))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := engine.Run(context.Background(), observed)
	if err != nil {
		t.Fatalf("%s: %v", engine.Name(), err)
	}
	if !rep.Completed {
		t.Fatalf("%s: run did not complete", engine.Name())
	}
	return evs
}

func decidesOf(evs []streamEvent) []streamEvent {
	var out []streamEvent
	for _, e := range evs {
		if e.kind == 'a' {
			out = append(out, e)
		}
	}
	return out
}

// slotSorted returns evs with every slot's events in one canonical
// order, so that two streams compare equal when each slot holds the same
// multiset of events.
func slotSorted(evs []streamEvent) []streamEvent {
	out := slices.Clone(evs)
	slices.SortFunc(out, func(a, b streamEvent) int {
		return cmp.Or(
			cmp.Compare(a.slot, b.slot),
			cmp.Compare(a.kind, b.kind),
			cmp.Compare(a.from, b.from),
			cmp.Compare(a.to, b.to),
			cmp.Compare(a.v, b.v),
		)
	})
	return out
}

// TestMatrixObserverStreams pins what an Observer sees across engines,
// on a torus for each protocol machine (threshold B fault-free and under
// the corruptor, the multi-broadcast multiplexer, reactive). Every
// engine repeats its own Send/Deliver/Decide stream run after run; the
// Decide sequence is one and the same on fast and ref; fast emits a
// slot's transmissions in queue order where ref walks the colour class
// in node order, so against ref it is held to the same events per slot,
// in any order. A Decide-only Observer, which lets fast take its
// frontier, retired and booked slot bodies, sees ref's Decide sequence
// too.
func TestMatrixObserverStreams(t *testing.T) {
	for _, tc := range []struct {
		name, proto string
		broadcasts  int
		adversarial bool
	}{
		{"b", "b", 1, false},
		{"b-corruptor", "b", 1, true},
		{"broadcasts4", "b", 4, false},
		{"reactive", "reactive", 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			scenario := func() *bftbcast.Scenario {
				sc, err := matrixScenario(t, "torus", tc.proto, 7, tc.adversarial).With(bftbcast.WithBroadcasts(tc.broadcasts))
				if err != nil {
					t.Fatal(err)
				}
				return sc
			}
			streams := map[string][]streamEvent{}
			for _, engine := range bftbcast.Engines() {
				first := recordStream(t, engine, scenario(), false)
				if len(decidesOf(first)) == 0 {
					t.Fatalf("%s: no Decide event", engine.Name())
				}
				for run := 1; run < 5; run++ {
					if again := recordStream(t, engine, scenario(), false); !reflect.DeepEqual(first, again) {
						t.Fatalf("%s: run %d saw a different event stream than run 0", engine.Name(), run)
					}
				}
				streams[engine.Name()] = first
			}
			fast, ref := streams["fast"], streams["ref"]
			if !reflect.DeepEqual(decidesOf(fast), decidesOf(ref)) {
				t.Fatal("fast and ref disagree on the Decide sequence")
			}
			if !reflect.DeepEqual(slotSorted(fast), slotSorted(ref)) {
				t.Fatal("fast and ref disagree on some slot's set of events")
			}
			for _, engine := range bftbcast.Engines() {
				if decides := recordStream(t, engine, scenario(), true); !reflect.DeepEqual(decides, decidesOf(ref)) {
					t.Fatalf("%s: a Decide-only Observer saw another Decide sequence than ref's", engine.Name())
				}
			}
		})
	}
}

// TestReactiveSweep runs a reactive policy×seed sweep through the public
// Sweep harness on 1 and 3 workers: reports must be identical for any
// worker count (each point derives its own machine and seeds), proving
// the re-platformed protocol composes with pooled engines.
func TestReactiveSweep(t *testing.T) {
	base := matrixScenario(t, "torus", "reactive", 1, true)
	var scenarios []*bftbcast.Scenario
	for _, policy := range []bftbcast.AttackPolicy{
		bftbcast.PolicyDisrupt, bftbcast.PolicyNackSpam, bftbcast.PolicyMixed,
	} {
		for seed := uint64(1); seed <= 4; seed++ {
			sc, err := base.With(
				bftbcast.WithSeed(seed),
				bftbcast.WithReactive(bftbcast.ReactiveSpec{Policy: policy}),
				bftbcast.WithPlacement(bftbcast.RandomPlacement{T: 1, Density: 0.05, Seed: seed}),
			)
			if err != nil {
				t.Fatal(err)
			}
			scenarios = append(scenarios, sc)
		}
	}
	ctx := context.Background()
	run := func(workers int) []bftbcast.SweepPoint {
		pts, err := (&bftbcast.Sweep{Workers: workers, Scenarios: scenarios}).Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
	seq, par := run(1), run(3)
	for i := range seq {
		if !reflect.DeepEqual(seq[i].Report, par[i].Report) {
			t.Fatalf("point %d differs between 1 and 3 workers:\nseq: %+v\npar: %+v",
				i, seq[i].Report, par[i].Report)
		}
		if !seq[i].Report.Completed && seq[i].Report.Reactive.ForgedDeliveries == 0 {
			t.Fatalf("point %d: forgery-free reactive sweep point failed: %+v", i, seq[i].Report)
		}
	}
}
