package bftbcast_test

import (
	"context"
	"io"
	"reflect"
	"testing"

	"bftbcast"
)

// TestTiming runs scenarios that take each slot body — full resolves
// under a corruptor, frontier slots with retirement, booked multi slots,
// the reactive machine — on both engines, timed and untimed. A timed
// Report must equal the untimed one but for Timing; its rows must sum to
// Total, its executed and skipped slots to Slots and its sends to
// GoodMessages, and each body must show in the counts it feeds. An
// untimed run has no Timing. Each case runs again under observers that
// watch more and more: their Reports must not change, and on fast their
// counts must show the bodies the watched set keeps.
func TestTiming(t *testing.T) {
	tor, err := bftbcast.NewTorus(15, 15, 2)
	if err != nil {
		t.Fatal(err)
	}
	params := bftbcast.Params{R: 2, T: 1, MF: 2}
	spec, err := bftbcast.NewProtocolB(params)
	if err != nil {
		t.Fatal(err)
	}
	base := []bftbcast.ScenarioOption{bftbcast.WithTopology(tor), bftbcast.WithParams(params), bftbcast.WithSpec(spec)}
	cases := []struct {
		name string
		opts []bftbcast.ScenarioOption
		// want checks the counts a fast run of the case must show.
		want func(*bftbcast.Timing) bool
	}{
		{"frontier-retired", nil, func(tm *bftbcast.Timing) bool {
			return tm.SendsFrontier > 0 && tm.SendsRetired > 0 && tm.SlotsSkipped > 0
		}},
		{"corruptor", []bftbcast.ScenarioOption{bftbcast.WithAdversary(
			bftbcast.RandomPlacement{T: 1, Density: 0.05, Seed: 3}, bftbcast.NewCorruptor())},
			func(tm *bftbcast.Timing) bool { return tm.SendsFrontier > 0 && tm.SendsFull > 0 }},
		{"spammer", []bftbcast.ScenarioOption{bftbcast.WithAdversary(
			bftbcast.RandomPlacement{T: 1, Density: 0.05, Seed: 3}, bftbcast.NewSpammer())},
			func(tm *bftbcast.Timing) bool { return tm.SendsFull > 0 && tm.SendsFrontier == 0 }},
		{"multi-booked", []bftbcast.ScenarioOption{bftbcast.WithBroadcasts(8)},
			func(tm *bftbcast.Timing) bool { return tm.SendsBooked > 0 && tm.SendsFull == 0 && tm.Deliver > 0 }},
		{"reactive", []bftbcast.ScenarioOption{bftbcast.WithProtocol(bftbcast.ProtocolReactive)},
			func(tm *bftbcast.Timing) bool { return tm.SendsFrontier+tm.SendsBooked > 0 }},
	}
	// observers pick the fast slot bodies by what they watch: a
	// Decide-only Observer keeps the unobserved run's, a slot-start or
	// send watcher keeps every send in a slot, and a deliver watcher
	// resolves every slot in full.
	sameCounts := func(tm, bare *bftbcast.Timing) bool { return slotCounts(tm) == slotCounts(bare) }
	notRetired := func(tm, _ *bftbcast.Timing) bool { return tm.SendsRetired == 0 }
	inFull := func(tm, _ *bftbcast.Timing) bool {
		return tm.SendsFrontier == 0 && tm.SendsBooked == 0 && tm.SendsRetired == 0
	}
	observers := []struct {
		name string
		obs  bftbcast.Observer
		want func(tm, bare *bftbcast.Timing) bool
	}{
		{"trace", bftbcast.NewTraceObserver(io.Discard), sameCounts},
		{"decide", bftbcast.FuncObserver{OnDecide: func(int, bftbcast.NodeID, bftbcast.Value) {}}, sameCounts},
		{"slot-start", bftbcast.FuncObserver{OnSlotStart: func(int) {}}, notRetired},
		{"send", bftbcast.FuncObserver{OnSend: func(int, bftbcast.NodeID, bftbcast.Value, bool) {}}, notRetired},
		{"deliver", bftbcast.FuncObserver{OnDeliver: func(int, bftbcast.NodeID, bftbcast.NodeID, bftbcast.Value) {}}, inFull},
	}
	ctx := context.Background()
	for _, c := range cases {
		for _, eng := range bftbcast.Engines() {
			t.Run(c.name+"/"+eng.Name(), func(t *testing.T) {
				sc, err := bftbcast.NewScenario(append(append([]bftbcast.ScenarioOption(nil), base...), c.opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				plain, err := eng.Run(ctx, sc)
				if err != nil {
					t.Fatal(err)
				}
				if plain.Timing != nil {
					t.Fatal("an untimed run carries a Timing")
				}
				timedSc, err := sc.With(bftbcast.WithTiming())
				if err != nil {
					t.Fatal(err)
				}
				timed, err := eng.Run(ctx, timedSc)
				if err != nil {
					t.Fatal(err)
				}
				tm := timed.Timing
				if tm == nil {
					t.Fatal("a timed run carries no Timing")
				}
				timed.Timing = nil
				if timed.Sim != nil {
					timed.Sim.Timing = nil
				}
				if !reflect.DeepEqual(timed, plain) {
					t.Fatalf("timing changed the Report:\n timed %+v\n plain %+v", timed, plain)
				}
				sum := tm.Begin + tm.Loop + tm.Emit + tm.Resolve + tm.Adversary + tm.Deliver + tm.Schedule + tm.Finish
				switch {
				case tm.Total() != sum || sum <= 0:
					t.Fatalf("rows sum to %v, Total is %v", sum, tm.Total())
				case tm.SlotsExecuted+tm.SlotsSkipped != plain.Slots || tm.SlotsExecuted <= 0:
					t.Fatalf("%d executed and %d skipped slots, the run took %d", tm.SlotsExecuted, tm.SlotsSkipped, plain.Slots)
				case tm.SendsFull+tm.SendsFrontier+tm.SendsBooked+tm.SendsRetired != plain.GoodMessages:
					t.Fatalf("sends %d full + %d frontier + %d booked + %d retired, the run made %d",
						tm.SendsFull, tm.SendsFrontier, tm.SendsBooked, tm.SendsRetired, plain.GoodMessages)
				}
				if eng == bftbcast.EngineRef {
					for _, o := range observers {
						runObserved(t, eng, timedSc, plain, o.obs)
					}
					if tm.Emit+tm.Resolve+tm.Adversary+tm.Deliver+tm.Schedule != 0 || tm.SlotsSkipped != 0 || tm.SendsFull != plain.GoodMessages {
						t.Fatalf("ref fills Begin, Loop and Finish only and runs every slot in full: %+v", tm)
					}
					return
				}
				if !c.want(tm) {
					t.Fatalf("the counts do not show the case's slot body: %+v", tm)
				}
				for _, o := range observers {
					otm := runObserved(t, eng, timedSc, plain, o.obs)
					if !o.want(otm, tm) {
						t.Fatalf("%s observer: counts %+v, unobserved %+v", o.name, otm, tm)
					}
				}
			})
		}
	}
}

// slotCounts is a Timing's slot and send counts.
func slotCounts(tm *bftbcast.Timing) [6]int {
	return [6]int{tm.SlotsExecuted, tm.SlotsSkipped, tm.SendsFull, tm.SendsFrontier, tm.SendsBooked, tm.SendsRetired}
}

// runObserved runs the timed scenario sc on eng with obs attached,
// checks that its Report equals plain but for Timing, and returns the
// Timing.
func runObserved(t *testing.T, eng bftbcast.Engine, sc *bftbcast.Scenario, plain *bftbcast.Report, obs bftbcast.Observer) *bftbcast.Timing {
	t.Helper()
	observed, err := sc.With(bftbcast.WithObserver(obs))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run(context.Background(), observed)
	if err != nil {
		t.Fatal(err)
	}
	tm := rep.Timing
	if tm == nil {
		t.Fatal("a timed observed run carries no Timing")
	}
	rep.Timing = nil
	if rep.Sim != nil {
		rep.Sim.Timing = nil
	}
	if !reflect.DeepEqual(rep, plain) {
		t.Fatalf("observing %T changed the Report:\n observed %+v\n plain    %+v", obs, rep, plain)
	}
	return tm
}
