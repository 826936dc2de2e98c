package bftbcast_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"bftbcast"
)

// countingObserver tallies events and checks slot monotonicity.
type countingObserver struct {
	slotStarts, sends, adversarialSends, delivers, decides int
	lastSlot                                               int
	outOfOrder                                             bool
}

func (c *countingObserver) SlotStart(slot int) {
	if slot < c.lastSlot {
		c.outOfOrder = true
	}
	c.lastSlot = slot
	c.slotStarts++
}

func (c *countingObserver) Send(slot int, from bftbcast.NodeID, v bftbcast.Value, adversarial bool) {
	c.sends++
	if adversarial {
		c.adversarialSends++
	}
}

func (c *countingObserver) Deliver(slot int, from, to bftbcast.NodeID, v bftbcast.Value) {
	c.delivers++
}

func (c *countingObserver) Decide(slot int, id bftbcast.NodeID, v bftbcast.Value) {
	c.decides++
}

// TestObserverCountsMatchReport runs each runCase observed and checks
// (a) the event stream is consistent with the unified Report and (b)
// observing does not change the Report.
func TestObserverCountsMatchReport(t *testing.T) {
	for _, rc := range runCases() {
		engine := rc.engine
		t.Run(rc.name, func(t *testing.T) {
			sc := cancelScenario(t, rc.name) // reuse the multi-slot scenarios
			ctx := context.Background()

			plain, err := engine.Run(ctx, freshScenario(t, sc))
			if err != nil {
				t.Fatal(err)
			}
			obs := &countingObserver{}
			observed, err := engine.Run(ctx, freshScenario(t, sc, bftbcast.WithObserver(obs)))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plain, observed) {
				t.Fatalf("observing changed the report:\nplain:    %+v\nobserved: %+v", plain, observed)
			}
			if obs.outOfOrder {
				t.Fatal("slot starts were not monotonic")
			}
			if obs.slotStarts == 0 || obs.delivers == 0 {
				t.Fatalf("degenerate stream: %+v", obs)
			}
			wantSends := observed.GoodMessages + observed.BadMessages
			if observed.Reactive != nil {
				// The reactive protocol's Send feed covers data rounds and
				// adversarial messages; NACKs are protocol-internal.
				wantSends = sumInt32(observed.Reactive.DataSends) + observed.BadMessages
			}
			if obs.sends != wantSends {
				t.Fatalf("sends = %d, want %d", obs.sends, wantSends)
			}
			if obs.adversarialSends != observed.BadMessages {
				t.Fatalf("adversarial sends = %d, want BadMessages = %d",
					obs.adversarialSends, observed.BadMessages)
			}
			// Every good decision except the pre-decided source fires a
			// Decide event. (Bad nodes never decide in any backend.)
			wantDecides := observed.DecidedGood - 1
			if obs.decides != wantDecides {
				t.Fatalf("decides = %d, want %d", obs.decides, wantDecides)
			}
		})
	}
}

func sumInt32(xs []int32) int {
	var s int
	for _, x := range xs {
		s += int(x)
	}
	return s
}

// freshScenario derives the scenario with the extra options. A strategy
// keeps no run state, so the derived scenario shares sc's.
func freshScenario(t *testing.T, sc *bftbcast.Scenario, extra ...bftbcast.ScenarioOption) *bftbcast.Scenario {
	t.Helper()
	out, err := sc.With(extra...)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFuncObserver: a FuncObserver skips its nil callbacks and calls
// OnDecide once per good decision after the source's.
func TestFuncObserver(t *testing.T) {
	var decides int
	obs := bftbcast.FuncObserver{OnDecide: func(int, bftbcast.NodeID, bftbcast.Value) { decides++ }}
	sc := freshScenario(t, cancelScenario(t, "fast"), bftbcast.WithObserver(obs))
	rep, err := bftbcast.EngineFast.Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if want := rep.DecidedGood - 1; decides != want {
		t.Fatalf("FuncObserver saw %d decisions, want %d", decides, want)
	}
}

// TestTraceObserverLines holds TraceObserver's lines to the golden-trace
// format as encoding/json writes it from the format's tags — a zero node
// or value left out — for acceptances and both terminal kinds, over
// zero, small, negative and extreme numbers.
func TestTraceObserverLines(t *testing.T) {
	type line struct {
		Slot  int    `json:"slot"`
		Node  int32  `json:"node,omitempty"`
		Kind  string `json:"kind"`
		Value int32  `json:"value,omitempty"`
	}
	var got, want bytes.Buffer
	tracer, enc := bftbcast.NewTraceObserver(&got), json.NewEncoder(&want)
	for _, d := range []line{
		{0, 0, "accept", 0}, {0, 7, "accept", 1}, {12, 0, "accept", 2},
		{math.MaxInt64, math.MaxInt32, "accept", math.MinInt32}, {3, 5, "accept", -1},
	} {
		tracer.Decide(d.Slot, bftbcast.NodeID(d.Node), bftbcast.Value(d.Value))
		if err := enc.Encode(d); err != nil {
			t.Fatal(err)
		}
	}
	for _, rep := range []bftbcast.Report{{Slots: 649, DecidedGood: 2024}, {Slots: 84, Stalled: true}, {}} {
		if err := tracer.Finish(&rep); err != nil {
			t.Fatal(err)
		}
		kind := "done"
		if rep.Stalled {
			kind = "stall"
		}
		if err := enc.Encode(line{Slot: rep.Slots, Kind: kind, Value: int32(rep.DecidedGood)}); err != nil {
			t.Fatal(err)
		}
	}
	if got.String() != want.String() {
		t.Fatalf("trace lines\n%s\nencoding/json writes\n%s", got.String(), want.String())
	}
}
