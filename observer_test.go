package bftbcast_test

import (
	"context"
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

// freshScenario derives the scenario with the extra options and a fresh
// strategy (strategies are single-run objects).
func freshScenario(t *testing.T, sc *bftbcast.Scenario, extra ...bftbcast.ScenarioOption) *bftbcast.Scenario {
	t.Helper()
	opts := extra
	if sc.Strategy != nil {
		opts = append(opts, bftbcast.WithStrategy(bftbcast.NewCorruptor()))
	}
	out, err := sc.With(opts...)
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
