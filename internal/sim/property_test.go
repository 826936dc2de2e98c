package sim

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"bftbcast/internal/adversary"
	"bftbcast/internal/core"
	"bftbcast/internal/grid"
	"bftbcast/internal/radio"
)

// TestRunInvariantsProperty drives the engine over randomized small
// configurations and checks the universal invariants: no wrong decisions
// (Lemma 1), no schedule violations, budgets respected, and every
// decision backed by at least threshold correct copies.
func TestRunInvariantsProperty(t *testing.T) {
	f := func(seed uint64, tSel, mfSel, density uint8) bool {
		tt := int(tSel % 6)  // 0..5 (< r(2r+1) = 10 for r=2)
		mf := int(mfSel % 5) // 0..4
		p := core.Params{R: 2, T: tt, MF: mf}
		if p.Validate() != nil {
			return true
		}
		tor := grid.MustNew(20, 20, 2)
		spec, err := core.NewProtocolB(p)
		if err != nil {
			return false
		}
		cfg := Config{
			Topo: tor, Params: p, Spec: spec, Source: tor.ID(0, 0),
		}
		if tt > 0 {
			cfg.Placement = adversary.Random{T: tt, Density: float64(density%20+1) / 100, Seed: seed}
			cfg.Strategy = adversary.NewCorruptor()
		}
		res, err := RunContext(context.Background(), cfg)
		if err != nil {
			return false
		}
		if res.WrongDecisions != 0 || res.GoodGoodCollisions != 0 || res.RejectedJams != 0 {
			return false
		}
		budget := p.HomogeneousBudget()
		for i := 0; i < tor.Size(); i++ {
			id := grid.NodeID(i)
			if id == cfg.Source {
				continue
			}
			if int(res.Sent[i]) > budget {
				return false
			}
			if res.Decided[i] && res.DecidedValue[i] == radio.ValueTrue &&
				res.Correct[i] < int32(p.Threshold()) {
				return false
			}
			// Lemma 1 accounting: wrong copies never reach the
			// threshold.
			if res.Wrong[i] >= int32(p.Threshold()) && res.DecidedValue[i] != radio.ValueTrue && res.Decided[i] {
				return false
			}
		}
		// Theorem 2: protocol B with m = 2m0 must complete against any
		// budget-respecting strategy.
		return res.Completed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// rogueStrategy emits invalid jams: from good nodes, from broke nodes,
// duplicated senders, and bogus values. The engine must reject all of
// them and count them, spending no budget on them.
type rogueStrategy struct{ fired bool }

func (r *rogueStrategy) Name() string { return "rogue" }

func (r *rogueStrategy) Jams(v *adversary.View, slot int, tentative []radio.Delivery) []radio.Tx {
	if r.fired || len(tentative) == 0 {
		return nil
	}
	r.fired = true
	tor := v.Topo
	var bad, good grid.NodeID = grid.None, grid.None
	for i := 0; i < tor.Size(); i++ {
		if v.Bad[i] {
			if bad == grid.None {
				bad = grid.NodeID(i)
			}
		} else if good == grid.None {
			good = grid.NodeID(i)
		}
	}
	return []radio.Tx{
		{From: good, Value: radio.ValueFalse, Jam: true},         // not a bad node
		{From: bad, Value: radio.ValueNone, Jam: true},           // bogus value
		{From: bad, Value: radio.ValueFalse, Jam: false},         // not marked as jam
		{From: bad, Value: radio.ValueFalse, Jam: true},          // valid
		{From: bad, Value: radio.ValueFalse, Jam: true},          // duplicate sender
		{From: grid.NodeID(tor.Size() + 5), Value: 1, Jam: true}, // out of range
	}
}

func TestEngineRejectsInvalidJams(t *testing.T) {
	tor := grid.MustNew(20, 20, 2)
	p := core.Params{R: 2, T: 2, MF: 5}
	spec := protocolB(t, p)
	res, err := RunContext(context.Background(), Config{
		Topo: tor, Params: p, Spec: spec, Source: tor.ID(0, 0),
		Placement: adversary.Random{T: 2, Density: 0.05, Seed: 9},
		Strategy:  &rogueStrategy{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RejectedJams != 5 {
		t.Fatalf("RejectedJams = %d, want 5", res.RejectedJams)
	}
	if res.BadMessages != 1 {
		t.Fatalf("BadMessages = %d, want 1 (only the valid jam)", res.BadMessages)
	}
	if !res.Completed {
		t.Fatal("one stray jam cannot stop protocol B")
	}
}

// TestTimedOutFlag exercises the MaxSlots cap.
func TestTimedOutFlag(t *testing.T) {
	tor := grid.MustNew(20, 20, 2)
	res, err := RunContext(context.Background(), Config{
		Topo: tor, Params: miniParams, Spec: protocolB(t, miniParams),
		Source: tor.ID(0, 0), MaxSlots: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut || res.Completed || res.Stalled {
		t.Fatalf("flags: %+v", res)
	}
}
