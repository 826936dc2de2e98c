package sim_test

// The frontier slot body (see the package comment) lives inside the fast
// engine next to the body it shortcuts, so besides the fast-vs-ref oracle
// it gets a differential test of its own: every configuration runs twice
// on one Runner — bare, which takes the frontier path when eligible, and
// with a no-op OnDeliver attached, which forces full resolution — and the
// two legs must agree on the whole Result, on the reactive machine's run
// record, and on the slot-start, OnSend and OnAccept streams. The Runner's
// frontier-slot counter proves which path each leg took, so neither half
// of the comparison can go vacuous. The bare leg also has the engine's
// live counters — what lets it skip settled rows — recounted against the
// instance's settled mask at every executed slot, and its safety
// properties checked as it runs (simtest.Safety, on OnSend and OnAccept
// only, so the leg stays on the frontier).

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"bftbcast/internal/adversary"
	"bftbcast/internal/core"
	"bftbcast/internal/grid"
	"bftbcast/internal/protocol"
	"bftbcast/internal/radio"
	"bftbcast/internal/sim"
	"bftbcast/internal/sim/ref"
	"bftbcast/internal/sim/simtest"
	"bftbcast/internal/topo"
	"bftbcast/internal/topo/topotest"
)

// event is one observer callback, flattened for comparison.
type event struct {
	kind        string
	slot        int
	id          grid.NodeID
	to          grid.NodeID
	v           radio.Value
	adversarial bool
}

// observe wires every observer callback of cfg to append into a fresh
// event log and returns the log.
func observe(cfg *sim.Config) *[]event {
	log := &[]event{}
	cfg.Hooks.OnSlotStart = func(slot int) {
		*log = append(*log, event{kind: "slot", slot: slot})
	}
	cfg.Hooks.OnSend = func(slot int, from grid.NodeID, v radio.Value, adversarial bool) {
		*log = append(*log, event{kind: "send", slot: slot, id: from, v: v, adversarial: adversarial})
	}
	cfg.Hooks.OnDeliver = func(slot int, d radio.Delivery) {
		*log = append(*log, event{kind: "deliver", slot: slot, id: d.From, to: d.To, v: d.Value})
	}
	cfg.Hooks.OnAccept = func(slot int, id grid.NodeID, v radio.Value) {
		*log = append(*log, event{kind: "accept", slot: slot, id: id, v: v})
	}
	return log
}

// frontierLeg is one observed run: Result, the reactive machine's run
// record (nil for other protocols), event stream, how many of its slots
// completed on the frontier path, and how many transmissions of those
// slots were booked without reading their (settled) row.
type frontierLeg struct {
	res     *sim.Result
	stats   *protocol.ReactiveStats
	events  []event
	slots   int
	settled int
}

// runFrontierLeg runs cfg on r with every observer hook logging (see
// observe) except OnDeliver, which is replaced by onDeliver: nil leaves
// the run eligible for the frontier path, anything else forces full
// resolution without adding events to the log. Every executed slot starts
// with a recount of the engine's live counters against the instance's
// settled mask; the first disagreement is returned as the run's error. A bare leg is also watched by a
// simtest.Safety (noWrong: it decides no value but Vtrue), whose first
// violation is returned the same way.
func runFrontierLeg(r *sim.Runner, cfg sim.Config, onDeliver func(int, radio.Delivery), noWrong bool) (frontierLeg, error) {
	log := observe(&cfg)
	cfg.Hooks.OnDeliver = onDeliver
	var safety *simtest.Safety
	if onDeliver == nil {
		var err error
		if safety, err = simtest.WatchSafety(&cfg, noWrong); err != nil {
			return frontierLeg{}, err
		}
	}
	var liveErr error
	logSlot := cfg.Hooks.OnSlotStart
	cfg.Hooks.OnSlotStart = func(slot int) {
		logSlot(slot)
		if liveErr == nil {
			liveErr = r.CheckLive()
		}
	}
	res, err := r.RunContext(context.Background(), cfg)
	if err == nil {
		err = liveErr
	}
	if err == nil && safety != nil {
		err = safety.Err()
	}
	leg := frontierLeg{res: res, events: *log, slots: r.FrontierSlots(), settled: r.SettledTxs()}
	if m, ok := cfg.Machine.(*protocol.Reactive); ok {
		leg.stats = m.TakeStats()
	}
	return leg, err
}

// diffFrontier runs build's config bare and with a no-op OnDeliver on r
// and fails unless both legs agree; it returns the bare leg (nil when the
// engine rejected the config on both). noWrong is the bare leg's Safety
// setting.
func diffFrontier(t *testing.T, r *sim.Runner, desc string, noWrong bool, build func() sim.Config) *frontierLeg {
	t.Helper()
	bare, bareErr := runFrontierLeg(r, build(), nil, noWrong)
	full, fullErr := runFrontierLeg(r, build(), func(int, radio.Delivery) {}, noWrong)
	if (bareErr != nil) != (fullErr != nil) {
		t.Fatalf("%s: error divergence: bare=%v observed=%v", desc, bareErr, fullErr)
	}
	if bareErr != nil {
		return nil
	}
	if full.slots != 0 || full.settled != 0 {
		t.Fatalf("%s: %d frontier slots, %d settled transmissions with OnDeliver attached",
			desc, full.slots, full.settled)
	}
	if err := simtest.DiffResults(bare.res, full.res); err != nil {
		t.Fatalf("%s: frontier vs full resolution: %v", desc, err)
	}
	if !reflect.DeepEqual(bare.stats, full.stats) {
		t.Fatalf("%s: reactive run records differ:\nfrontier %+v\nfull     %+v", desc, bare.stats, full.stats)
	}
	if !reflect.DeepEqual(bare.events, full.events) {
		t.Fatalf("%s: slot/send/accept streams differ (%d vs %d events)",
			desc, len(bare.events), len(full.events))
	}
	return &bare
}

// gappySpec thins spec out: every fifth node relays nothing at all
// (Sends == 0), and every seventh has no budget, so the engine clamps its
// relay to 0. Either way the node decides without ever getting a pending
// transmission, and must still leave its neighbors' live counts.
func gappySpec(spec core.Spec) core.Spec {
	sends, budget := spec.Sends, spec.Budget
	spec.Name += "/gappy"
	spec.Sends = func(id grid.NodeID) int {
		if id%5 == 0 {
			return 0
		}
		return sends(id)
	}
	spec.Budget = func(id grid.NodeID) int {
		if id%7 == 0 {
			return 0
		}
		return budget(id)
	}
	return spec
}

func TestFrontierMatchesFullResolution(t *testing.T) {
	cases := 150
	if testing.Short() {
		cases = 40
	}
	gen, err := simtest.NewGen(0xF207)
	if err != nil {
		t.Fatal(err)
	}
	runner := sim.NewRunner()
	var jammed, dropped, idle, spammed, stalled, timedOut int
	for i := 0; i < cases; i++ {
		c := gen.Next()
		// Besides the case as drawn, run its Drop-jammer twin (Corruptor
		// and Targeted) or its explicit-Idle twin (placement without a
		// strategy), which the generator does not draw by itself, and its
		// twin on a spec with silent and budgetless nodes.
		variants := []func() sim.Config{c.Build, func() sim.Config {
			cfg := c.Build()
			switch s := cfg.Strategy.(type) {
			case *adversary.Corruptor:
				s.Drop = true
			case *adversary.Targeted:
				s.Drop = true
			case nil:
				cfg.Strategy = adversary.Idle{}
			}
			return cfg
		}, func() sim.Config {
			cfg := c.Build()
			cfg.Spec = gappySpec(cfg.Spec)
			return cfg
		}}
		for v, build := range variants {
			bare := diffFrontier(t, runner, c.Desc, true, build)
			if bare == nil {
				continue
			}
			cfg := build()
			if _, spam := cfg.Strategy.(*adversary.Spammer); spam {
				if bare.slots != 0 || bare.settled != 0 {
					t.Fatalf("%s: Spammer run took %d frontier slots, settled %d transmissions",
						c.Desc, bare.slots, bare.settled)
				}
				spammed++
				continue
			}
			if bare.slots == 0 {
				t.Fatalf("%s (variant %d): eligible run took no frontier slot", c.Desc, v)
			}
			// A row settles once its whole neighborhood has decided, which
			// any run that gets somewhere reaches; only one cut short by
			// MaxSlots or starved by the spec may end before that.
			if bare.settled == 0 && bare.res.Completed {
				t.Fatalf("%s (variant %d): completed without one settled transmission", c.Desc, v)
			}
			if bare.res.Stalled {
				stalled++
			}
			if bare.res.TimedOut {
				timedOut++
			}
			if bare.res.BadMessages > 0 {
				jammed++
				if v == 1 {
					dropped++
				}
			}
			if _, ok := cfg.Strategy.(adversary.Idle); ok {
				idle++
			}
		}
	}
	// The -short matrix happens to draw no MaxSlots cut on an eligible leg.
	if jammed == 0 || dropped == 0 || idle == 0 || spammed == 0 || stalled == 0 ||
		(timedOut == 0 && !testing.Short()) {
		t.Fatalf("degenerate case mix: jammed=%d dropped=%d idle=%d spammed=%d stalled=%d timedOut=%d",
			jammed, dropped, idle, spammed, stalled, timedOut)
	}
}

// TestFrontierFigure2 holds the frontier path to the Figure 2
// construction, the run whose outcome hangs on every single jam decision
// (p = (r+1,1) must end exactly one copy short of the threshold).
func TestFrontierFigure2(t *testing.T) {
	tor := grid.MustNew(45, 45, 4)
	p := sim.Figure2Params
	spec, err := core.NewFullBudget(p, p.M0()+1)
	if err != nil {
		t.Fatal(err)
	}
	bare := diffFrontier(t, sim.NewRunner(), "figure 2", true, func() sim.Config {
		return sim.Config{
			Topo: tor, Params: p, Spec: spec, Source: tor.ID(0, 0),
			Placement: adversary.Figure2Lattice(4),
			Strategy:  adversary.NewTargeted(adversary.Figure2Victims(tor)),
		}
	})
	if bare.slots == 0 || bare.res.BadMessages == 0 {
		t.Fatalf("frontier slots=%d bad messages=%d, want both > 0", bare.slots, bare.res.BadMessages)
	}
	if !bare.res.Stalled || bare.res.DecidedGood != 84 {
		t.Fatalf("stalled=%v decided=%d, want the Figure 2 stall at 84", bare.res.Stalled, bare.res.DecidedGood)
	}
}

// TestFrontierWrongValueRelays runs the ledger's other bucket: under a
// threshold of 1 a jam that lands on an undecided node makes it accept the
// jammer's value and relay that, the wrong value spreads like the right
// one, and Result.Wrong is mostly ledger.
func TestFrontierWrongValueRelays(t *testing.T) {
	tor := grid.MustNew(20, 20, 2)
	p := core.Params{R: 2, T: 2, MF: 6}
	three := func(grid.NodeID) int { return 3 }
	spec := core.Spec{Name: "one-copy", SourceRepeats: 3, Threshold: 1, Sends: three, Budget: three, MaxSends: 3}
	everyone := make([]bool, tor.Size())
	for i := range everyone {
		everyone[i] = true
	}
	bare := diffFrontier(t, sim.NewRunner(), "wrong-value relays", false, func() sim.Config {
		return sim.Config{
			Topo: tor, Params: p, Spec: spec,
			Placement: adversary.Random{T: 2, Density: 0.2, Seed: 5},
			Strategy:  &adversary.Targeted{Victims: everyone, WrongValue: 3},
		}
	})
	if bare.res.WrongDecisions == 0 || bare.settled == 0 {
		t.Fatalf("wrong decisions=%d settled transmissions=%d, want both > 0",
			bare.res.WrongDecisions, bare.settled)
	}
	var wrong int32
	for _, w := range bare.res.Wrong {
		wrong += w
	}
	if int(wrong) <= 24*bare.res.BadMessages { // a jam reaches 24 receivers at most
		t.Fatalf("%d wrong receipts from %d jams: no wrong value was relayed", wrong, bare.res.BadMessages)
	}
}

// TestFrontierIneligibleRuns pins which machines reach the frontier
// through the seam: the threshold machine attached as a custom Machine
// publishes the built-in instance's settled mask and is a
// ThresholdInstance, so it takes the frontier, retires the same sends and
// must reproduce the built-in run's Result; the multi-broadcast machine
// behind the facade's WithBroadcasts publishes none and stays on full
// resolution.
func TestFrontierIneligibleRuns(t *testing.T) {
	tor := grid.MustNew(20, 20, 2)
	p := core.Params{R: 2, T: 2, MF: 2}
	spec, err := core.NewProtocolB(p)
	if err != nil {
		t.Fatal(err)
	}
	// Targeted skips the Corruptor's feasibility gate, so it does jam
	// protocol B (and loses).
	victims := make([]bool, tor.Size())
	for i := range victims {
		victims[i] = i%5 == 0
	}
	build := func() sim.Config {
		return sim.Config{
			Topo: tor, Params: p, Spec: spec,
			Placement: adversary.Random{T: 2, Density: 0.06, Seed: 11},
			Strategy:  adversary.NewTargeted(victims),
		}
	}
	runner := sim.NewRunner()
	want, err := runner.RunContext(context.Background(), build())
	if err != nil {
		t.Fatal(err)
	}
	wantSlots, wantSettled, wantRetired := runner.FrontierSlots(), runner.SettledTxs(), runner.RetiredTxs()
	if wantSlots == 0 || wantSettled+wantRetired == 0 || want.BadMessages == 0 {
		t.Fatalf("baseline: frontier slots=%d settled transmissions=%d retired=%d bad messages=%d, want all but one count > 0",
			wantSlots, wantSettled, wantRetired, want.BadMessages)
	}

	custom := build()
	custom.Machine = protocol.NewThreshold(spec)
	got, err := runner.RunContext(context.Background(), custom)
	if err != nil {
		t.Fatalf("custom machine: %v", err)
	}
	if n, settled, retired := runner.FrontierSlots(), runner.SettledTxs(), runner.RetiredTxs(); n != wantSlots || settled != wantSettled || retired != wantRetired {
		t.Errorf("custom machine: %d frontier slots, %d settled, %d retired transmissions; the built-in instance took %d, %d, %d",
			n, settled, retired, wantSlots, wantSettled, wantRetired)
	}
	if err := simtest.DiffResults(got, want); err != nil {
		t.Errorf("custom machine: diverged from the built-in run: %v", err)
	}

	multi := build()
	multi.Machine = &protocol.Multi{Spec: spec, M: 3}
	if _, err := runner.RunContext(context.Background(), multi); err != nil {
		t.Fatalf("multi machine: %v", err)
	}
	if n, settled, retired := runner.FrontierSlots(), runner.SettledTxs(), runner.RetiredTxs(); n != 0 || settled != 0 || retired != 0 {
		t.Errorf("multi machine: took %d frontier slots, settled %d and retired %d transmissions, want full resolution",
			n, settled, retired)
	}
}

// TestFrontierReactive is the frontier differential over the reactive
// machine, whose settled mask is "decided, with no armed bad neighbour":
// every policy and a fault-free leg, on the torus, the bounded grid and
// an RGG, over several seeds. Both legs must agree on the Result, on the
// whole ReactiveStats and on the event streams, so the rounds whose
// receivers had all settled still drew their patterns, attacked and
// spammed in sender order, and the skipped edges were served and counted.
func TestFrontierReactive(t *testing.T) {
	seeds := uint64(4)
	if testing.Short() {
		seeds = 2
	}
	bounded := topo.MustNewBounded(14, 17, 2)
	rgg, err := topo.NewConnectedRGG(150, 5)
	if err != nil {
		t.Fatal(err)
	}
	topos := []struct {
		name string
		tp   topo.Topology
		r    int
	}{{"torus", grid.MustNew(15, 15, 2), 2}, {"grid", bounded, 2}, {"rgg", rgg, 1}}
	policies := []protocol.AttackPolicy{
		protocol.PolicyDisrupt, protocol.PolicyForge, protocol.PolicyNackSpam, protocol.PolicyMixed, 0,
	}
	runner := sim.NewRunner()
	var ran, attacked, nacked, settledRounds int
	for _, tc := range topos {
		for _, policy := range policies {
			for seed := uint64(1); seed <= seeds; seed++ {
				desc := fmt.Sprintf("%s/%v/seed %d", tc.name, policy, seed)
				if policy == 0 {
					desc = fmt.Sprintf("%s/fault-free/seed %d", tc.name, seed)
				}
				build := func() sim.Config {
					cfg := sim.Config{
						Topo:    tc.tp,
						Params:  core.Params{R: tc.r, T: 1, MF: 3},
						Machine: &protocol.Reactive{MMax: 64, PayloadBits: 16, Policy: policy},
						Seed:    seed,
					}
					if policy != 0 {
						cfg.Placement = adversary.Random{T: 1, Density: 0.06, Seed: seed}
					}
					return cfg
				}
				bare := diffFrontier(t, runner, desc, true, build)
				if bare == nil {
					continue
				}
				ran++
				if bare.slots == 0 {
					t.Fatalf("%s: took no frontier slot", desc)
				}
				if bare.stats.AttacksSpent > 0 {
					attacked++
				}
				for _, n := range bare.stats.NackSends {
					nacked += int(n)
				}
				settledRounds += bare.settled
			}
		}
	}
	if ran < len(topos)*len(policies) || attacked == 0 || nacked == 0 || settledRounds == 0 {
		t.Fatalf("degenerate case mix: ran=%d attacked=%d nacks=%d settled rounds=%d",
			ran, attacked, nacked, settledRounds)
	}
}

// TestFrontierNeedsVerifiedColoring runs the fast engine on a coloring
// that is not distance-2: two nodes two hops apart share a color, so
// their relays collide at the receivers between them. The plan leaves
// the coloring unverified, the engine must therefore resolve every slot
// in full — not one frontier slot — and its Result, collisions counted,
// must still be the reference engine's.
func TestFrontierNeedsVerifiedColoring(t *testing.T) {
	b := topo.MustNewBounded(12, 12, 1)
	tp := topotest.Miscolored(b, b.ID(4, 4), b.ID(6, 4))
	p := core.Params{R: 1, T: 0, MF: 0}
	spec, err := core.NewFullBudget(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{Topo: tp, Params: p, Spec: spec, Source: b.ID(5, 1)}
	runner := sim.NewRunner()
	fast, err := runner.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := runner.FrontierSlots(); n != 0 {
		t.Fatalf("%d frontier slots on an unverified coloring", n)
	}
	if fast.GoodGoodCollisions == 0 {
		t.Fatal("the shared color produced no collision; the test topology is not doing its job")
	}
	dense, err := ref.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := simtest.DiffResults(fast, dense); err != nil {
		t.Fatalf("fast vs reference on the miscolored grid: %v", err)
	}
}
