package protocol_test

// Seam-equality and acceptance-core tests for the protocol layer. The
// heavyweight differential matrices (fast vs ref vs actor across
// protocols and topologies) live in the facade's matrix tests; here we
// pin the two foundations they build on: (a) driving the engine through
// an explicitly attached Threshold machine is bit-identical to the
// engine's built-in Spec path, and (b) the unified Acceptance core keeps
// the certified-propagation semantics the reactive machine relies on.

import (
	"context"
	"reflect"
	"testing"

	"bftbcast/internal/actor"
	"bftbcast/internal/adversary"
	"bftbcast/internal/core"
	"bftbcast/internal/grid"
	"bftbcast/internal/protocol"
	"bftbcast/internal/radio"
	"bftbcast/internal/sim"
)

// TestThresholdMachineSeamEquality runs identical configurations through
// the built-in Spec path and an explicitly attached Threshold machine:
// the seam must not change a single bit of the Result.
func TestThresholdMachineSeamEquality(t *testing.T) {
	tor, err := grid.New(20, 20, 2)
	if err != nil {
		t.Fatal(err)
	}
	params := core.Params{R: 2, T: 2, MF: 2}
	spec, err := core.NewProtocolB(params)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 6; seed++ {
		base := sim.Config{
			Topo: tor, Params: params, Spec: spec,
			Placement: adversary.Random{T: 2, Density: 0.05, Seed: seed},
			Strategy:  adversary.NewCorruptor(),
		}
		specRes, err := sim.RunContext(context.Background(), base)
		if err != nil {
			t.Fatal(err)
		}
		viaMachine := base
		viaMachine.Machine = protocol.NewThreshold(spec)
		viaMachine.Strategy = adversary.NewCorruptor() // strategies are single-run
		machineRes, err := sim.RunContext(context.Background(), viaMachine)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(specRes, machineRes) {
			t.Fatalf("seed %d: Spec path and Threshold machine diverge:\nspec:    %+v\nmachine: %+v",
				seed, specRes, machineRes)
		}
	}
}

// TestBudgetClampParityFastVsActor pins the seam contract that EVERY
// engine clamps scheduled sends against Instance.GoodBudget: a spec
// whose budget is below its send count must produce the same (clamped)
// emission totals on the fast engine and the machine-driven actor path.
func TestBudgetClampParityFastVsActor(t *testing.T) {
	tor, err := grid.New(12, 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	params := core.Params{R: 1, T: 0, MF: 0}
	tight := core.Spec{
		Name:          "tight-budget",
		SourceRepeats: 1,
		Threshold:     1,
		Sends:         func(grid.NodeID) int { return 3 },
		Budget:        func(grid.NodeID) int { return 1 },
		MaxSends:      3,
	}
	fastRes, err := sim.RunContext(context.Background(), sim.Config{
		Topo: tor, Params: params, Machine: protocol.NewThreshold(tight),
	})
	if err != nil {
		t.Fatal(err)
	}
	actRes, err := actor.RunContext(context.Background(), sim.Config{
		Topo: tor, Params: params, Machine: protocol.NewThreshold(tight),
	})
	if err != nil {
		t.Fatal(err)
	}
	if fastRes.GoodMessages != actRes.GoodMessages ||
		!reflect.DeepEqual(fastRes.Sent, actRes.Sent) ||
		fastRes.Slots != actRes.Slots {
		t.Fatalf("budget clamping diverges across engines:\nfast:  msgs=%d slots=%d sent=%v\nactor: msgs=%d slots=%d sent=%v",
			fastRes.GoodMessages, fastRes.Slots, fastRes.Sent,
			actRes.GoodMessages, actRes.Slots, actRes.Sent)
	}
	if max := maxOf(fastRes.Sent); max != 1 {
		t.Fatalf("budget 1 must clamp every node to 1 send, got max %d", max)
	}
}

func maxOf(xs []int32) int32 {
	var m int32
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// TestThresholdInstanceRebindReuse pins the zero-alloc contract of the
// reusable built-in instance: rebinding on an unchanged topology size
// reuses every array.
func TestThresholdInstanceRebindReuse(t *testing.T) {
	tor, err := grid.New(12, 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	params := core.Params{R: 1, T: 1, MF: 1}
	spec, err := core.NewProtocolB(params)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{Topo: tor, Params: params, Spec: spec}
	r := sim.NewRunner()
	if _, err := r.RunContext(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := r.RunContext(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
	})
	// The per-run Result copy-out is ~7 allocations; the protocol rebind
	// itself must add none. Anything above a small constant means the
	// instance reallocates its arrays per run.
	if allocs > 16 {
		t.Fatalf("reused Runner allocates %.1f per run; the rebind path must reuse the instance arrays", allocs)
	}
}

// TestAcceptanceCountsMode pins the copies-threshold rule: accept at
// exactly Threshold copies of one value, never twice, exotic values
// clamp into the last tracked bucket.
func TestAcceptanceCountsMode(t *testing.T) {
	tor, err := grid.New(12, 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := protocol.NewAcceptance(protocol.AcceptConfig{
		Topo: tor, Source: 0, Threshold: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	to := grid.NodeID(5)
	if acc.Deliver(to, 1, radio.ValueFalse) || acc.Deliver(to, 2, radio.ValueFalse) {
		t.Fatal("accepted below threshold")
	}
	if !acc.Deliver(to, 3, radio.ValueFalse) {
		t.Fatal("did not accept at threshold")
	}
	if v, ok := acc.DecidedValue(to); !ok || v != radio.ValueFalse {
		t.Fatalf("decided (%v, %v), want (ValueFalse, true)", v, ok)
	}
	if acc.Deliver(to, 4, radio.ValueFalse) || acc.Deliver(to, 4, radio.ValueTrue) {
		t.Fatal("re-accepted a decided node")
	}
	// Exotic values share the clamp bucket.
	u := grid.NodeID(7)
	acc2, err := protocol.NewAcceptance(protocol.AcceptConfig{Topo: tor, Source: 0, Threshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	acc2.Deliver(u, 1, radio.Value(protocol.MaxTrackedValue+5))
	if !acc2.Deliver(u, 2, radio.Value(protocol.MaxTrackedValue+9)) {
		t.Fatal("clamped values must share one bucket")
	}
}

// TestCPMaxT pins the certified-propagation threshold ⌈½r(2r+1)⌉−1.
func TestCPMaxT(t *testing.T) {
	for _, tc := range []struct{ r, want int }{
		{1, 1},  // ceil(3/2)-1
		{2, 4},  // ceil(10/2)-1
		{3, 10}, // ceil(21/2)-1
		{4, 17}, // ceil(36/2)-1
	} {
		if got := protocol.CPMaxT(tc.r); got != tc.want {
			t.Errorf("CPMaxT(%d) = %d, want %d", tc.r, got, tc.want)
		}
	}
}

// TestAcceptanceDistinctMode pins the certified-propagation rule
// (Bhandari–Vaidya, after Koo) through the unified core: distinct
// relayers, duplicate suppression, window certification, direct-source
// acceptance, per-value tracking, the OnAccept callback and a full
// fault-free propagation.
func TestAcceptanceDistinctMode(t *testing.T) {
	tor, err := grid.New(15, 15, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []protocol.AcceptConfig{
		{Source: 0, Threshold: 1, Distinct: true},                                  // no topology
		{Topo: tor, Source: grid.NodeID(tor.Size()), Threshold: 1, Distinct: true}, // source outside it
		{Topo: tor, Source: 0, Threshold: 0, Distinct: true},                       // nothing to count to
	} {
		if _, err := protocol.NewAcceptance(bad); err == nil {
			t.Fatalf("NewAcceptance(%+v) accepted", bad)
		}
	}
	acc := certified(t, tor, 2)
	var accepted []grid.NodeID
	acc.OnAccept = func(id grid.NodeID, _ radio.Value) { accepted = append(accepted, id) }
	// Direct reception from the source accepts outright.
	nb := tor.ID(1, 0)
	if !acc.Deliver(nb, 0, radio.ValueTrue) {
		t.Fatal("direct source reception must accept")
	}
	if v, ok := acc.DecidedValue(nb); !ok || v != radio.ValueTrue {
		t.Fatalf("source neighbor state = (%v, %v)", v, ok)
	}
	// t+1 distinct in-window relayers certify; duplicates do not count.
	to := tor.ID(7, 7)
	relayers := []grid.NodeID{tor.ID(7, 8), tor.ID(8, 7), tor.ID(6, 7)}
	if acc.Deliver(to, relayers[0], radio.ValueTrue) {
		t.Fatal("one relayer certified with t=2")
	}
	if acc.Deliver(to, relayers[0], radio.ValueTrue) {
		t.Fatal("duplicate relayer advanced certification")
	}
	if acc.Deliver(to, relayers[1], radio.ValueTrue) {
		t.Fatal("two relayers certified with t=2")
	}
	if _, ok := acc.DecidedValue(to); ok {
		t.Fatal("decided with only t relayers")
	}
	if !acc.Deliver(to, relayers[2], radio.ValueTrue) {
		t.Fatal("three in-window relayers must certify with t=2")
	}
	// OnAccept fired once per accepting node, in order.
	if want := []grid.NodeID{nb, to}; !reflect.DeepEqual(accepted, want) {
		t.Fatalf("OnAccept calls = %v, want %v", accepted, want)
	}
	// Out-of-range relays are rejected and leave no record: after one,
	// t in-range relayers still fall short of t+1.
	far, victim := tor.ID(0, 7), tor.ID(12, 12)
	if acc.Deliver(victim, far, radio.ValueTrue) {
		t.Fatal("out-of-range relay accepted")
	}
	if acc.Deliver(victim, tor.ID(12, 13), radio.ValueTrue) || acc.Deliver(victim, tor.ID(13, 12), radio.ValueTrue) {
		t.Fatal("out-of-range relayer counted toward certification")
	}
	if !acc.Deliver(victim, tor.ID(11, 12), radio.ValueTrue) {
		t.Fatal("three in-window relayers must certify with t=2")
	}

	// Relayers at opposite corners of the receiver's neighborhood —
	// (5,5) and (9,9), 2r apart on both axes — fit no window but the one
	// centred at the receiver; that one holds both, so they certify.
	acc = certified(t, tor, 1)
	acc.Deliver(to, tor.ID(5, 5), radio.ValueTrue)
	if !acc.Deliver(to, tor.ID(9, 9), radio.ValueTrue) {
		t.Fatal("two relayers within a common window should certify for t=1")
	}

	// Values are tracked separately: a relayer of another value does not
	// advance certification.
	acc = certified(t, tor, 1)
	acc.Deliver(to, tor.ID(6, 7), radio.ValueTrue)
	if acc.Deliver(to, tor.ID(8, 7), radio.ValueFalse) {
		t.Fatal("mixed values certified")
	}
	if !acc.Deliver(to, tor.ID(7, 6), radio.ValueTrue) {
		t.Fatal("second ValueTrue relayer should certify")
	}

	// Full propagation over a fault-free torus, driven by hand: every
	// decided node relays once to its neighborhood, and everyone decides
	// on the source's value (t=1 needs two same-window relayers,
	// available once the front is two nodes thick).
	acc = certified(t, tor, 1)
	relay := []grid.NodeID{acc.Source()}
	acc.OnAccept = func(id grid.NodeID, _ radio.Value) { relay = append(relay, id) }
	for i := 0; i < len(relay); i++ {
		sender := relay[i]
		v, _ := acc.DecidedValue(sender)
		tor.ForEachNeighbor(sender, func(to grid.NodeID) { acc.Deliver(to, sender, v) })
	}
	decided := 0
	for _, d := range acc.Decided {
		if d {
			decided++
		}
	}
	if decided != tor.Size() {
		t.Fatalf("decided %d/%d", decided, tor.Size())
	}
	for i, v := range acc.Value {
		if v != radio.ValueTrue {
			t.Fatalf("node %d decided %v", i, v)
		}
	}
}
