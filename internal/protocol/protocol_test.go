package protocol_test

// Seam-equality and acceptance-core tests for the protocol layer. The
// heavyweight differential matrices (fast vs ref across
// protocols and topologies) live in the facade's matrix tests; here we
// pin the foundations they build on: (a) driving the engine through an
// explicitly attached Threshold machine is bit-identical to the engine's
// built-in Spec path, and (b) each of the two acceptance rules — the
// copies rule of ThresholdInstance and the certified propagation of
// Acceptance, which the reactive machine relies on — keeps its semantics.

import (
	"context"
	"reflect"
	"testing"

	"bftbcast/internal/adversary"
	"bftbcast/internal/core"
	"bftbcast/internal/grid"
	"bftbcast/internal/plan"
	"bftbcast/internal/protocol"
	"bftbcast/internal/radio"
	"bftbcast/internal/sim"
	"bftbcast/internal/sim/ref"
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

// TestBudgetClampParityFastVsRef pins the seam contract that EVERY
// engine clamps scheduled sends against Instance.GoodBudget: a spec
// whose budget is below its send count, run through the Threshold
// machine, must produce the same (clamped) emission totals on the fast
// and the reference engine.
func TestBudgetClampParityFastVsRef(t *testing.T) {
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
	refRes, err := ref.RunContext(context.Background(), sim.Config{
		Topo: tor, Params: params, Machine: protocol.NewThreshold(tight),
	})
	if err != nil {
		t.Fatal(err)
	}
	if fastRes.GoodMessages != refRes.GoodMessages ||
		!reflect.DeepEqual(fastRes.Sent, refRes.Sent) ||
		fastRes.Slots != refRes.Slots {
		t.Fatalf("budget clamping diverges across engines:\nfast: msgs=%d slots=%d sent=%v\nref:  msgs=%d slots=%d sent=%v",
			fastRes.GoodMessages, fastRes.Slots, fastRes.Sent,
			refRes.GoodMessages, refRes.Slots, refRes.Sent)
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

// TestAcceptanceCountsMode pins the copies rule ThresholdInstance owns:
// accept at exactly Threshold copies of one value, never twice, exotic
// values clamp into the last tracked bucket, and the source is
// pre-decided on ValueTrue.
func TestAcceptanceCountsMode(t *testing.T) {
	tor, err := grid.New(12, 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	one := func(grid.NodeID) int { return 1 }
	spec := core.Spec{Name: "copies", SourceRepeats: 1, Threshold: 3, Sends: one, Budget: one}
	env := protocol.Env{Plan: plan.For(tor), Source: 0}
	inst := protocol.NewThresholdInstance()
	if err := inst.Bind(env, spec); err != nil {
		t.Fatal(err)
	}
	st := inst.State()
	// deliver hands k copies of v to node to in one batch and returns the
	// nodes that accepted, in order.
	deliver := func(to grid.NodeID, v radio.Value, k int) []grid.NodeID {
		t.Helper()
		ds := make([]radio.Delivery, k)
		for i := range ds {
			ds[i] = radio.Delivery{To: to, Value: v, From: grid.NodeID(i + 1)}
		}
		sends, err := inst.Deliver(0, ds, &protocol.Hooks{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		var ids []grid.NodeID
		for _, s := range sends {
			ids = append(ids, s.ID)
		}
		return ids
	}
	if !st.Decided[0] || st.Value[0] != radio.ValueTrue {
		t.Fatalf("source state = (%v, %v), want pre-decided on ValueTrue", st.Value[0], st.Decided[0])
	}
	if got := deliver(0, radio.ValueFalse, 3); got != nil || st.Value[0] != radio.ValueTrue {
		t.Fatalf("pre-decided source accepted %v (value %v)", got, st.Value[0])
	}
	to := grid.NodeID(5)
	if got := deliver(to, radio.ValueFalse, 2); got != nil {
		t.Fatal("accepted below threshold")
	}
	if got := deliver(to, radio.ValueFalse, 1); len(got) != 1 || got[0] != to {
		t.Fatalf("accepted %v at threshold, want [%d]", got, to)
	}
	if !st.Decided[to] || st.Value[to] != radio.ValueFalse {
		t.Fatalf("decided (%v, %v), want (ValueFalse, true)", st.Value[to], st.Decided[to])
	}
	if deliver(to, radio.ValueFalse, 1) != nil || deliver(to, radio.ValueTrue, 3) != nil || st.Value[to] != radio.ValueFalse {
		t.Fatal("re-accepted a decided node")
	}
	// Exotic values share the clamp bucket.
	spec.Threshold = 2
	if err := inst.Bind(env, spec); err != nil {
		t.Fatal(err)
	}
	u := grid.NodeID(7)
	deliver(u, radio.Value(protocol.MaxTrackedValue+5), 1)
	if got := deliver(u, radio.Value(protocol.MaxTrackedValue+9), 1); len(got) != 1 || got[0] != u {
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
// (Bhandari–Vaidya, after Koo) that Acceptance owns: distinct
// relayers, duplicate suppression, window certification, direct-source
// acceptance, per-value tracking, acceptance order and a full fault-free
// propagation.
func TestAcceptanceDistinctMode(t *testing.T) {
	tor, err := grid.New(15, 15, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []protocol.AcceptConfig{
		{Source: 0, Threshold: 1},                                  // no topology
		{Topo: tor, Source: grid.NodeID(tor.Size()), Threshold: 1}, // source outside it
		{Topo: tor, Source: 0, Threshold: 0},                       // nothing to count to
	} {
		if _, err := protocol.NewAcceptance(bad); err == nil {
			t.Fatalf("NewAcceptance(%+v) accepted", bad)
		}
	}
	acc := certified(t, tor, 2)
	var accepted []grid.NodeID
	deliver := func(to, from grid.NodeID, v radio.Value) bool {
		ok := acc.Deliver(to, from, v)
		if ok {
			accepted = append(accepted, to)
		}
		return ok
	}
	// Direct reception from the source accepts outright.
	nb := tor.ID(1, 0)
	if !deliver(nb, 0, radio.ValueTrue) {
		t.Fatal("direct source reception must accept")
	}
	if !acc.Decided[nb] || acc.Value[nb] != radio.ValueTrue {
		t.Fatalf("source neighbor state = (%v, %v)", acc.Value[nb], acc.Decided[nb])
	}
	// t+1 distinct in-window relayers certify; duplicates do not count.
	to := tor.ID(7, 7)
	relayers := []grid.NodeID{tor.ID(7, 8), tor.ID(8, 7), tor.ID(6, 7)}
	if deliver(to, relayers[0], radio.ValueTrue) {
		t.Fatal("one relayer certified with t=2")
	}
	if deliver(to, relayers[0], radio.ValueTrue) {
		t.Fatal("duplicate relayer advanced certification")
	}
	if deliver(to, relayers[1], radio.ValueTrue) {
		t.Fatal("two relayers certified with t=2")
	}
	if acc.Decided[to] {
		t.Fatal("decided with only t relayers")
	}
	if !deliver(to, relayers[2], radio.ValueTrue) {
		t.Fatal("three in-window relayers must certify with t=2")
	}
	// Deliver reported each accepting node once, in order.
	if want := []grid.NodeID{nb, to}; !reflect.DeepEqual(accepted, want) {
		t.Fatalf("acceptances = %v, want %v", accepted, want)
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
	relay := []grid.NodeID{0} // the source
	for i := 0; i < len(relay); i++ {
		sender := relay[i]
		v := acc.Value[sender]
		for _, to := range tor.AppendNeighbors(nil, sender) {
			if acc.Deliver(to, sender, v) {
				relay = append(relay, to)
			}
		}
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
