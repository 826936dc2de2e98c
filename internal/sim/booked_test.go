package sim_test

// The booked slot body (see the package comment) hands a Multi instance
// each slot's transmissions instead of its deliveries. These tests prove
// which runs take it — through the run's count of booked transmissions
// (Timing.SendsBooked), so no comparison can go vacuous — that those runs give the reference
// engine's Result and run record, and that their observer stream is
// the reference engine's event for event.

import (
	"cmp"
	"context"
	"fmt"
	"reflect"
	"slices"
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

// bookedTopology is one topology of the booked-slot cells with its fault
// model.
type bookedTopology struct {
	name   string
	tp     topo.Topology
	params core.Params
}

func bookedTopologies(t *testing.T) []bookedTopology {
	t.Helper()
	rgg, err := topo.NewConnectedRGG(250, 11)
	if err != nil {
		t.Fatal(err)
	}
	return []bookedTopology{
		{"torus", grid.MustNew(15, 15, 2), core.Params{R: 2, T: 1, MF: 2}},
		{"grid", topo.MustNewBounded(15, 15, 2), core.Params{R: 2, T: 1, MF: 2}},
		{"rgg", rgg, core.Params{R: 1, T: 1, MF: 2}},
	}
}

// multiConfig is an M-instance protocol-B run on tc, with a random
// placement whose bad nodes stay silent when placed is set.
func multiConfig(t *testing.T, tc bookedTopology, m int, seed uint64, placed bool) sim.Config {
	t.Helper()
	spec, err := core.NewProtocolB(tc.params)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{
		Topo: tc.tp, Params: tc.params, Seed: seed,
		Machine: &protocol.Multi{Spec: spec, M: m},
	}
	if placed {
		cfg.Placement = adversary.Random{T: tc.params.T, Density: 0.05, Seed: seed}
	}
	return cfg
}

// multiRun is one run's Result, Multi run record and the good
// transmissions it booked (Timing.SendsBooked; ref books none).
type multiRun struct {
	res    *sim.Result
	stats  *protocol.MultiStats
	booked int
}

// runFast runs cfg on r, timed for its send counts; runRef runs it on the
// reference engine.
func runFast(t *testing.T, r *sim.Runner, cfg sim.Config) multiRun {
	t.Helper()
	cfg.Timing = true
	run := runMulti(t, r.RunContext, cfg)
	run.booked = untime(run.res).SendsBooked
	return run
}

func runRef(t *testing.T, cfg sim.Config) multiRun {
	t.Helper()
	return runMulti(t, ref.RunContext, cfg)
}

// runMulti runs cfg on run and requires the run's Multi record.
func runMulti(t *testing.T, run func(context.Context, sim.Config) (*sim.Result, error), cfg sim.Config) multiRun {
	t.Helper()
	rec := &sim.Recorder{Machine: cfg.Machine}
	cfg.Machine = rec
	res, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ms, ok := rec.Record().(*protocol.MultiStats)
	if !ok || ms == nil {
		t.Fatalf("the run published no Multi record (%T)", rec.Record())
	}
	return multiRun{res: res, stats: ms}
}

// sameRun fails t unless a and b agree on the Result and the run record.
func sameRun(t *testing.T, desc string, a, b multiRun) {
	t.Helper()
	if err := simtest.DiffResults(a.res, b.res); err != nil {
		t.Fatalf("%s: %v", desc, err)
	}
	if !reflect.DeepEqual(a.stats, b.stats) {
		t.Fatalf("%s: run records differ:\n%+v\n%+v", desc, a.stats, b.stats)
	}
}

// TestMultiBookedSlots runs fault-free and placement-only Multi cells
// over the torus, the bounded grid and an RGG: each must book slots and
// match the reference engine on the Result and the run record. A
// Strategy, an OnDeliver or OnInstanceDeliver hook, or a coloring the
// plan could not verify must each keep the run off the path, on the same
// Result.
func TestMultiBookedSlots(t *testing.T) {
	seeds := uint64(2)
	if testing.Short() {
		seeds = 1
	}
	runner := sim.NewRunner()
	for _, tc := range bookedTopologies(t) {
		for _, placed := range []bool{false, true} {
			for _, m := range []int{2, 5, 9, 65} {
				for seed := uint64(1); seed <= seeds; seed++ {
					desc := fmt.Sprintf("%s/placed=%v/M%d/seed %d", tc.name, placed, m, seed)
					fast := runFast(t, runner, multiConfig(t, tc, m, seed, placed))
					if fast.booked == 0 || fast.booked != fast.res.GoodMessages {
						t.Fatalf("%s: booked %d of %d transmissions, want every one", desc, fast.booked, fast.res.GoodMessages)
					}
					if placed && fast.res.BadCount == 0 {
						t.Fatalf("%s: the placement put no bad node", desc)
					}
					sameRun(t, desc+": fast vs ref", fast, runRef(t, multiConfig(t, tc, m, seed, placed)))
				}
			}
		}

		// Each of these keeps the run on per-delivery resolution.
		bare := runFast(t, runner, multiConfig(t, tc, 5, 1, true))
		observed := multiConfig(t, tc, 5, 1, true)
		observed.Hooks.OnDeliver = func(int, radio.Delivery) {}
		tagged := multiConfig(t, tc, 5, 1, true)
		tagged.Hooks.OnInstanceDeliver = func(int, int, grid.NodeID, grid.NodeID, radio.Value) {}
		for name, cfg := range map[string]sim.Config{"OnDeliver": observed, "OnInstanceDeliver": tagged} {
			got := runFast(t, runner, cfg)
			if got.booked != 0 {
				t.Fatalf("%s/%s: booked %d transmissions", tc.name, name, got.booked)
			}
			sameRun(t, tc.name+"/"+name+" vs bare", got, bare)
		}
		jammed := func() sim.Config {
			cfg := multiConfig(t, tc, 5, 1, true)
			cfg.Strategy = adversary.NewCorruptor()
			return cfg
		}
		got := runFast(t, runner, jammed())
		if got.booked != 0 {
			t.Fatalf("%s/Strategy: booked %d transmissions", tc.name, got.booked)
		}
		sameRun(t, tc.name+"/Strategy: fast vs ref", got, runRef(t, jammed()))
	}

	// Two nodes two hops apart share a color: their relays collide, and
	// only full resolution counts the collisions.
	b := topo.MustNewBounded(12, 12, 1)
	miscolored := func() sim.Config {
		p := core.Params{R: 1, T: 0, MF: 0}
		spec, err := core.NewFullBudget(p, 4)
		if err != nil {
			t.Fatal(err)
		}
		return sim.Config{
			Topo: topotest.Miscolored(b, b.ID(4, 4), b.ID(6, 4)), Params: p, Source: b.ID(5, 1),
			Machine: &protocol.Multi{Spec: spec, M: 3},
		}
	}
	got := runFast(t, runner, miscolored())
	if got.booked != 0 {
		t.Fatalf("miscolored: booked %d transmissions", got.booked)
	}
	if got.res.GoodGoodCollisions == 0 {
		t.Fatal("miscolored: the shared color produced no collision; the test topology is not doing its job")
	}
	sameRun(t, "miscolored: fast vs ref", got, runRef(t, miscolored()))
}

// orderEvent is one OnSend, OnAccept or OnInstanceDecide firing.
type orderEvent struct {
	kind        string
	slot, j     int
	id          grid.NodeID
	v           radio.Value
	adversarial bool
}

// recordOrder wires OnSend, OnAccept and OnInstanceDecide of cfg — no
// per-delivery hook, so a fast run stays on the booked path — to append
// into a fresh log and returns the log.
func recordOrder(cfg *sim.Config) *[]orderEvent {
	log := &[]orderEvent{}
	cfg.Hooks.OnSend = func(slot int, from grid.NodeID, v radio.Value, adversarial bool) {
		*log = append(*log, orderEvent{"send", slot, -1, from, v, adversarial})
	}
	cfg.Hooks.OnAccept = func(slot int, id grid.NodeID, v radio.Value) {
		*log = append(*log, orderEvent{"accept", slot, -1, id, v, false})
	}
	cfg.Hooks.OnInstanceDecide = func(slot, j int, id grid.NodeID, v radio.Value) {
		*log = append(*log, orderEvent{"decide", slot, j, id, v, false})
	}
	return log
}

// sendsInNodeOrder sorts every run of one slot's send events by sender.
func sendsInNodeOrder(log []orderEvent) []orderEvent {
	for i := 0; i < len(log); {
		k := i
		for k < len(log) && log[k].kind == "send" && log[k].slot == log[i].slot {
			k++
		}
		if k == i {
			i++
			continue
		}
		slices.SortFunc(log[i:k], func(a, b orderEvent) int { return cmp.Compare(a.id, b.id) })
		i = k
	}
	return log
}

// TestMultiBookedEventOrder pins the order in which a booked run makes
// its acceptances: with OnSend, OnAccept and OnInstanceDecide observed
// the fast engine books its slots, and must emit exactly the reference
// engine's event sequence — each slot's acceptances in ascending
// (receiver, instance) order, as a resolved batch produces them. The
// one liberty is the order of a slot's own transmissions, which the fast
// engine emits in queue order and the reference engine in node order
// (TestMatrixObserverStreams), so each slot's sends are compared in node
// order. M = 65 keeps a second mask word in play.
func TestMultiBookedEventOrder(t *testing.T) {
	tc := bookedTopologies(t)[0]
	runner := sim.NewRunner()
	for _, m := range []int{2, 32, 65} {
		for _, placed := range []bool{false, true} {
			desc := fmt.Sprintf("M%d/placed=%v", m, placed)
			fastCfg, refCfg := multiConfig(t, tc, m, 3, placed), multiConfig(t, tc, m, 3, placed)
			fastLog, refLog := recordOrder(&fastCfg), recordOrder(&refCfg)
			fast, dense := runFast(t, runner, fastCfg), runRef(t, refCfg)
			if fast.booked == 0 || fast.booked != fast.res.GoodMessages {
				t.Fatalf("%s: booked %d of %d transmissions, want every one", desc, fast.booked, fast.res.GoodMessages)
			}
			sameRun(t, desc+": fast vs ref", fast, dense)
			accepts := 0
			for _, e := range *fastLog {
				if e.kind == "accept" {
					accepts++
				}
			}
			if accepts < tc.tp.Size() {
				t.Fatalf("%s: only %d acceptances", desc, accepts)
			}
			got, want := sendsInNodeOrder(*fastLog), sendsInNodeOrder(*refLog)
			if len(got) != len(want) {
				t.Fatalf("%s: %d events, ref %d", desc, len(got), len(want))
			}
			for i, e := range got {
				if e != want[i] {
					t.Fatalf("%s: event %d is %+v, ref has %+v", desc, i, e, want[i])
				}
			}
		}
	}
}
