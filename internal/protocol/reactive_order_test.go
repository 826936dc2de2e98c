package protocol_test

// The oracle for the reactive machine's batch canonicalisation, and the
// allocation contract of its data rounds.

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"bftbcast/internal/core"
	"bftbcast/internal/grid"
	"bftbcast/internal/plan"
	"bftbcast/internal/protocol"
	"bftbcast/internal/radio"
	"bftbcast/internal/sim"
	"bftbcast/internal/sim/ref"
	"bftbcast/internal/stats"
)

// orderPair is a machine that drives several reactive instances in lock
// step from one engine run: the lead instance sees every slot's batch in
// (From, To) order, each follower sees it permuted, and every observable
// — returned sends, hook sequence, final state and run record — must
// agree with the lead.
type orderPair struct {
	t        *testing.T
	spec     protocol.Reactive
	attached int // instances attached, one per permutation
}

func (p *orderPair) Attach(env protocol.Env) (protocol.Instance, error) {
	inst := &orderPairInstance{p: p, rng: stats.NewRNG(env.Seed ^ 0x5eed)}
	for range permutations {
		in, err := p.spec.Attach(env) // one machine value attaches every instance
		if err != nil {
			return nil, err
		}
		inst.insts = append(inst.insts, in)
		p.attached++
	}
	return inst, nil
}

// permutations names the batch order each instance sees; index 0 leads.
var permutations = []string{"canonical", "reverse", "receiver-major", "random"}

type orderPairInstance struct {
	p     *orderPair
	rng   *stats.RNG
	insts []protocol.Instance
}

func (o *orderPairInstance) State() *protocol.State { return o.insts[0].State() }

func (o *orderPairInstance) Bootstrap(buf []protocol.Send) []protocol.Send {
	for _, in := range o.insts[1:] {
		in.Bootstrap(nil)
	}
	return o.insts[0].Bootstrap(buf)
}

func (o *orderPairInstance) permute(which int, ds []radio.Delivery) []radio.Delivery {
	out := slices.Clone(ds)
	slices.SortFunc(out, func(a, b radio.Delivery) int {
		if a.From != b.From {
			return int(a.From - b.From)
		}
		return int(a.To - b.To)
	})
	switch permutations[which] {
	case "reverse":
		slices.Reverse(out)
	case "receiver-major":
		slices.SortFunc(out, func(a, b radio.Delivery) int {
			if a.To != b.To {
				return int(a.To - b.To)
			}
			return int(b.From - a.From)
		})
	case "random":
		shuffled := make([]radio.Delivery, len(out))
		for i, j := range o.rng.Perm(len(out)) {
			shuffled[i] = out[j]
		}
		out = shuffled
	}
	return out
}

func (o *orderPairInstance) Deliver(slot int, ds []radio.Delivery, _ *protocol.Hooks, buf []protocol.Send) ([]protocol.Send, error) {
	t := o.p.t
	// The engine's own batch must already list each sender's receivers in
	// ascending order: the machine's per-bucket sort is for callers outside
	// the repo's engines, and no real batch may reach it.
	last := map[grid.NodeID]grid.NodeID{}
	for _, d := range ds {
		if prev, seen := last[d.From]; seen && prev > d.To {
			t.Fatalf("slot %d: the engine's batch lists sender %d's receiver %d after %d", slot, d.From, d.To, prev)
		}
		last[d.From] = d.To
	}
	var leadSends []protocol.Send
	var leadEvents []string
	for i, in := range o.insts {
		var events []string
		hooks := protocol.Hooks{
			OnSend: func(slot int, from grid.NodeID, v radio.Value, adversarial bool) {
				events = append(events, fmt.Sprintf("send %d %d %d %v", slot, from, v, adversarial))
			},
			OnDeliver: func(slot int, d radio.Delivery) {
				events = append(events, fmt.Sprintf("deliver %d %+v", slot, d))
			},
			OnAccept: func(slot int, id grid.NodeID, v radio.Value) {
				events = append(events, fmt.Sprintf("accept %d %d %d", slot, id, v))
			},
		}
		sends, err := in.Deliver(slot, o.permute(i, ds), &hooks, nil)
		if err != nil {
			return buf, err
		}
		if i == 0 {
			leadSends, leadEvents = sends, events
			continue
		}
		if !slices.Equal(sends, leadSends) {
			t.Fatalf("slot %d, %s batch: sends %v, canonical batch gave %v", slot, permutations[i], sends, leadSends)
		}
		if !slices.Equal(events, leadEvents) {
			t.Fatalf("slot %d, %s batch: hook sequence\n%v\ncanonical batch gave\n%v", slot, permutations[i], events, leadEvents)
		}
	}
	return append(buf, leadSends...), nil
}

func (o *orderPairInstance) Tick(slot int, buf []protocol.Send) []protocol.Send {
	return o.insts[0].Tick(slot, buf)
}

// Book forwards a frontier slot to every instance: the lead's settled mask
// is the one the engine reads, and the followers, fed the same slots,
// settle the same nodes.
func (o *orderPairInstance) Book(slot int, txs []radio.Tx) error {
	for _, in := range o.insts {
		if err := in.Book(slot, txs); err != nil {
			return err
		}
	}
	return nil
}

func (o *orderPairInstance) GoodBudget(id grid.NodeID) int { return o.insts[0].GoodBudget(id) }
func (o *orderPairInstance) Threshold() int                { return o.insts[0].Threshold() }
func (o *orderPairInstance) Sizing() (int, int)            { return o.insts[0].Sizing() }

func (o *orderPairInstance) Finish(slots int) {
	t := o.p.t
	var lead *protocol.ReactiveStats
	for i, in := range o.insts {
		in.Finish(slots)
		rs := in.State().Record.(*protocol.ReactiveStats)
		if i == 0 {
			lead = rs
			continue
		}
		if !reflect.DeepEqual(in.State(), o.insts[0].State()) {
			t.Fatalf("%s batches: final State differs from the canonical run", permutations[i])
		}
		if !reflect.DeepEqual(rs, lead) {
			t.Fatalf("%s batches: ReactiveStats\n%+v\ncanonical run gave\n%+v", permutations[i], rs, lead)
		}
	}
}

// TestReactiveDeliverOrderInvariant feeds every slot's batch of real
// engine runs to the machine in (From, To) order and in three other
// orders, under every attack policy, and checks on the way that the fast
// and reference engines both emit a sender's receivers ascending.
func TestReactiveDeliverOrderInvariant(t *testing.T) {
	for _, policy := range []protocol.AttackPolicy{
		protocol.PolicyDisrupt, protocol.PolicyForge, protocol.PolicyNackSpam, protocol.PolicyMixed,
	} {
		t.Run(policy.String(), func(t *testing.T) {
			for seed := uint64(1); seed <= 4; seed++ {
				for name, run := range map[string]func(context.Context, sim.Config) (*sim.Result, error){"fast": sim.RunContext, "ref": ref.RunContext} {
					cfg := reactiveConfig(t, policy, seed)
					pair := &orderPair{t: t, spec: *cfg.Machine.(*protocol.Reactive)}
					cfg.Machine = pair
					res, err := run(context.Background(), cfg)
					if err != nil {
						t.Fatalf("%s seed %d: %v", name, seed, err)
					}
					if res.GoodMessages == 0 || pair.attached != len(permutations) {
						t.Fatalf("%s seed %d: the paired run did not run (%d messages, %d instances)", name, seed, res.GoodMessages, pair.attached)
					}
				}
			}
		})
	}
}

// TestReactiveUnattackedRoundAllocatesNothing is the allocation contract
// of the data round: once a value's first round has built its payload and
// codeword, a round no armed bad node can observe allocates nothing.
func TestReactiveUnattackedRoundAllocatesNothing(t *testing.T) {
	tor, err := grid.New(15, 15, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := &protocol.Reactive{MMax: 64, PayloadBits: 16}
	p := plan.For(tor)
	inst, err := m.Attach(protocol.Env{Plan: p, Params: core.Params{R: 2, T: 1, MF: 3}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The source's round and its retransmission, which delivers nothing
	// new but is a full data round: encode, decode per receiver.
	var round []radio.Delivery
	for _, to := range p.Adjacency().SortedNeighbors(0) {
		round = append(round, radio.Delivery{To: to, From: 0, Value: radio.ValueTrue})
	}
	hooks := &protocol.Hooks{}
	buf, err := inst.Deliver(0, round, hooks, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != len(round) {
		t.Fatalf("first round: %d receivers accepted, want %d", len(buf), len(round))
	}
	allocs := testing.AllocsPerRun(100, func() {
		if buf, err = inst.Deliver(1, round, hooks, buf[:0]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("an un-attacked data round allocated %v times, want 0", allocs)
	}
}
