package protocol_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"bftbcast/internal/core"
	"bftbcast/internal/grid"
	"bftbcast/internal/plan"
	"bftbcast/internal/protocol"
	"bftbcast/internal/radio"
	"bftbcast/internal/stats"
	"bftbcast/internal/topo"
)

// TestInstanceConformance is the executable form of the Instance
// contract's booking rules: Book, State.Settled, State.BooksSlots and
// ThresholdInstance.BookSends (see the package comment). Random subsets
// of real colour-class slots drive twins of one Machine and Env. A gets
// every slot as Deliver with all of its deliveries. B gets a jam-free
// slot as Book, then Deliver with what its State flags allow: under
// Settled the deliveries to good receivers not settled at the slot's
// start, under BooksSlots none. C, where the instance has BookSends, is B
// with the engine's retirement: a settled row's pending sends are booked
// with BookSends(v, k) and left out of their slots. A jammed slot
// (copies-rule machines only) is every twin's full batch, after C takes
// each retired send it carries back with BookSends(v, -1).
//
// After every slot the twins must agree on the Sends, the OnAccept,
// OnInstanceDecide and OnSend streams and the State but for Correct and
// Wrong (so what A's settled receivers heard changed nothing else), and
// in A a jam-free slot may move receipts only where it delivered; after
// Finish the whole State and the run record must agree. A machine fails
// if over its drives no slot was jammed, none booked, none booked a
// wrong value, none reached a settled receiver, nothing was decided or,
// with BookSends, nothing was retired and taken back.
func TestInstanceConformance(t *testing.T) {
	params := core.Params{R: 2, T: 1, MF: 2}
	protocolB, err := core.NewProtocolB(params)
	if err != nil {
		t.Fatal(err)
	}
	// At threshold 1 one forged copy decides a good node, so wrong and
	// exotic values are relayed and booked.
	three := func(grid.NodeID) int { return 3 }
	threshold1 := core.Spec{Name: "threshold-1", SourceRepeats: 3, Threshold: 1, Sends: three, Budget: three, MaxSends: 3}
	type named struct {
		name string
		m    protocol.Machine
	}
	machines := []named{{"B", protocol.NewThreshold(protocolB)}, {"threshold-1", protocol.NewThreshold(threshold1)}}
	for _, m := range []int{1, 2, 64, 65, 130} {
		machines = append(machines, named{fmt.Sprintf("multi-M%d", m), &protocol.Multi{Spec: protocolB, M: m}})
	}
	// Multi counts ValueTrue in bit-sliced counters bits.Len(threshold)
	// wide: thresholds on their level edges, one level (1), the top bit
	// only (4, 8) and all ones (7).
	for _, th := range []int{1, 4, 7, 8} {
		sends := func(grid.NodeID) int { return th }
		spec := core.Spec{Name: fmt.Sprintf("threshold-%d", th), SourceRepeats: th, Threshold: th, Sends: sends, Budget: sends, MaxSends: th}
		machines = append(machines, named{fmt.Sprintf("multi-threshold-%d", th), &protocol.Multi{Spec: spec, M: 2}})
	}
	for p := protocol.PolicyDisrupt; p <= protocol.PolicyMixed; p++ {
		machines = append(machines, named{"reactive-" + p.String(), &protocol.Reactive{MMax: 2, PayloadBits: 16, Policy: p}})
	}

	tor := plan.For(grid.MustNew(15, 15, 2))
	sparse, err := topo.NewRGG(300, 0.05, 4)
	if err != nil {
		t.Fatal(err)
	}
	rgg, isolated := plan.For(sparse), grid.None
	for u := sparse.Size() - 1; u >= 0; u-- {
		if rgg.Adjacency().Degree(grid.NodeID(u)) == 0 {
			isolated = grid.NodeID(u)
		}
	}
	if isolated == grid.None {
		t.Fatal("the sparse RGG has no isolated node; the test topology is not doing its job")
	}
	names := []string{"torus", "bounded", "bad-row", "isolated"}
	envs := []protocol.Env{
		{Plan: tor, Params: params, Source: 0},
		{Plan: plan.For(topo.MustNewBounded(15, 13, 1)), Params: core.Params{R: 1, T: 1, MF: 2}, Source: 7},
		{Plan: tor, Params: params, Source: 112}, // the middle of the torus
		{Plan: rgg, Params: core.Params{R: 1, T: 1, MF: 2}, Source: isolated},
	}
	for i := range envs {
		e := &envs[i]
		rng := stats.NewRNG(uint64(i + 1))
		e.Bad, e.Seed = make([]bool, e.Plan.Size()), uint64(i+1)
		for u := range e.Bad {
			e.Bad[u] = rng.Intn(12) == 0
		}
		if names[i] == "bad-row" {
			for _, nb := range tor.Adjacency().Neighbors(e.Source) {
				e.Bad[nb] = true
			}
		}
		e.Bad[e.Source] = false
	}

	for _, mc := range machines {
		var c conformanceCounts
		for k, env := range envs {
			t.Run(mc.name+"/"+names[k], func(t *testing.T) { driveConformance(t, mc.m, env, &c) })
		}
		_, reactive := mc.m.(*protocol.Reactive)
		if !t.Failed() && (c.booked == 0 || c.settled == 0 || c.decisions == 0 ||
			!reactive && (c.jammed == 0 || c.wrongBooked == 0) || c.retiring && (c.retired == 0 || c.unretired == 0)) {
			t.Errorf("%s: degenerate drive: %+v", mc.name, c)
		}
	}
}

// conformanceCounts is what a machine's drives did.
type conformanceCounts struct {
	jammed, booked, settled, decisions, wrongBooked int
	retiring                                        bool // the instance has BookSends
	retired, unretired                              int
}

// twin is one attached instance, its hook stream — slot, instance (-1
// for OnAccept, -2 for OnSend), node, value — and the current slot's
// Sends.
type twin struct {
	inst   protocol.Instance
	hooks  protocol.Hooks
	events [][4]int
	sends  []protocol.Send
}

type bookSender interface {
	BookSends(from grid.NodeID, k int32)
}

// sameState compares a and b, the receipts only when asked.
func sameState(a, b *protocol.State, receipts bool) bool {
	return slices.Equal(a.Decided, b.Decided) && slices.Equal(a.Value, b.Value) && slices.Equal(a.Settled, b.Settled) &&
		a.BooksSlots == b.BooksSlots && reflect.DeepEqual(a.Record, b.Record) &&
		(!receipts || slices.Equal(a.Correct, b.Correct) && slices.Equal(a.Wrong, b.Wrong))
}

// driveConformance runs machine m on env (see TestInstanceConformance)
// and adds what the drive did to c.
func driveConformance(t *testing.T, m protocol.Machine, env protocol.Env, c *conformanceCounts) {
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	pl, adj, n := env.Plan, env.Plan.Adjacency(), env.Plan.Size()
	must(pl.ColoringErr())
	var twins []*twin // A, B and, where the instance has BookSends, C
	for len(twins) < 2 || len(twins) == 2 && c.retiring {
		inst, err := m.Attach(env)
		must(err)
		if st := inst.State(); len(st.Decided) != n || len(st.Value) != n || len(st.Correct) != n || len(st.Wrong) != n {
			t.Fatalf("%T attached a State whose slices are not of topology size %d", m, n)
		}
		tw := &twin{inst: inst}
		record := func(slot, j int, id grid.NodeID, v radio.Value) {
			tw.events = append(tw.events, [4]int{slot, j, int(id), int(v)})
		}
		tw.hooks = protocol.Hooks{
			OnAccept:         func(slot int, id grid.NodeID, v radio.Value) { record(slot, -1, id, v) },
			OnInstanceDecide: record,
			OnSend:           func(slot int, id grid.NodeID, v radio.Value, _ bool) { record(slot, -2, id, v) },
		}
		_, c.retiring = inst.(bookSender)
		twins = append(twins, tw)
	}
	a, st := twins[0], twins[0].inst.State()
	retire := func(v grid.NodeID, k int) { twins[2].inst.(bookSender).BookSends(v, int32(k)) }
	// step hands tw a slot: Book(txs) when there are any, then, when the
	// slot was heard, Deliver(ds) and Tick.
	step := func(tw *twin, slot int, txs []radio.Tx, ds []radio.Delivery, heard bool) {
		if len(txs) > 0 {
			must(tw.inst.Book(slot, txs))
		}
		if heard {
			sends, err := tw.inst.Deliver(slot, ds, &tw.hooks, tw.sends)
			must(err)
			tw.sends = tw.inst.Tick(slot, sends)
		}
	}

	// pending mirrors the engine's queues; retired counts the pending sends
	// twin C has booked ahead.
	pending, retired, pendingTotal := make([]int, n), make([]int, n), 0
	unsettled := func(u grid.NodeID) bool { return !env.Bad[u] && !st.Settled[u] }
	compare := func(slot int) {
		for i, tw := range twins[1:] {
			if !slices.Equal(tw.sends, a.sends) || !slices.Equal(tw.events, a.events) || !sameState(tw.inst.State(), st, false) {
				t.Fatalf("slot %d: twin %c diverges from A:\n sends %v, hooks %v\n sends %v, hooks %v", slot, 'B'+i, tw.sends, tw.events, a.sends, a.events)
			}
		}
		for _, ev := range a.events {
			if ev[1] == -1 {
				c.decisions++
			}
		}
		for _, s := range a.sends {
			pending[s.ID] += s.N
			pendingTotal += s.N
		}
		for _, tw := range twins {
			tw.events, tw.sends = tw.events[:0], tw.sends[:0]
		}
		// Twin C retires what is pending at every node whose row has settled.
		for v := range pending {
			if k := pending[v] - retired[v]; c.retiring && k > 0 && !slices.ContainsFunc(adj.Neighbors(grid.NodeID(v)), unsettled) {
				retire(grid.NodeID(v), k)
				c.retired, retired[v] = c.retired+k, pending[v]
			}
		}
	}
	for _, tw := range twins {
		tw.sends = tw.inst.Bootstrap(tw.sends)
	}
	compare(0)

	_, reactive := m.(*protocol.Reactive)
	jamValues := []radio.Value{radio.ValueTrue, radio.ValueFalse, radio.ValueFalse, 3, protocol.MaxTrackedValue + 1, 250}
	medium, rng := radio.NewMediumShared(adj), stats.NewRNG(env.Seed*1_000_033+uint64(env.Source))
	var (
		txs, onAir, kept []radio.Tx
		ds, frontier     []radio.Delivery
		err              error
	)
	// The horizon leaves thresholds 7 and 8 on the sparse RGG, whose last
	// acceptances come late, room to drain.
	slot, randomSlots := 0, 12*pl.Period()
	for ; slot < 90*pl.Period() && (slot < randomSlots || pendingTotal > 0); slot++ {
		drain := slot >= randomSlots // every pending node transmits, nothing is jammed
		txs = txs[:0]
		for _, v := range pl.ColorClasses()[pl.SlotColor(slot)] {
			if pending[v] > 0 && (drain || rng.Intn(5) > 0) {
				pending[v]--
				pendingTotal--
				txs = append(txs, radio.Tx{From: v, Value: st.Value[v]})
			}
		}
		// A jammed slot draws about two jams from the bad nodes; one in
		// six silences its row.
		jammed := !reactive && !drain && (slot <= 6 || rng.Intn(4) == 0)
		onAir = append(onAir[:0], txs...)
		for k := 0; jammed && k < 24; k++ {
			jam := radio.Tx{From: grid.NodeID(rng.Intn(n)), Jam: true, Value: jamValues[rng.Intn(len(jamValues))], Drop: rng.Intn(6) == 0}
			if env.Bad[jam.From] && !slices.ContainsFunc(onAir, func(tx radio.Tx) bool { return tx.From == jam.From }) {
				onAir = append(onAir, jam)
			}
		}
		if len(onAir) == 0 {
			continue
		}
		ds, err = medium.ResolveAppend(onAir, ds[:0])
		must(err)
		// Twin C's jam-free slot carries only the sends it has not
		// retired; a jammed slot takes the retired ones back.
		kept = kept[:0]
		for _, tx := range txs {
			if retired[tx.From] == 0 {
				kept = append(kept, tx)
			} else if retired[tx.From]--; jammed {
				retire(tx.From, -1)
				c.unretired++
			}
		}
		// What B and C are handed of a jam-free slot: under Settled the
		// deliveries to good receivers not settled at its start.
		settled := st.Settled
		if settled == nil {
			settled = st.Decided // under BooksSlots, the nodes decided in every instance
		}
		frontier, reached := frontier[:0], make([]bool, n)
		for _, d := range ds {
			reached[d.To] = true
			if settled[d.To] && !jammed {
				c.settled++
			} else if !settled[d.To] && !env.Bad[d.To] && st.Settled != nil {
				frontier = append(frontier, d)
			}
		}
		correct, wrong := slices.Clone(st.Correct), slices.Clone(st.Wrong)
		for i, tw := range twins {
			switch {
			case jammed || i == 0:
				step(tw, slot, nil, ds, len(ds) > 0)
			case i == 1:
				step(tw, slot, txs, frontier, len(ds) > 0)
			default:
				step(tw, slot, kept, frontier, slices.ContainsFunc(kept, func(tx radio.Tx) bool { return adj.Degree(tx.From) > 0 }))
			}
		}
		if jammed {
			c.jammed++
		} else {
			c.booked++
			if slices.ContainsFunc(txs, func(tx radio.Tx) bool { return tx.Value != radio.ValueTrue }) {
				c.wrongBooked++
			}
			for u := range n {
				if !reached[u] && (st.Correct[u] != correct[u] || st.Wrong[u] != wrong[u]) {
					t.Fatalf("slot %d: node %d heard nothing, yet its receipts moved", slot, u)
				}
			}
		}
		compare(slot)
	}
	if pendingTotal > 0 || medium.GoodGoodCollisions > 0 {
		t.Fatalf("after %d slots: %d sends pending, %d good-good collisions", slot, pendingTotal, medium.GoodGoodCollisions)
	}
	for _, tw := range twins {
		tw.inst.Finish(slot)
	}
	for i, tw := range twins[1:] {
		if !sameState(tw.inst.State(), st, true) {
			t.Fatalf("after Finish: twin %c diverges from A:\n %+v\n %+v", 'B'+i, tw.inst.State(), st)
		}
	}
}
