package protocol_test

import (
	"fmt"
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

// TestThresholdReceiptsMatchPerDelivery holds ThresholdInstance's
// receipts rule — booked slots counted once, by the ledger fold at Finish,
// and only the receipts of the other slots kept again — to a per-delivery
// count of every delivery of the run. One instance is fed slots as the
// fast engine feeds them: jammed slots (every delivery, nothing booked),
// the first few before any booking, carrying ValueTrue, wrong and exotic
// (> MaxTrackedValue) copies, often to the same receivers; and booked
// slots (Book with the transmissions of decided good senders whose rows
// do not meet, then Deliver with only the deliveries to receivers that
// were undecided when the slot began). The reference applies the copies
// rule to every delivery. After Finish, Decided, Value, Correct and Wrong
// must agree for every node, on a bounded grid (the row scatter) and on a
// torus (the box fold).
func TestThresholdReceiptsMatchPerDelivery(t *testing.T) {
	for _, tp := range []topo.Topology{topo.MustNewBounded(13, 11, 1), grid.MustNew(15, 15, 2)} {
		for seed := uint64(1); seed <= 4; seed++ {
			checkReceipts(t, fmt.Sprintf("%v/seed %d", tp, seed), tp, seed)
		}
	}
}

func checkReceipts(t *testing.T, desc string, tp topo.Topology, seed uint64) {
	t.Helper()
	n := tp.Size()
	rng := stats.NewRNG(seed)
	bad := make([]bool, n)
	for i := range bad {
		bad[i] = i != 0 && rng.Intn(20) == 0
	}
	three := func(grid.NodeID) int { return 3 }
	spec := core.Spec{Name: "receipts", SourceRepeats: 3, Threshold: 3, Sends: three, Budget: three, MaxSends: 3}
	inst := protocol.NewThresholdInstance()
	if err := inst.Bind(protocol.Env{Plan: plan.For(tp), Source: 0, Bad: bad}, spec); err != nil {
		t.Fatal(err)
	}
	st := inst.State()

	// The per-delivery reference: every delivery counted, the copies rule
	// applied to each in order.
	decided, value := make([]bool, n), make([]radio.Value, n)
	correct, wrong := make([]int32, n), make([]int32, n)
	counts := make([][protocol.MaxTrackedValue + 1]int32, n)
	decided[0], value[0] = true, radio.ValueTrue
	apply := func(ds []radio.Delivery) {
		for _, d := range ds {
			u := d.To
			if bad[u] {
				continue
			}
			if d.Value == radio.ValueTrue {
				correct[u]++
			} else {
				wrong[u]++
			}
			b := min(int(d.Value), protocol.MaxTrackedValue)
			counts[u][b]++
			if !decided[u] && counts[u][b] == 3 {
				decided[u], value[u] = true, d.Value
			}
		}
	}
	deliver := func(slot int, ds []radio.Delivery) {
		t.Helper()
		if _, err := inst.Deliver(slot, ds, &protocol.Hooks{}, nil); err != nil {
			t.Fatal(err)
		}
	}

	values := []radio.Value{radio.ValueTrue, radio.ValueTrue, radio.ValueFalse, 3, protocol.MaxTrackedValue + 1, 250}
	rows := make([][]grid.NodeID, n)
	for i := range rows {
		rows[i] = tp.AppendNeighbors(nil, grid.NodeID(i))
		slices.Sort(rows[i])
	}
	var jammedBefore, jammedAfter, booked, wrongBooked int
	for slot := 0; slot < 80; slot++ {
		if slot < 6 || rng.Intn(4) == 0 {
			// A jammed slot: arbitrary deliveries, every one handed over.
			// The first few land on a handful of receivers, so some of
			// them decide on wrong and exotic values early.
			span := n
			if slot < 6 {
				span = 12
			}
			var ds []radio.Delivery
			for u := 0; u < span; u++ {
				if rng.Intn(3) == 0 {
					ds = append(ds, radio.Delivery{To: grid.NodeID(u), Value: values[rng.Intn(len(values))], Collided: true})
				}
			}
			apply(ds)
			deliver(slot, ds)
			if booked == 0 {
				jammedBefore++
			} else {
				jammedAfter++
			}
			continue
		}
		// A booked slot: decided good senders with disjoint closed rows.
		taken := make([]bool, n)
		var txs []radio.Tx
		for _, v := range rng.Perm(n) {
			if len(txs) == 4 || !decided[v] || bad[v] || taken[v] {
				continue
			}
			clash := false
			for _, u := range rows[v] {
				clash = clash || taken[u]
			}
			if clash {
				continue
			}
			taken[v] = true
			for _, u := range rows[v] {
				taken[u] = true
			}
			txs = append(txs, radio.Tx{From: grid.NodeID(v), Value: value[v]})
			if value[v] != radio.ValueTrue {
				wrongBooked++
			}
		}
		var all, frontier []radio.Delivery
		for u := 0; u < n; u++ {
			if !taken[u] {
				continue
			}
			for _, tx := range txs {
				if slices.Contains(rows[tx.From], grid.NodeID(u)) {
					d := radio.Delivery{To: grid.NodeID(u), Value: tx.Value, From: tx.From}
					all = append(all, d)
					if !bad[u] && !decided[u] {
						frontier = append(frontier, d)
					}
				}
			}
		}
		if err := inst.Book(slot, txs); err != nil {
			t.Fatal(err)
		}
		apply(all)
		deliver(slot, frontier)
		booked++
	}
	if jammedBefore == 0 || jammedAfter == 0 || booked == 0 || wrongBooked == 0 {
		t.Fatalf("%s: degenerate schedule: jammed before/after the first booking %d/%d, booked %d, wrong-value senders booked %d",
			desc, jammedBefore, jammedAfter, booked, wrongBooked)
	}
	inst.Finish(80)
	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"Decided", st.Decided, decided}, {"Value", st.Value, value},
		{"Correct", st.Correct, correct}, {"Wrong", st.Wrong, wrong},
	} {
		if fmt.Sprint(c.got) != fmt.Sprint(c.want) {
			t.Fatalf("%s: %s after Finish\n got %v\nwant %v", desc, c.name, c.got, c.want)
		}
	}
}
