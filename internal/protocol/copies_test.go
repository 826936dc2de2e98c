package protocol

import (
	"slices"
	"testing"

	"bftbcast/internal/core"
	"bftbcast/internal/grid"
	"bftbcast/internal/plan"
	"bftbcast/internal/radio"
	"bftbcast/internal/stats"
	"bftbcast/internal/topo"
)

// TestTorusBoxFoldMatchesRowScatter holds the copies rule's receipt
// ledger fold, which both ThresholdInstance.Finish and Multi's Finish
// run, to a row scatter over the topology's own neighbor lists: every
// node's receipts grow by the ValueTrue line of its neighbors in Correct
// and by their other line in Wrong, and the bad receivers end at zero. On
// a torus the fold is a box sum; it covers r = 1…4, sides of exactly
// 2r+1, W ≠ H, sides that are not multiples of 2r+1, all-zero ledgers,
// and senders booking ValueTrue, wrong, exotic and both kinds of copies.
// A bounded grid and an RGG take the fold's own row scatter.
func TestTorusBoxFoldMatchesRowScatter(t *testing.T) {
	rng := stats.NewRNG(34)
	densities := []int{0, 1, 5, 100} // percent of senders with a ledger entry
	for r := 1; r <= 4; r++ {
		side := 2*r + 1
		for _, wh := range [][2]int{{side, side}, {side, 2 * side}, {3 * side, side + 1}, {side + 2, side + 5}, {2*side + 3, 2 * side}} {
			for _, density := range densities {
				checkFold(t, grid.MustNew(wh[0], wh[1], r), density, rng)
			}
		}
	}
	rgg, err := topo.NewConnectedRGG(400, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range []topo.Topology{topo.MustNewBounded(13, 11, 2), rgg} {
		for _, density := range densities {
			checkFold(t, tp, density, rng)
		}
	}
}

// checkFold books a random ledger on tp, density percent of the senders
// booking copies of random values, folds it over random base receipts and
// compares each node with the row scatter.
func checkFold(t *testing.T, tp topo.Topology, density int, rng *stats.RNG) {
	t.Helper()
	values := []radio.Value{radio.ValueTrue, radio.ValueTrue, radio.ValueFalse, 5, MaxTrackedValue + 3}
	n := tp.Size()
	var l receiptLedger
	l.reset(plan.Compute(tp))
	tru, other := make([]int32, n), make([]int32, n)
	for i := 0; i < n; i++ {
		if rng.Intn(100) >= density {
			continue
		}
		for b := rng.Intn(3); b >= 0; b-- { // one to three bookings, of either line
			v, k := values[rng.Intn(len(values))], int32(1+rng.Intn(9))
			l.book(grid.NodeID(i), v, k)
			if v == radio.ValueTrue {
				tru[i] += k
			} else {
				other[i] += k
			}
		}
	}
	bad := make([]bool, n)
	for i := range bad {
		bad[i] = rng.Intn(10) == 0
	}
	correct, wrong := make([]int32, n), make([]int32, n)
	for i := range correct {
		correct[i], wrong[i] = int32(rng.Intn(50)), int32(rng.Intn(50))
	}
	wantCorrect, wantWrong := slices.Clone(correct), slices.Clone(wrong)
	for i := range tru {
		for _, to := range tp.AppendNeighbors(nil, grid.NodeID(i)) {
			wantCorrect[to] += tru[i]
			wantWrong[to] += other[i]
		}
	}
	for i, b := range bad {
		if b {
			wantCorrect[i], wantWrong[i] = 0, 0
		}
	}
	l.fold(correct, wrong, bad)
	for i := range correct {
		if correct[i] != wantCorrect[i] || wrong[i] != wantWrong[i] {
			t.Fatalf("%v density %d%%: node %d (bad %v) got %d/%d, the row scatter %d/%d",
				tp, density, i, bad[i], correct[i], wrong[i], wantCorrect[i], wantWrong[i])
		}
	}
}

// TestTrueCopiesStayWithinLevels pins what makes Multi's bit-sliced
// ValueTrue counters bits.Len(threshold) wide enough: a pair is counted
// only while it is undecided, and under a verified distance-2 colouring
// a receiver hears at most one transmission per slot, so a count moves
// by one at most in a slot, stops at the decision and never passes the
// threshold. Booked runs at thresholds on the counters' level edges, two
// mask words each, check the colouring, the frozen counts of decided
// pairs and the bound after every slot, and end with every pair decided.
func TestTrueCopiesStayWithinLevels(t *testing.T) {
	for _, pl := range []*plan.Plan{plan.For(grid.MustNew(15, 15, 2)), plan.For(topo.MustNewBounded(15, 13, 1))} {
		if err := pl.ColoringErr(); err != nil {
			t.Fatal(err)
		}
		n, adj := pl.Size(), pl.Adjacency()
		for _, th := range []int{1, 4, 7, 8} {
			sends := func(grid.NodeID) int { return 2*th - 1 }
			spec := core.Spec{Name: "edge", SourceRepeats: 2*th - 1, Threshold: th, Sends: sends, Budget: sends, MaxSends: 2*th - 1}
			inst, err := (&Multi{Spec: spec, M: 65}).Attach(Env{Plan: pl, Params: core.Params{R: 1, T: 1, MF: 2}, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			mi := inst.(*multiInstance)
			pending, heard := make([]int, n), make([]int, n)
			queue := func(ss []Send) {
				for _, s := range ss {
					pending[s.ID] += s.N
				}
			}
			queue(mi.Bootstrap(nil))
			var txs []radio.Tx
			for slot := 1; slices.ContainsFunc(pending, func(p int) bool { return p > 0 }); slot++ {
				txs = txs[:0]
				clear(heard)
				for _, v := range pl.ColorClasses()[pl.SlotColor(slot)] {
					if pending[v] == 0 {
						continue
					}
					pending[v]--
					txs = append(txs, radio.Tx{From: v, Value: mi.st.Value[v]})
					for _, u := range adj.Neighbors(v) {
						if heard[u]++; heard[u] > 1 {
							t.Fatalf("slot %d: node %d hears two transmissions", slot, u)
						}
					}
				}
				counts, decided := slices.Clone(mi.trueCopies), slices.Clone(mi.decided)
				if err := mi.Book(slot, txs); err != nil {
					t.Fatal(err)
				}
				sends, err := mi.Deliver(slot, nil, &Hooks{}, nil)
				if err != nil {
					t.Fatal(err)
				}
				queue(mi.Tick(slot, sends))
				for w, d := range decided {
					// above: the pairs whose count passes the threshold,
					// compared from the top level down.
					lv, was := mi.trueCopies[w*mi.levels:][:mi.levels], counts[w*mi.levels:][:mi.levels]
					above, equal := uint64(0), ^uint64(0)
					for l := mi.levels - 1; l >= 0; l-- {
						tb := -uint64(th >> l & 1)
						above |= equal & lv[l] &^ tb
						equal &^= lv[l] ^ tb
						if moved := (lv[l] ^ was[l]) & d; moved != 0 {
							t.Fatalf("threshold %d, slot %d: a decided pair of word %d was counted (%#x)", th, slot, w, moved)
						}
					}
					if above != 0 {
						t.Fatalf("threshold %d, slot %d: a count of word %d passes the threshold (%#x)", th, slot, w, above)
					}
				}
				if slot > 100*pl.Period() {
					t.Fatalf("threshold %d: sends still pending after 100 periods", th)
				}
			}
			if i := slices.Index(mi.st.Decided, false); i >= 0 {
				t.Fatalf("threshold %d: node %d is undecided", th, i)
			}
		}
	}
}
