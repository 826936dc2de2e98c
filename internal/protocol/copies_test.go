package protocol

import (
	"slices"
	"testing"

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
