package protocol

import (
	"fmt"
	"slices"
	"testing"

	"bftbcast/internal/grid"
	"bftbcast/internal/radio"
	"bftbcast/internal/stats"
)

// TestTorusBoxFoldMatchesRowScatter holds the torus ledger fold of
// ThresholdInstance.Finish to the row scatter it replaces there (and that
// RGGs and bounded grids keep): for each value class, every node's
// receipts grow by the ledger of its neighbors in that class. It covers
// r = 1…4, sides of exactly 2r+1, W ≠ H, sides that are not multiples of
// 2r+1, all-zero ledgers, and senders of wrong, exotic and no value.
func TestTorusBoxFoldMatchesRowScatter(t *testing.T) {
	values := []radio.Value{radio.ValueTrue, radio.ValueTrue, radio.ValueTrue, radio.ValueFalse, 5, radio.ValueNone}
	rng := stats.NewRNG(34)
	for r := 1; r <= 4; r++ {
		side := 2*r + 1
		for _, wh := range [][2]int{{side, side}, {side, 2 * side}, {3 * side, side + 1}, {side + 2, side + 5}, {2*side + 3, 2 * side}} {
			tor := grid.MustNew(wh[0], wh[1], r)
			n := tor.Size()
			for _, density := range []int{0, 1, 5, 100} { // percent of senders with a ledger entry
				desc := fmt.Sprintf("%dx%d r=%d density %d%%", wh[0], wh[1], r, density)
				inst := &ThresholdInstance{tor: tor, lateTx: make([]int32, n)}
				inst.st.Value = make([]radio.Value, n)
				for i := range inst.lateTx {
					inst.st.Value[i] = values[rng.Intn(len(values))]
					if rng.Intn(100) < density {
						inst.lateTx[i] = int32(1 + rng.Intn(9))
					}
				}
				for _, correct := range []bool{true, false} {
					base := make([]int32, n)
					for i := range base {
						base[i] = int32(rng.Intn(50))
					}
					want := slices.Clone(base)
					for i, k := range inst.lateTx {
						if (inst.st.Value[i] == radio.ValueTrue) != correct {
							continue
						}
						for _, to := range tor.AppendNeighbors(nil, grid.NodeID(i)) {
							want[to] += k
						}
					}
					got := slices.Clone(base)
					inst.boxFold(got, correct)
					for i := range got {
						if got[i] != want[i] {
							x, y := tor.XY(grid.NodeID(i))
							t.Fatalf("%s correct=%v: node (%d,%d) got %d, the row scatter %d", desc, correct, x, y, got[i], want[i])
						}
					}
				}
			}
		}
	}
}
