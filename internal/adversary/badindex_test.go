package adversary

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"bftbcast/internal/grid"
	"bftbcast/internal/plan"
	"bftbcast/internal/radio"
	"bftbcast/internal/stats"
	"bftbcast/internal/topo"
	"bftbcast/internal/topo/topotest"
)

// rowFilterIndex is the bad-neighbor cache as it was before the index:
// each node's own row, filtered through the bad mask, in row order — here
// for every node at once, laid out the way corruptorCore stores its index.
func rowFilterIndex(v *View) (off []int32, nbrs []grid.NodeID) {
	n := v.Topo.Size()
	off = make([]int32, n+1)
	for u := 0; u < n; u++ {
		for _, nb := range v.Adj.Neighbors(grid.NodeID(u)) {
			if v.Bad[nb] {
				nbrs = append(nbrs, nb)
			}
		}
		off[u+1] = int32(len(nbrs))
	}
	return off, nbrs
}

// TestBadNeighborIndexMatchesRowFilter holds the bad-side index to the
// row filter it replaced: the same bad neighbors for every node, and —
// since the order within a list did change — the same jams, slot for
// slot, from a core that is handed the old lists in the old order.
func TestBadNeighborIndexMatchesRowFilter(t *testing.T) {
	bounded := topo.MustNewBounded(14, 17, 2)
	rgg, err := topo.NewConnectedRGG(150, 7)
	if err != nil {
		t.Fatal(err)
	}
	topos := []topo.Topology{
		grid.MustNew(15, 15, 2),
		bounded,
		rgg,
		topotest.Miscolored(bounded, bounded.ID(4, 4), bounded.ID(6, 4)),
	}
	strategies := map[string]func(victims []bool) (Strategy, *corruptorCore){
		"corruptor": func([]bool) (Strategy, *corruptorCore) { c := NewCorruptor(); return c, &c.core },
		"targeted":  func(v []bool) (Strategy, *corruptorCore) { tg := NewTargeted(v); return tg, &tg.core },
	}
	jammed, indexed, reordered := 0, 0, 0
	for _, tp := range topos {
		n := tp.Size()
		for seed := uint64(1); seed <= 6; seed++ {
			bad, err := Random{T: 3, Density: 0.12, Seed: seed}.Place(tp, 0)
			if err != nil {
				t.Fatal(err)
			}
			for name, mk := range strategies {
				desc := fmt.Sprintf("%v seed %d %s", tp, seed, name)
				rng := stats.NewRNG(seed)
				v := &View{
					Topo: tp, Adj: plan.For(tp).Adjacency(), Bad: bad, Threshold: 4,
					Decided: make([]bool, n), Correct: make([]int32, n),
					Supply: make([]int32, n), Budget: make([]radio.Budget, n),
				}
				victims := make([]bool, n)
				for i := 0; i < n; i++ {
					if bad[i] {
						v.Budget[i] = radio.NewBudget(rng.Intn(6))
						continue
					}
					v.Decided[i] = rng.Intn(3) == 0
					v.Correct[i] = int32(rng.Intn(v.Threshold))
					v.Supply[i] = int32(rng.Intn(5))
					victims[i] = rng.Intn(2) == 0
				}

				indexStrategy, index := mk(victims)
				filterStrategy, filter := mk(victims)
				filter.coveredEpoch = make([]int32, n) // sized, so jams keeps the lists below
				filter.badOff, filter.badNbrs = rowFilterIndex(v)

				for u := 0; u < n; u++ {
					want := slices.Clone(filter.badNeighbors(v, grid.NodeID(u)))
					if !slices.IsSorted(want) {
						reordered++
					}
					slices.Sort(want)
					if got := index.badNeighbors(v, grid.NodeID(u)); !slices.Equal(got, want) {
						t.Fatalf("%s: bad neighbors of %d: index %v, row filter %v", desc, u, got, want)
					}
					indexed += len(want)
				}

				for slot := 0; slot < 30; slot++ {
					tentative := randomSlot(tp, rng)
					got := slices.Clone(indexStrategy.Jams(v, slot, tentative))
					want := slices.Clone(filterStrategy.Jams(v, slot, tentative))
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s slot %d: jams with the index %v, with the row filter %v", desc, slot, got, want)
					}
					// Move the state on the way an engine would: jams cost
					// budget, and what got through is banked.
					for _, j := range got {
						v.Budget[j.From].TrySpend()
					}
					for _, d := range tentative {
						if !bad[d.To] && !v.Decided[d.To] && len(got) == 0 {
							v.Correct[d.To]++
							v.Decided[d.To] = int(v.Correct[d.To]) >= v.Threshold
						}
					}
					jammed += len(got)
				}
			}
		}
	}
	if jammed == 0 || indexed == 0 || reordered == 0 {
		t.Fatalf("vacuous comparison: %d jams, %d indexed bad neighbors, %d lists in another order",
			jammed, indexed, reordered)
	}
}

// randomSlot draws a slot's tentative deliveries: a few transmitters, each
// heard by its whole row (the first transmitter wins a shared receiver),
// ascending by receiver as the medium reports them.
func randomSlot(tp topo.Topology, rng *stats.RNG) []radio.Delivery {
	var ds []radio.Delivery
	heard := map[grid.NodeID]bool{}
	for k := 0; k < 3; k++ {
		from := grid.NodeID(rng.Intn(tp.Size()))
		for _, to := range tp.AppendNeighbors(nil, from) {
			if !heard[to] {
				heard[to] = true
				ds = append(ds, radio.Delivery{To: to, Value: radio.ValueTrue, From: from})
			}
		}
	}
	slices.SortFunc(ds, func(a, b radio.Delivery) int { return int(a.To) - int(b.To) })
	return ds
}
