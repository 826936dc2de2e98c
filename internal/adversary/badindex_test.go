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

// sliceView is a View over flat per-node state on any topology: the bare
// form, which strategies reach through the per-node methods and
// Topology.AppendNeighbors only.
type sliceView struct {
	tp        topo.Topology
	bad       []bool
	decided   []bool
	correct   []int32
	supply    []int32
	budget    []int
	threshold int
}

func (v *sliceView) Topo() topo.Topology              { return v.tp }
func (v *sliceView) IsBad(id grid.NodeID) bool        { return v.bad[id] }
func (v *sliceView) IsDecided(id grid.NodeID) bool    { return v.decided[id] }
func (v *sliceView) CorrectCount(id grid.NodeID) int  { return int(v.correct[id]) }
func (v *sliceView) Threshold() int                   { return v.threshold }
func (v *sliceView) Supply(id grid.NodeID) int        { return int(v.supply[id]) }
func (v *sliceView) BadBudgetLeft(id grid.NodeID) int { return v.budget[id] }

// bulkView is sliceView with both optional refinements, the form the
// engines hand out.
type bulkView struct {
	*sliceView
	adj *radio.Adjacency
}

func (v bulkView) Neighbors(id grid.NodeID) []grid.NodeID { return v.adj.Neighbors(id) }
func (v bulkView) BadMask() []bool                        { return v.bad }
func (v bulkView) DecidedMask() []bool                    { return v.decided }
func (v bulkView) CorrectCounts() []int32                 { return v.correct }
func (v bulkView) SupplyCounts() []int32                  { return v.supply }

var (
	_ View           = (*sliceView)(nil)
	_ NeighborSource = bulkView{}
	_ StateSource    = bulkView{}
)

// rowFilterIndex is the bad-neighbor cache as it was before the index:
// each node's own row, filtered through IsBad, in row order — here for
// every node at once, laid out the way corruptorCore stores its index.
func rowFilterIndex(v View) (off []int32, nbrs []grid.NodeID) {
	n := v.Topo().Size()
	off = make([]int32, n+1)
	var row []grid.NodeID
	for u := 0; u < n; u++ {
		row = viewNeighbors(v, row[:0], grid.NodeID(u))
		for _, nb := range row {
			if v.IsBad(nb) {
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
			for _, bulk := range []bool{false, true} {
				for name, mk := range strategies {
					desc := fmt.Sprintf("%v seed %d bulk=%v %s", tp, seed, bulk, name)
					rng := stats.NewRNG(seed)
					sv := &sliceView{
						tp: tp, bad: bad, threshold: 4,
						decided: make([]bool, n), correct: make([]int32, n),
						supply: make([]int32, n), budget: make([]int, n),
					}
					victims := make([]bool, n)
					for i := 0; i < n; i++ {
						if bad[i] {
							sv.budget[i] = rng.Intn(6)
							continue
						}
						sv.decided[i] = rng.Intn(3) == 0
						sv.correct[i] = int32(rng.Intn(sv.threshold))
						sv.supply[i] = int32(rng.Intn(5))
						victims[i] = rng.Intn(2) == 0
					}
					var v View = sv
					if bulk {
						v = bulkView{sv, plan.For(tp).Adjacency()}
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
							sv.budget[j.From]--
						}
						for _, d := range tentative {
							if !bad[d.To] && !sv.decided[d.To] && len(got) == 0 {
								sv.correct[d.To]++
								sv.decided[d.To] = int(sv.correct[d.To]) >= sv.threshold
							}
						}
						jammed += len(got)
					}
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
