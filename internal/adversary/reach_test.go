package adversary_test

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"bftbcast/internal/adversary"
	"bftbcast/internal/core"
	"bftbcast/internal/grid"
	"bftbcast/internal/radio"
	"bftbcast/internal/sim"
	"bftbcast/internal/sim/ref"
	"bftbcast/internal/stats"
	"bftbcast/internal/topo"
	"bftbcast/internal/topo/topotest"
)

// TestReachMatchesBadBudgets holds the engines' View.Reach to its
// definition and the corruptor that reads it to the one that did not. Real
// runs — the fast engine on and off the frontier, and the dense reference
// loop — go over a torus, a bounded grid, an RGG and a miscoloured bounded
// grid, and at every Jams call the view's Reach[u] must equal the sum of
// Budget.Left() over u's bad neighbors, filtered from u's row, and the
// jams must equal those of legacyCorruptor, the pre-Reach corruptor kept
// here as the reference.
func TestReachMatchesBadBudgets(t *testing.T) {
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
	engines := map[string]func(context.Context, sim.Config) (*sim.Result, error){
		"fast": sim.RunContext,
		"ref":  ref.RunContext,
	}
	seeds := uint64(4)
	if testing.Short() {
		seeds = 2
	}
	var calls, jammed, spent int
	for _, tp := range topos {
		n := tp.Size()
		params := core.Params{R: tp.Range(), T: 2, MF: 3}
		b, err := core.NewProtocolB(params)
		if err != nil {
			t.Fatal(err)
		}
		full, err := core.NewFullBudget(params, params.M0())
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(1); seed <= seeds; seed++ {
			rng := stats.NewRNG(seed)
			victims := make([]bool, n)
			for i := range victims {
				victims[i] = rng.Intn(2) == 0
			}
			strategies := map[string]func() (adversary.Strategy, *legacyCorruptor){
				"corruptor": func() (adversary.Strategy, *legacyCorruptor) {
					return adversary.NewCorruptor(), &legacyCorruptor{checkFeasible: true}
				},
				"corruptor/drop": func() (adversary.Strategy, *legacyCorruptor) {
					return &adversary.Corruptor{Drop: true}, &legacyCorruptor{checkFeasible: true, drop: true}
				},
				"targeted": func() (adversary.Strategy, *legacyCorruptor) {
					return adversary.NewTargeted(victims), &legacyCorruptor{victims: victims}
				},
			}
			for _, spec := range []core.Spec{b, full} {
				for sname, mk := range strategies {
					for ename, run := range engines {
						desc := fmt.Sprintf("%v seed %d %s %s %s", tp, seed, spec.Name, sname, ename)
						got, want := mk()
						check := &reachCheck{t: t, desc: desc, got: got, want: want}
						res, err := run(context.Background(), sim.Config{
							Topo: tp, Params: params, Spec: spec,
							Placement: adversary.Random{T: params.T, Density: 0.12, Seed: seed},
							Strategy:  check,
						})
						if err != nil {
							t.Fatalf("%s: %v", desc, err)
						}
						if res.RejectedJams != 0 {
							t.Fatalf("%s: %d rejected jams", desc, res.RejectedJams)
						}
						calls += check.calls
						jammed += check.jams
						spent += res.BadMessages
					}
				}
			}
		}
	}
	if calls == 0 || jammed == 0 || jammed != spent {
		t.Fatalf("vacuous or inconsistent: %d Jams calls, %d jams returned, %d bad messages spent", calls, jammed, spent)
	}
}

// reachCheck is the Strategy the engines run: it checks the view's Reach
// against the row filter, then asks the shipped strategy and the legacy
// one for the slot's jams and requires them equal.
type reachCheck struct {
	t     *testing.T
	desc  string
	got   adversary.Strategy
	want  *legacyCorruptor
	calls int
	jams  int
}

func (c *reachCheck) Name() string         { return "reach-check" }
func (c *reachCheck) DeliveryDriven() bool { return true }

func (c *reachCheck) Jams(v *adversary.View, slot int, tentative []radio.Delivery) []radio.Tx {
	c.calls++
	for u := range v.Bad {
		left := 0
		for _, nb := range v.Adj.Neighbors(grid.NodeID(u)) {
			if v.Bad[nb] {
				left += v.Budget[nb].Left()
			}
		}
		if int(v.Reach[u]) != left {
			c.t.Fatalf("%s slot %d: Reach[%d] = %d, its bad neighbors have %d left", c.desc, slot, u, v.Reach[u], left)
		}
	}
	got := c.got.Jams(v, slot, tentative)
	want := c.want.jams(v, tentative)
	if len(got) != 0 || len(want) != 0 {
		if !reflect.DeepEqual(got, want) {
			c.t.Fatalf("%s slot %d: jams %v, the legacy corruptor's %v", c.desc, slot, got, want)
		}
	}
	c.jams += len(got)
	return got
}

// legacyCorruptor is the corruptor as it was before View.Reach: it finds
// whether u can be denied, and the budget near u, by summing Budget.Left()
// over u's bad neighbors — filtered from u's row, which the bad-neighbor
// index it later used was held equal to — on every delivery it considers.
// victims nil admits every node (Corruptor); a mask restricts denial to it
// (Targeted, which also skips the feasibility gate).
type legacyCorruptor struct {
	victims       []bool
	checkFeasible bool
	drop          bool

	coveredEpoch []int32
	epoch        int32
	used         []grid.NodeID
}

type legacyEntry struct {
	u, from, jammer grid.NodeID
	must, shared    bool
}

func (c *legacyCorruptor) jams(v *adversary.View, tentative []radio.Delivery) []radio.Tx {
	if len(tentative) == 0 {
		return nil
	}
	if len(c.coveredEpoch) != len(v.Bad) {
		c.coveredEpoch = make([]int32, len(v.Bad))
		c.epoch = 0
	}
	c.epoch++
	c.used = c.used[:0]
	var entries []legacyEntry
	for _, d := range tentative {
		u := d.To
		if d.Value != radio.ValueTrue || v.Bad[u] || v.Decided[u] {
			continue
		}
		if c.victims != nil && !c.victims[u] {
			continue
		}
		near, canJam := 0, false
		for _, nb := range v.Adj.Neighbors(u) {
			if v.Bad[nb] {
				near += v.Budget[nb].Left()
				canJam = canJam || v.Budget[nb].Left() > 0
			}
		}
		if !canJam {
			continue
		}
		banked, sup := int(v.Correct[u]), int(v.Supply[u])
		must := banked+1 >= v.Threshold
		if !must && banked+1+sup < v.Threshold {
			continue
		}
		if c.checkFeasible && sup+1 > near {
			continue
		}
		entries = append(entries, legacyEntry{u: u, from: d.From, jammer: c.pick(v, u, d.From), must: must})
	}
	if len(entries) == 0 {
		return nil
	}
	for i := range entries {
		for j := i + 1; j < len(entries); j++ {
			if entries[i].jammer == entries[j].jammer && entries[i].from == entries[j].from {
				entries[i].shared, entries[j].shared = true, true
			}
		}
	}
	var jams []radio.Tx
	for _, e := range entries {
		if c.coveredEpoch[e.u] == c.epoch || (!e.must && !e.shared) {
			continue
		}
		jammer := e.jammer
		if slices.Contains(c.used, jammer) || v.Budget[jammer].Left() <= 0 {
			if jammer = c.pick(v, e.u, e.from); jammer == grid.None {
				continue
			}
		}
		c.used = append(c.used, jammer)
		jams = append(jams, radio.Tx{From: jammer, Value: radio.ValueFalse, Jam: true, Drop: c.drop})
		c.coveredEpoch[jammer] = c.epoch
		for _, nb := range v.Adj.Neighbors(jammer) {
			c.coveredEpoch[nb] = c.epoch
		}
	}
	return jams
}

// pick is the legacy pickJammer over u's bad neighbors in ascending id
// order, the order of the index: the budgeted one closest to from, ties
// to the lower id, skipping the jammers already used this slot.
func (c *legacyCorruptor) pick(v *adversary.View, u, from grid.NodeID) grid.NodeID {
	var bad []grid.NodeID
	for _, nb := range v.Adj.Neighbors(u) {
		if v.Bad[nb] {
			bad = append(bad, nb)
		}
	}
	slices.Sort(bad)
	jammer, best := grid.None, int(^uint(0)>>1)
	for _, nb := range bad {
		if v.Budget[nb].Left() <= 0 || slices.Contains(c.used, nb) {
			continue
		}
		if dist := v.Topo.Dist(nb, from); dist < best || (dist == best && nb < jammer) {
			best, jammer = dist, nb
		}
	}
	return jammer
}
