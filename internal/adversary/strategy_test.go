package adversary

import (
	"reflect"
	"sort"
	"testing"

	"bftbcast/internal/grid"
	"bftbcast/internal/radio"
	"bftbcast/internal/stats"
)

// fakeView scripts the state a strategy sees, for unit-testing strategies
// without the simulation engine; view renders it as the View an engine
// would fill.
type fakeView struct {
	tor       *grid.Torus
	bad       map[grid.NodeID]bool
	decided   map[grid.NodeID]bool
	correct   map[grid.NodeID]int
	supply    map[grid.NodeID]int
	budget    map[grid.NodeID]int
	threshold int
}

// view snapshots the scripted state into a View. Strategies cache only
// what is fixed for a run (the bad set), so a fresh snapshot per Jams
// call reads like one engine's live arrays.
func (f *fakeView) view() *View {
	n := f.tor.Size()
	v := &View{
		Topo: f.tor, Adj: radio.NewAdjacency(f.tor),
		Bad: make([]bool, n), Decided: make([]bool, n),
		Correct: make([]int32, n), Supply: make([]int32, n),
		Budget: make([]radio.Budget, n), Reach: make([]int32, n), Threshold: f.threshold,
	}
	for i := 0; i < n; i++ {
		id := grid.NodeID(i)
		v.Bad[i], v.Decided[i] = f.bad[id], f.decided[id]
		v.Correct[i], v.Supply[i] = int32(f.correct[id]), int32(f.supply[id])
		if f.bad[id] {
			v.Budget[i] = radio.NewBudget(f.budget[id])
			for _, nb := range v.Adj.Neighbors(id) {
				v.Reach[nb] += int32(f.budget[id])
			}
		}
	}
	return v
}

func newFakeView(t *testing.T) *fakeView {
	t.Helper()
	return &fakeView{
		tor:       grid.MustNew(15, 15, 2),
		bad:       map[grid.NodeID]bool{},
		decided:   map[grid.NodeID]bool{},
		correct:   map[grid.NodeID]int{},
		supply:    map[grid.NodeID]int{},
		budget:    map[grid.NodeID]int{},
		threshold: 5,
	}
}

func TestIdleNeverJams(t *testing.T) {
	v := newFakeView(t)
	d := []radio.Delivery{{To: 1, Value: radio.ValueTrue, From: 2}}
	if jams := (Idle{}).Jams(v.view(), 0, d); jams != nil {
		t.Fatalf("Idle jammed: %v", jams)
	}
}

func TestCorruptorDeniesCrossingDelivery(t *testing.T) {
	v := newFakeView(t)
	victim := v.tor.ID(5, 5)
	from := v.tor.ID(6, 5)
	badNode := v.tor.ID(4, 5)
	v.bad[badNode] = true
	v.budget[badNode] = 10
	v.correct[victim] = v.threshold - 1 // next copy crosses
	v.supply[victim] = 3

	c := NewCorruptor()
	jams := c.Jams(v.view(), 0, []radio.Delivery{{To: victim, Value: radio.ValueTrue, From: from}})
	if len(jams) != 1 {
		t.Fatalf("jams = %v, want exactly one", jams)
	}
	j := jams[0]
	if j.From != badNode || !j.Jam || j.Value != radio.ValueFalse {
		t.Fatalf("jam = %+v", j)
	}
}

func TestCorruptorAllowsBelowThreshold(t *testing.T) {
	// A lone needy victim (not crossing) is deferred by the allow-late
	// rule; a victim with insufficient potential is ignored entirely.
	v := newFakeView(t)
	victim := v.tor.ID(5, 5)
	badNode := v.tor.ID(4, 5)
	v.bad[badNode] = true
	v.budget[badNode] = 10
	v.correct[victim] = 1
	v.supply[victim] = 100 // needy but lone: defer

	c := NewCorruptor()
	d := []radio.Delivery{{To: victim, Value: radio.ValueTrue, From: v.tor.ID(6, 5)}}
	if jams := c.Jams(v.view(), 0, d); len(jams) != 0 {
		t.Fatalf("lone needy victim jammed early: %v", jams)
	}
	v.supply[victim] = 0 // cannot ever reach threshold
	if jams := c.Jams(v.view(), 1, d); len(jams) != 0 {
		t.Fatalf("hopeless victim jammed: %v", jams)
	}
}

func TestCorruptorFeasibilityGate(t *testing.T) {
	// Crossing delivery, but the remaining supply exceeds all nearby
	// budget: blocking is hopeless, so the corruptor saves its budget.
	v := newFakeView(t)
	victim := v.tor.ID(5, 5)
	badNode := v.tor.ID(4, 5)
	v.bad[badNode] = true
	v.budget[badNode] = 2
	v.correct[victim] = v.threshold - 1
	v.supply[victim] = 50 // needs 51 more denials, only 2 available

	c := NewCorruptor()
	d := []radio.Delivery{{To: victim, Value: radio.ValueTrue, From: v.tor.ID(6, 5)}}
	if jams := c.Jams(v.view(), 0, d); len(jams) != 0 {
		t.Fatalf("hopeless blocking attempted: %v", jams)
	}
	// The Targeted variant has no such gate: the construction
	// guarantees feasibility.
	victims := make([]bool, v.tor.Size())
	victims[victim] = true
	tg := NewTargeted(victims)
	if jams := tg.Jams(v.view(), 0, d); len(jams) != 1 {
		t.Fatalf("targeted did not jam: %v", jams)
	}
}

func TestCorruptorSharedPreemptiveDenial(t *testing.T) {
	// Two needy victims hear the SAME transmission and share a bad
	// node: one preemptive jam serves both, even before either crosses.
	v := newFakeView(t)
	from := v.tor.ID(5, 5)
	u1 := v.tor.ID(6, 6)
	u2 := v.tor.ID(4, 4)
	badNode := v.tor.ID(5, 6) // within r of both victims
	v.bad[badNode] = true
	v.budget[badNode] = 10
	for _, u := range []grid.NodeID{u1, u2} {
		v.correct[u] = 0
		v.supply[u] = 5 // needy (0+1+5 >= threshold) and feasibly blockable
	}
	c := NewCorruptor()
	jams := c.Jams(v.view(), 0, []radio.Delivery{
		{To: u1, Value: radio.ValueTrue, From: from},
		{To: u2, Value: radio.ValueTrue, From: from},
	})
	if len(jams) != 1 || jams[0].From != badNode {
		t.Fatalf("shared jam = %v, want one from %d", jams, badNode)
	}
}

func TestCorruptorSkipsDecidedBadAndWrongValues(t *testing.T) {
	v := newFakeView(t)
	badNode := v.tor.ID(4, 5)
	v.bad[badNode] = true
	v.budget[badNode] = 10

	decided := v.tor.ID(5, 5)
	v.decided[decided] = true
	v.correct[decided] = 100

	badRx := v.tor.ID(5, 6)
	v.bad[badRx] = true

	c := NewCorruptor()
	jams := c.Jams(v.view(), 0, []radio.Delivery{
		{To: decided, Value: radio.ValueTrue, From: v.tor.ID(6, 5)},
		{To: badRx, Value: radio.ValueTrue, From: v.tor.ID(6, 6)},
		{To: v.tor.ID(3, 5), Value: radio.ValueFalse, From: v.tor.ID(3, 6)},
	})
	if len(jams) != 0 {
		t.Fatalf("corruptor jammed ineligible deliveries: %v", jams)
	}
}

func TestCorruptorRespectsBudget(t *testing.T) {
	v := newFakeView(t)
	victim := v.tor.ID(5, 5)
	badNode := v.tor.ID(4, 5)
	v.bad[badNode] = true
	v.budget[badNode] = 0 // broke
	v.correct[victim] = v.threshold - 1
	v.supply[victim] = 0

	c := NewCorruptor()
	d := []radio.Delivery{{To: victim, Value: radio.ValueTrue, From: v.tor.ID(6, 5)}}
	if jams := c.Jams(v.view(), 0, d); len(jams) != 0 {
		t.Fatalf("broke bad node jammed: %v", jams)
	}
}

func TestTargetedIgnoresNonVictims(t *testing.T) {
	v := newFakeView(t)
	victim := v.tor.ID(5, 5)
	other := v.tor.ID(8, 8)
	badNode := v.tor.ID(4, 5)
	badNode2 := v.tor.ID(8, 7)
	v.bad[badNode] = true
	v.bad[badNode2] = true
	v.budget[badNode] = 5
	v.budget[badNode2] = 5
	for _, u := range []grid.NodeID{victim, other} {
		v.correct[u] = v.threshold - 1
		v.supply[u] = 1
	}
	victims := make([]bool, v.tor.Size())
	victims[victim] = true
	tg := NewTargeted(victims)
	jams := tg.Jams(v.view(), 0, []radio.Delivery{
		{To: victim, Value: radio.ValueTrue, From: v.tor.ID(6, 5)},
		{To: other, Value: radio.ValueTrue, From: v.tor.ID(7, 8)},
	})
	if len(jams) != 1 || jams[0].From != badNode {
		t.Fatalf("jams = %v, want only the victim's", jams)
	}
}

// TestTargetedJamsAllocatesNothing holds DESIGN §6's "no per-slot
// allocations" for the construction adversary: once its scratch is sized,
// a Targeted.Jams call that denies a crossing delivery allocates nothing
// (it used to rebuild its victim filter, a closure that escaped, on every
// call).
func TestTargetedJamsAllocatesNothing(t *testing.T) {
	v := newFakeView(t)
	victim := v.tor.ID(5, 5)
	badNode := v.tor.ID(4, 5)
	v.bad[badNode] = true
	v.budget[badNode] = 10
	v.correct[victim] = v.threshold - 1
	victims := make([]bool, v.tor.Size())
	victims[victim] = true
	tg := NewTargeted(victims)
	view := v.view()
	d := []radio.Delivery{{To: victim, Value: radio.ValueTrue, From: v.tor.ID(6, 5)}}
	if jams := tg.Jams(view, 0, d); len(jams) != 1 {
		t.Fatalf("jams = %v, want the victim's", jams)
	}
	if allocs := testing.AllocsPerRun(100, func() { tg.Jams(view, 1, d) }); allocs != 0 {
		t.Fatalf("warm Targeted.Jams allocated %.1f times per call, want 0", allocs)
	}
}

func TestPickJammerPrefersTransmitterProximity(t *testing.T) {
	v := newFakeView(t)
	victim := v.tor.ID(5, 5)
	from := v.tor.ID(7, 5)
	near := v.tor.ID(6, 5) // distance 1 from transmitter
	far := v.tor.ID(3, 5)  // distance 4
	v.bad[near] = true
	v.bad[far] = true
	v.budget[near] = 1
	v.budget[far] = 1
	if got := pickJammer(v.view(), victim, from, nil); got != near {
		t.Fatalf("pickJammer = %d, want %d", got, near)
	}
	// Excluding the near one falls back to the far one.
	if got := pickJammer(v.view(), victim, from, []grid.NodeID{near}); got != far {
		t.Fatalf("pickJammer with exclude = %d, want %d", got, far)
	}
	// No budget anywhere: none.
	v.budget[near] = 0
	v.budget[far] = 0
	if got := pickJammer(v.view(), victim, from, nil); got != grid.None {
		t.Fatalf("pickJammer broke = %d, want None", got)
	}
}

func TestSpammerSpendsEveryBadNode(t *testing.T) {
	v := newFakeView(t)
	b1 := v.tor.ID(2, 2)
	b2 := v.tor.ID(10, 10)
	v.bad[b1] = true
	v.bad[b2] = true
	v.budget[b1] = 1
	v.budget[b2] = 3
	s := NewSpammer()
	jams := s.Jams(v.view(), 0, nil)
	if len(jams) != 2 {
		t.Fatalf("jams = %v, want 2", jams)
	}
	for _, j := range jams {
		if !j.Jam || j.Value != radio.ValueFalse {
			t.Fatalf("jam = %+v", j)
		}
	}
	// Exhausted nodes drop out.
	v.budget[b1] = 0
	if jams := s.Jams(v.view(), 1, nil); len(jams) != 1 || jams[0].From != b2 {
		t.Fatalf("jams after exhaustion = %v", jams)
	}
}

func TestStrategyNames(t *testing.T) {
	if (Idle{}).Name() != "idle" {
		t.Error("Idle name")
	}
	if NewCorruptor().Name() != "corruptor" {
		t.Error("Corruptor name")
	}
	if NewTargeted(nil).Name() != "targeted" {
		t.Error("Targeted name")
	}
	if NewSpammer().Name() != "spammer" {
		t.Error("Spammer name")
	}
}

// TestDeliveryDrivenReadsFrontierOnly pins the DeliveryDriven contract
// the fast engine's frontier slots rest on: a slot's jams are the same
// whether the strategy is handed every tentative delivery or only those
// to undecided good receivers — with the supply and correct counts of
// every other node poisoned on the second call, since View.Supply and
// View.Correct are defined for undecided nodes only.
func TestDeliveryDrivenReadsFrontierOnly(t *testing.T) {
	strategies := map[string]func(victims []bool) Strategy{
		"corruptor":      func([]bool) Strategy { return NewCorruptor() },
		"corruptor/drop": func([]bool) Strategy { return &Corruptor{Drop: true} },
		"targeted":       func(v []bool) Strategy { return NewTargeted(v) },
		"idle":           func([]bool) Strategy { return Idle{} },
	}
	jammed := 0
	for seed := uint64(1); seed <= 40; seed++ {
		rng := stats.NewRNG(seed)
		v := newFakeView(t)
		n := v.tor.Size()
		victims := make([]bool, n)
		for i := 0; i < n; i++ {
			id := grid.NodeID(i)
			switch {
			case rng.Intn(12) == 0:
				v.bad[id] = true
				v.budget[id] = rng.Intn(4)
			case rng.Intn(2) == 0:
				v.decided[id] = true
			default:
				v.correct[id] = rng.Intn(v.threshold)
				v.supply[id] = rng.Intn(8)
				victims[i] = rng.Intn(3) == 0
			}
		}
		// Two transmitters far enough apart to share no receiver; the
		// full list holds every neighbor of each, ascending by receiver.
		var full, frontier []radio.Delivery
		for _, from := range []grid.NodeID{v.tor.ID(3, 3), v.tor.ID(10, 10)} {
			for _, to := range v.tor.AppendNeighbors(nil, from) {
				full = append(full, radio.Delivery{To: to, Value: radio.ValueTrue, From: from})
			}
		}
		sort.Slice(full, func(i, j int) bool { return full[i].To < full[j].To })
		for _, d := range full {
			if !v.bad[d.To] && !v.decided[d.To] {
				frontier = append(frontier, d)
			}
		}
		for name, mk := range strategies {
			want := append([]radio.Tx(nil), mk(victims).Jams(v.view(), 0, full)...)
			// Poison both ways round: a frontier engine's Correct count of a
			// decided node stops at its decision (too low), a full one's
			// keeps growing (too high), and neither may matter.
			for _, poison := range [][2]int{{1 << 20, -1 << 20}, {-1 << 20, 1 << 20}} {
				poisoned := *v
				poisoned.correct = map[grid.NodeID]int{}
				poisoned.supply = map[grid.NodeID]int{}
				for i := 0; i < n; i++ {
					id := grid.NodeID(i)
					if v.bad[id] || v.decided[id] {
						poisoned.correct[id], poisoned.supply[id] = poison[0], poison[1]
					} else {
						poisoned.correct[id], poisoned.supply[id] = v.correct[id], v.supply[id]
					}
				}
				got := mk(victims).Jams(poisoned.view(), 0, frontier)
				if !reflect.DeepEqual(append([]radio.Tx(nil), got...), want) {
					t.Fatalf("seed %d %s: jams on the frontier %v, on the full list %v", seed, name, got, want)
				}
			}
			jammed += len(want)
		}
	}
	if jammed == 0 {
		t.Fatal("no strategy jammed in any scenario; the comparison is vacuous")
	}
}
