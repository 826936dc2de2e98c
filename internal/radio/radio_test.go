package radio

import (
	"math"
	"slices"
	"testing"

	"bftbcast/internal/grid"
	"bftbcast/internal/stats"
	"bftbcast/internal/topo"
)

func collect(t *testing.T, m *Medium, txs []Tx) map[grid.NodeID]Delivery {
	t.Helper()
	ds, err := m.ResolveAppend(txs, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := map[grid.NodeID]Delivery{}
	for _, d := range ds {
		if _, dup := got[d.To]; dup {
			t.Fatalf("double delivery to %d", d.To)
		}
		got[d.To] = d
	}
	return got
}

// newMedium returns a Medium over t's freshly flattened adjacency.
func newMedium(t topo.Topology) *Medium {
	return NewMediumShared(NewAdjacency(t))
}

func TestSingleTransmissionReachesWholeNeighborhood(t *testing.T) {
	tor := grid.MustNew(10, 10, 2)
	m := newMedium(tor)
	src := tor.ID(5, 5)
	got := collect(t, m, []Tx{{From: src, Value: ValueTrue}})
	if len(got) != tor.MaxDegree() {
		t.Fatalf("delivered to %d nodes, want %d", len(got), tor.MaxDegree())
	}
	for to, d := range got {
		if d.Value != ValueTrue || d.Collided {
			t.Fatalf("delivery %+v wrong", d)
		}
		if tor.Dist(src, to) > 2 {
			t.Fatalf("out-of-range delivery to %d", to)
		}
	}
	if _, selfHeard := got[src]; selfHeard {
		t.Fatal("transmitter received its own message")
	}
}

func TestDisjointTransmittersDoNotCollide(t *testing.T) {
	tor := grid.MustNew(20, 20, 2)
	m := newMedium(tor)
	a, b := tor.ID(2, 2), tor.ID(12, 12)
	got := collect(t, m, []Tx{{From: a, Value: ValueTrue}, {From: b, Value: ValueFalse}})
	if len(got) != 2*tor.MaxDegree() {
		t.Fatalf("delivered to %d nodes, want %d", len(got), 2*tor.MaxDegree())
	}
	if m.GoodGoodCollisions != 0 {
		t.Fatalf("unexpected good-good collisions: %d", m.GoodGoodCollisions)
	}
}

func TestGoodGoodCollisionSilencesAndCounts(t *testing.T) {
	tor := grid.MustNew(10, 10, 2)
	m := newMedium(tor)
	// Distance 2 apart: overlapping neighborhoods.
	a, b := tor.ID(4, 4), tor.ID(6, 4)
	got := collect(t, m, []Tx{{From: a, Value: ValueTrue}, {From: b, Value: ValueTrue}})
	// Common receivers (excluding the two transmitters themselves) hear
	// nothing; they are not delivered to and counted as anomalies.
	common := 0
	for i := 0; i < tor.Size(); i++ {
		id := grid.NodeID(i)
		if id == a || id == b {
			continue
		}
		if tor.Dist(a, id) <= 2 && tor.Dist(b, id) <= 2 {
			common++
			if _, ok := got[id]; ok {
				t.Fatalf("common receiver %d heard a message during good-good collision", id)
			}
		}
	}
	if common == 0 {
		t.Fatal("test setup broken: no common receivers")
	}
	if m.GoodGoodCollisions != common {
		t.Fatalf("GoodGoodCollisions = %d, want %d", m.GoodGoodCollisions, common)
	}
}

func TestJamCorruptsAtCommonReceivers(t *testing.T) {
	tor := grid.MustNew(12, 12, 2)
	m := newMedium(tor)
	good := tor.ID(5, 5)
	bad := tor.ID(8, 5) // distance 3 <= 2r: overlapping receiver sets
	got := collect(t, m, []Tx{
		{From: good, Value: ValueTrue},
		{From: bad, Value: ValueFalse, Jam: true},
	})
	for i := 0; i < tor.Size(); i++ {
		id := grid.NodeID(i)
		if id == good || id == bad {
			continue
		}
		inGood := tor.Dist(good, id) <= 2
		inBad := tor.Dist(bad, id) <= 2
		d, heard := got[id]
		switch {
		case inGood && inBad:
			if !heard || d.Value != ValueFalse || !d.Collided {
				t.Fatalf("common receiver %d: %+v, want corrupted ValueFalse", id, d)
			}
		case inGood:
			if !heard || d.Value != ValueTrue || d.Collided {
				t.Fatalf("good-only receiver %d: %+v, want clean ValueTrue", id, d)
			}
		case inBad:
			if !heard || d.Value != ValueFalse {
				t.Fatalf("bad-only receiver %d: %+v, want injected ValueFalse", id, d)
			}
		default:
			if heard {
				t.Fatalf("out-of-range receiver %d heard %+v", id, d)
			}
		}
	}
}

func TestJamDropSilences(t *testing.T) {
	tor := grid.MustNew(12, 12, 2)
	m := newMedium(tor)
	good := tor.ID(5, 5)
	bad := tor.ID(7, 5)
	got := collect(t, m, []Tx{
		{From: good, Value: ValueTrue},
		{From: bad, Jam: true, Drop: true},
	})
	for id, d := range got {
		if tor.Dist(bad, id) <= 2 {
			t.Fatalf("receiver %d within jam range heard %+v, want silence", id, d)
		}
	}
	// Receivers only in range of the good transmitter still hear it.
	onlyGood := tor.ID(3, 5)
	if d, ok := got[onlyGood]; !ok || d.Value != ValueTrue {
		t.Fatalf("receiver outside jam range: %+v", d)
	}
}

func TestFirstJamWins(t *testing.T) {
	tor := grid.MustNew(12, 12, 2)
	m := newMedium(tor)
	got := collect(t, m, []Tx{
		{From: tor.ID(5, 5), Value: Value(7), Jam: true},
		{From: tor.ID(6, 5), Value: Value(9), Jam: true},
	})
	// Receivers in range of both must hear the first jam's value.
	both := tor.ID(5, 6)
	if d, ok := got[both]; !ok || d.Value != 7 {
		t.Fatalf("receiver hearing two jams got %+v, want value 7", d)
	}
}

func TestHalfDuplexTransmitterCannotReceive(t *testing.T) {
	tor := grid.MustNew(12, 12, 2)
	m := newMedium(tor)
	a := tor.ID(5, 5)
	b := tor.ID(6, 5) // neighbor of a, also transmitting
	got := collect(t, m, []Tx{
		{From: a, Value: ValueTrue},
		{From: b, Value: ValueFalse, Jam: true},
	})
	if _, ok := got[a]; ok {
		t.Fatal("transmitting node a received")
	}
	if _, ok := got[b]; ok {
		t.Fatal("transmitting node b received")
	}
}

func TestResolveRejectsValueNone(t *testing.T) {
	tor := grid.MustNew(10, 10, 2)
	m := newMedium(tor)
	if _, err := m.ResolveAppend([]Tx{{From: 0, Value: ValueNone}}, nil); err == nil {
		t.Fatal("ValueNone transmission should be rejected")
	}
}

func TestDeterministicDeliveryOrder(t *testing.T) {
	tor := grid.MustNew(10, 10, 2)
	txs := []Tx{
		{From: tor.ID(3, 3), Value: ValueTrue},
		{From: tor.ID(8, 8), Value: ValueFalse},
	}
	var orders [2][]grid.NodeID
	for trial := 0; trial < 2; trial++ {
		ds, err := newMedium(tor).ResolveAppend(txs, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range ds {
			orders[trial] = append(orders[trial], d.To)
		}
	}
	if len(orders[0]) != len(orders[1]) {
		t.Fatalf("different delivery counts: %d vs %d", len(orders[0]), len(orders[1]))
	}
	for i := range orders[0] {
		if orders[0][i] != orders[1][i] {
			t.Fatalf("nondeterministic order at %d", i)
		}
		if i > 0 && orders[0][i] <= orders[0][i-1] {
			t.Fatalf("order not ascending at %d", i)
		}
	}
}

func TestMediumReusableAcrossSlots(t *testing.T) {
	tor := grid.MustNew(10, 10, 2)
	m := newMedium(tor)
	for slot := 0; slot < 100; slot++ {
		got := collect(t, m, []Tx{{From: tor.ID(slot%10, 0), Value: ValueTrue}})
		if len(got) != tor.MaxDegree() {
			t.Fatalf("slot %d: %d deliveries", slot, len(got))
		}
	}
}

// TestMediumRandomizedOracle drives one Medium through a long run of
// consecutive slots with colliding good transmissions and jams, with and
// without Drop, and holds every slot to a brute-force per-receiver rule.
// Colour-class slots (good transmitters whose receiver sets are pairwise
// disjoint and hold no transmitter) also hold ResolveDisjoint to
// ResolveAppend minus the skipped receivers. Every slot runs on the
// scratch the previous slot left behind, so a first-touch reset that
// goes missing shows as a stale count, jam or value.
func TestMediumRandomizedOracle(t *testing.T) {
	rgg, err := topo.NewConnectedRGG(5000, 11) // past 4096 nodes: two summary words
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range []topo.Topology{grid.MustNew(30, 30, 2), rgg} {
		t.Run(tp.String(), func(t *testing.T) { mediumOracle(t, tp) })
	}
}

func mediumOracle(t *testing.T, tp topo.Topology) {
	const slots = 600
	n := tp.Size()
	nbrs := make([][]grid.NodeID, n) // ascending, from the topology itself
	for i := range nbrs {
		nbrs[i] = tp.AppendNeighbors(nil, grid.NodeID(i))
		slices.Sort(nbrs[i])
	}
	hears := func(to, from grid.NodeID) bool {
		_, ok := slices.BinarySearch(nbrs[from], to)
		return ok
	}
	m := newMedium(tp)
	rng := stats.NewRNG(uint64(n))
	var goodGood, jammed, dropped, disjointSlots int
	for slot := 0; slot < slots; slot++ {
		colour := rng.Intn(3) == 0
		var txs []Tx
		if colour {
			txs = colourClass(rng, nbrs, 1+rng.Intn(20))
		} else {
			txs = randomSlot(rng, nbrs, 1+rng.Intn(20))
		}

		// The brute-force rule, receiver by receiver in id order.
		var want []Delivery
		wantGG := 0
		for u := grid.NodeID(0); int(u) < n; u++ {
			if slices.ContainsFunc(txs, func(tx Tx) bool { return tx.From == u }) {
				continue // half-duplex
			}
			jam := slices.IndexFunc(txs, func(tx Tx) bool { return tx.Jam && hears(u, tx.From) })
			if jam >= 0 { // the first jam heard wins
				if tx := txs[jam]; !tx.Drop {
					want = append(want, Delivery{To: u, Value: tx.Value, From: tx.From, Collided: true})
				}
				continue
			}
			heard := -1
			nGood := 0
			for i, tx := range txs {
				if hears(u, tx.From) {
					heard = i
					nGood++
				}
			}
			switch {
			case nGood == 1:
				want = append(want, Delivery{To: u, Value: txs[heard].Value, From: txs[heard].From})
			case nGood >= 2:
				wantGG++
			}
		}

		before := m.GoodGoodCollisions
		got, err := m.ResolveAppend(txs, nil)
		if err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("slot %d (%d txs): ResolveAppend differs from the per-receiver rule\ngot  %v\nwant %v", slot, len(txs), got, want)
		}
		if d := m.GoodGoodCollisions - before; d != wantGG {
			t.Fatalf("slot %d: GoodGoodCollisions grew by %d, want %d", slot, d, wantGG)
		}
		goodGood += wantGG
		for _, d := range want {
			if d.Collided {
				jammed++
			}
		}
		for _, tx := range txs {
			if tx.Jam && tx.Drop {
				dropped++
			}
		}

		if !colour {
			continue
		}
		disjointSlots++
		skip := make([]bool, n)
		for i := range skip {
			skip[i] = rng.Intn(4) == 0
		}
		wantDisjoint := slices.DeleteFunc(slices.Clone(got), func(d Delivery) bool { return skip[d.To] })
		gotDisjoint, err := m.ResolveDisjoint(txs, skip, nil)
		if err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
		if !slices.Equal(gotDisjoint, wantDisjoint) {
			t.Fatalf("slot %d (%d txs): ResolveDisjoint differs from ResolveAppend minus skipped\ngot  %v\nwant %v", slot, len(txs), gotDisjoint, wantDisjoint)
		}
	}
	// The run must have exercised every rule it checks.
	if goodGood == 0 || jammed == 0 || dropped == 0 || disjointSlots == 0 {
		t.Fatalf("vacuous run: %d good-good collisions, %d jammed deliveries, %d dropping jams, %d colour-class slots",
			goodGood, jammed, dropped, disjointSlots)
	}
}

// randomSlot draws k transmissions from distinct nodes. Half of them sit
// two hops from an earlier transmitter, so good-good collisions and
// overlapping jams are common; a quarter are jams, half of those Drop
// (some with ValueNone, which a dropping jam may carry).
func randomSlot(rng *stats.RNG, nbrs [][]grid.NodeID, k int) []Tx {
	var txs []Tx
	for len(txs) < k {
		from := grid.NodeID(rng.Intn(len(nbrs)))
		if len(txs) > 0 && rng.Bool() {
			from = txs[rng.Intn(len(txs))].From
			for hop := 0; hop < 2 && len(nbrs[from]) > 0; hop++ {
				from = nbrs[from][rng.Intn(len(nbrs[from]))]
			}
		}
		if slices.ContainsFunc(txs, func(tx Tx) bool { return tx.From == from }) {
			continue
		}
		tx := Tx{From: from, Value: Value(1 + rng.Intn(3))}
		if rng.Intn(4) == 0 {
			tx.Jam = true
			tx.Drop = rng.Bool()
			if tx.Drop && rng.Bool() {
				tx.Value = ValueNone
			}
		}
		txs = append(txs, tx)
	}
	return txs
}

// colourClass draws up to k good transmissions whose receiver sets are
// pairwise disjoint and hold no transmitter: the premise of
// ResolveDisjoint, which one TDMA colour class meets.
func colourClass(rng *stats.RNG, nbrs [][]grid.NodeID, k int) []Tx {
	covered := map[grid.NodeID]bool{}
	var txs []Tx
	for try := 0; try < 20*k && len(txs) < k; try++ {
		from := grid.NodeID(rng.Intn(len(nbrs)))
		if covered[from] || slices.ContainsFunc(nbrs[from], func(to grid.NodeID) bool { return covered[to] }) {
			continue
		}
		for _, to := range nbrs[from] {
			covered[to] = true
		}
		txs = append(txs, Tx{From: from, Value: Value(1 + rng.Intn(3))})
	}
	return txs
}

func TestBudgetSpend(t *testing.T) {
	b := NewBudget(2)
	for i := 0; i < 2; i++ {
		if !b.TrySpend() {
			t.Fatalf("spend %d refused", i)
		}
		if b.Left() != 1-i {
			t.Fatalf("after spend %d: Left = %d", i, b.Left())
		}
	}
	if b.TrySpend() {
		t.Fatal("spent past the limit")
	}
	if b.Left() != 0 {
		t.Fatalf("Left = %d after a refused spend", b.Left())
	}
}

func TestBudgetUnlimited(t *testing.T) {
	b := Unlimited()
	for i := 0; i < 10000; i++ {
		if !b.TrySpend() {
			t.Fatal("unlimited budget exhausted")
		}
	}
	if b.Left() >= 0 {
		t.Fatalf("Left = %d, want negative", b.Left())
	}
}

// TestBudgetSaturates pins the 32-bit counts: a limit past MaxInt32
// saturates instead of wrapping, and a negative one of any size is
// unlimited.
func TestBudgetSaturates(t *testing.T) {
	b := NewBudget(math.MaxInt32 + 5)
	if !b.TrySpend() || b.Left() != math.MaxInt32-1 {
		t.Fatalf("Left = %d after one spend of a saturated budget", b.Left())
	}
	if b := NewBudget(math.MinInt32 - 5); !b.TrySpend() || b.Left() >= 0 {
		t.Fatalf("a limit below MinInt32 is not unlimited: Left = %d", b.Left())
	}
}

func TestBudgetZeroValue(t *testing.T) {
	var b Budget
	if b.TrySpend() {
		t.Fatal("zero-value budget should be empty")
	}
}
