package adversary

import (
	"slices"

	"bftbcast/internal/grid"
	"bftbcast/internal/radio"
	"bftbcast/internal/topo"
)

// View is the adversary's (omniscient, worst-case) read access to the
// simulation state: the engine fills one per run and hands it to Jams by
// pointer. Every slice is indexed by NodeID and is the engine's own
// storage — shared, live between slots, and read-only to strategies.
type View struct {
	// Topo is the network topology.
	Topo topo.Topology
	// Adj is the engine's flattened neighbor lists (the compiled plan's
	// CSR), so strategies walk neighborhoods without per-node coordinate
	// arithmetic.
	Adj *radio.Adjacency
	// Bad marks the adversary-controlled nodes.
	Bad []bool
	// Decided marks the nodes that have accepted a value.
	Decided []bool
	// Correct counts the copies of Vtrue each node has received. Like
	// Supply it is defined for undecided nodes only: what a node banked
	// matters until it crosses the threshold, and engines may stop
	// counting a node's receipts here once it has decided (their results
	// count them by other means), so the entry of a decided node is
	// unspecified.
	Correct []int32
	// Supply is the number of future Vtrue deliveries each node would
	// receive if the adversary stays idle: the pending send counts of its
	// decided good neighbors (including the source). It is defined for
	// undecided nodes only — supply is what could still lift a node to
	// the threshold, and engines stop maintaining it once a node has
	// decided — so the entry of a decided node is unspecified.
	Supply []int32
	// Budget holds the message budgets of the bad nodes (Left is what a
	// jammer can still spend); the entries of good nodes are zero.
	Budget []radio.Budget
	// Reach is, for each node, the budget its bad neighbors have left:
	// the sum of Budget[b].Left() over the bad b in its row, so Reach[u]
	// > 0 exactly when some jammer can still deny u a delivery. Budgets
	// never go negative (mf >= 0), so the engine keeps it exact by
	// seeding it from the bad rows and debiting the jammer's row at
	// every jam it spends.
	Reach []int32
	// Threshold is the protocol's acceptance threshold t·mf+1.
	Threshold int
	// Scratch is the engine's working memory lent to the run's strategy
	// (see Scratch): every engine lends one (sim.Frame.View), and a
	// built-in strategy keeps its per-slot state there and none of its
	// own.
	Scratch *Scratch
}

// Strategy decides the adversarial transmissions of each slot. Jams is
// called once per slot with the tentative deliveries that the good
// transmissions would produce unopposed; the returned transmissions are
// merged into the slot and re-resolved, so a jam within range of a
// tentative receiver replaces (or silences) that receiver's delivery.
//
// Each returned Tx must originate at a distinct bad node with remaining
// budget; the engine deducts one budget unit per jam and rejects invalid
// ones (counting them in the run result, where tests assert zero).
//
// A built-in strategy keeps no state: it holds only its configuration,
// reads the run from the View and keeps its per-slot memory in the lent
// Scratch, so one value may drive any number of runs, concurrent ones
// included.
type Strategy interface {
	// Name identifies the strategy in reports.
	Name() string
	// Jams picks this slot's adversarial transmissions.
	Jams(v *View, slot int, tentative []radio.Delivery) []radio.Tx
}

// DeliveryDriven is an optional Strategy refinement: a strategy whose
// DeliveryDriven method returns true promises that Jams depends only on
// the tentative deliveries addressed to undecided good receivers — the
// only deliveries that can still change a node's state — and on View
// state about those receivers and the bad nodes. Removing every delivery
// to a bad or already-decided receiver from the tentative list must not
// change the jams returned, and an empty list must return nil.
//
// The fast simulation engine leans on both halves: it skips idle slots
// wholesale (the slot counter still advances, so results are unchanged),
// and on threshold runs it materialises only that subset of each slot's
// deliveries for the strategy to see. Idle, Corruptor and Targeted keep
// the promise; strategies that jam spontaneously (e.g. Spammer) must not
// implement the interface, or must return false.
type DeliveryDriven interface {
	// DeliveryDriven reports whether Jams is a function of the deliveries
	// to undecided good receivers alone (nil when there are none).
	DeliveryDriven() bool
}

// Idle is the strategy that never transmits (placement-only runs).
type Idle struct{}

// Name implements Strategy.
func (Idle) Name() string { return "idle" }

// Jams implements Strategy.
func (Idle) Jams(*View, int, []radio.Delivery) []radio.Tx { return nil }

// DeliveryDriven implements DeliveryDriven: Idle never transmits at all.
func (Idle) DeliveryDriven() bool { return true }

// corruptorCore is the shared denial engine behind Corruptor and
// Targeted. It implements the paper's accounting: a bad node collides
// with a concurrent good transmission to deny a Vtrue copy to an
// undecided victim.
//
// Two rules decide when to spend budget:
//
//   - must-deny: the delivery would lift the victim to the acceptance
//     threshold. These can never be skipped.
//   - shared-deny: two or more victims that are still "needy" (banked
//     copies plus outstanding supply reach the threshold) hear the SAME
//     transmission, and one jam denies it to all of them. A jam that
//     serves k victims at once reduces the adversary's total future
//     obligation by k for the price of one message, which is exactly the
//     sharing the Theorem 1 / Figure 2 constructions rely on (e.g. the
//     mirror victims p=(r+1,1) and p'=(1,r+1) of Figure 2 live off one
//     bad node's budget and share their square-region suppliers).
//     Requiring a common transmitter — not merely a common slot — keeps
//     the strategy from burning budget on coincidental pairings whose
//     need resolves itself once the genuinely shared traffic is denied.
//
// Lone-needy deliveries are allowed through: each banked copy below
// threshold−1 is one fewer future must-denial, so deferring is never
// worse and usually cheaper.
type corruptorCore struct {
	wrongValue radio.Value
	drop       bool
	// targeted limits denial candidates (already known undecided+good) to
	// the nodes victims marks; an untargeted core admits every one.
	targeted bool
	victims  []bool
	// checkFeasible gates spending on the remaining nearby adversary
	// budget being able to finish the job; the proof constructions
	// guarantee feasibility and disable the check.
	checkFeasible bool
}

type denyEntry struct {
	u      grid.NodeID
	from   grid.NodeID
	jammer grid.NodeID
	must   bool
	shared bool // two or more needy victims share (jammer, from)
}

func (c corruptorCore) jams(v *View, tentative []radio.Delivery) []radio.Tx {
	if len(tentative) == 0 {
		return nil
	}
	s := &v.Scratch.deny
	threshold := v.Threshold

	// Pass 1: collect candidate denials with their preferred jammer. The
	// per-delivery state reads are pure array indexing; the expensive
	// jammer choice only runs for the survivors.
	s.entries = s.entries[:0]
	for _, d := range tentative {
		if d.Value != radio.ValueTrue {
			continue
		}
		u := d.To
		if v.Bad[u] || v.Decided[u] {
			continue
		}
		if c.targeted && (int(u) >= len(c.victims) || !c.victims[u]) {
			continue
		}
		if v.Reach[u] <= 0 {
			continue // no bad neighbor with budget left: nobody could deny u
		}
		banked, sup := int(v.Correct[u]), int(v.Supply[u])
		must := banked+1 >= threshold
		needy := banked+1+sup >= threshold
		if !must && !needy {
			continue
		}
		if c.checkFeasible && sup+1 > int(v.Reach[u]) {
			continue // blocking u is hopeless; do not waste budget
		}
		jammer := pickJammer(v, u, d.From) // exists: Reach[u] > 0
		s.entries = append(s.entries, denyEntry{u: u, from: d.From, jammer: jammer, must: must})
	}
	if len(s.entries) == 0 {
		return nil
	}

	// Pass 2: mark, per (jammer, transmitter), whether two or more needy
	// victims would be denied at once; only true same-transmission
	// sharing justifies a preemptive jam. The entry list is tiny (a few
	// victims per slot), so a quadratic scan beats allocating a map.
	entries := s.entries
	for i := range entries {
		if entries[i].shared {
			continue
		}
		for j := i + 1; j < len(entries); j++ {
			if entries[i].jammer == entries[j].jammer && entries[i].from == entries[j].from {
				entries[i].shared = true
				entries[j].shared = true
			}
		}
	}

	// Pass 3: emit jams. A jam is worth its budget when it is a
	// must-denial or when it serves two or more needy victims. An entry's
	// jammer has budget (pass 1 picked it so, and nothing is spent until
	// the engine validates the jams) and is u's neighbor, so once it has
	// jammed this slot u is in its range: every jam has its own jammer.
	wrong := c.wrongValue
	if wrong == radio.ValueNone {
		wrong = radio.ValueFalse
	}
	jams := s.jamBuf[:0]
	for _, e := range entries {
		if inJamRange(v.Adj, jams, e.u) {
			continue // already denied by a jam chosen this slot
		}
		if !e.must && !e.shared {
			continue // lone needy victim: defer to its crossing slot
		}
		jams = append(jams, radio.Tx{From: e.jammer, Value: wrong, Jam: true, Drop: c.drop})
	}
	s.jamBuf = jams
	return jams
}

// inJamRange reports whether one of jams reaches u: a jam corrupts its
// jammer's whole range. A slot holds a few jams, and each jammer's row is
// searched in its ascending copy. u is good, so it is never a jammer.
func inJamRange(adj *radio.Adjacency, jams []radio.Tx, u grid.NodeID) bool {
	for _, j := range jams {
		if _, ok := slices.BinarySearch(adj.SortedNeighbors(j.From), u); ok {
			return true
		}
	}
	return false
}

// pickJammer returns the bad neighbor of u with remaining budget that is
// closest to the transmitter (ties broken by id), or grid.None when there
// is none. Proximity to the transmitter maximizes how many of the
// transmission's other receivers the jam also covers. It walks u's row,
// but only for a victim that passed every gate; the (distance, id)
// minimum does not depend on the walk order.
func pickJammer(v *View, u, from grid.NodeID) grid.NodeID {
	jammer := grid.None
	best := int(^uint(0) >> 1)
	for _, nb := range v.Adj.Neighbors(u) {
		if !v.Bad[nb] || v.Budget[nb].Left() <= 0 {
			continue
		}
		dist := v.Topo.Dist(nb, from)
		if dist < best || (dist == best && nb < jammer) {
			best = dist
			jammer = nb
		}
	}
	return jammer
}

// Corruptor is the general-purpose greedy denial strategy: any undecided
// good node is a potential victim, and spending is gated on feasibility
// with respect to the adversary budget currently near the victim.
type Corruptor struct {
	// WrongValue is delivered at corrupted receivers (ValueFalse when
	// zero). When Drop is set, corrupted receivers hear nothing instead.
	WrongValue radio.Value
	Drop       bool
}

// NewCorruptor returns a general greedy Corruptor.
func NewCorruptor() *Corruptor { return &Corruptor{} }

// Name implements Strategy.
func (c *Corruptor) Name() string { return "corruptor" }

// DeliveryDriven implements DeliveryDriven: the corruptor only ever
// collides with concurrent good transmissions, so empty slots are silent.
func (c *Corruptor) DeliveryDriven() bool { return true }

// Jams implements Strategy.
func (c *Corruptor) Jams(v *View, _ int, tentative []radio.Delivery) []radio.Tx {
	return corruptorCore{wrongValue: c.WrongValue, drop: c.Drop, checkFeasible: true}.jams(v, tentative)
}

// Targeted is the construction adversary used by the Theorem 1 and
// Figure 2 reproductions: it denies deliveries only to a designated
// victim set (the nodes the construction proves blockable) and never
// wastes budget elsewhere. Feasibility within the victim set is
// guaranteed by the construction, so no budget gate is applied beyond the
// per-node budgets themselves.
type Targeted struct {
	// Victims marks the nodes to keep undecided, indexed by NodeID.
	Victims []bool
	// WrongValue / Drop as in Corruptor.
	WrongValue radio.Value
	Drop       bool
}

// NewTargeted returns a Targeted corruptor for the given victim mask.
func NewTargeted(victims []bool) *Targeted { return &Targeted{Victims: victims} }

// Name implements Strategy.
func (t *Targeted) Name() string { return "targeted" }

// DeliveryDriven implements DeliveryDriven: Targeted only denies
// tentative deliveries, so empty slots are silent.
func (t *Targeted) DeliveryDriven() bool { return true }

// Jams implements Strategy.
func (t *Targeted) Jams(v *View, _ int, tentative []radio.Delivery) []radio.Tx {
	return corruptorCore{wrongValue: t.WrongValue, drop: t.Drop, targeted: true, victims: t.Victims}.jams(v, tentative)
}

// Spammer makes every bad node inject a wrong value in every slot until
// its budget runs out, regardless of tactics. It cannot defeat a
// correctly parameterized protocol (Lemma 1) and exists to stress the
// correctness property: no good node must ever accept a wrong value.
type Spammer struct {
	// WrongValue is the injected value (ValueFalse when zero).
	WrongValue radio.Value
}

// NewSpammer returns a Spammer.
func NewSpammer() *Spammer { return &Spammer{} }

// Name implements Strategy.
func (s *Spammer) Name() string { return "spammer" }

// Jams implements Strategy.
// It walks the bad mask every slot, since it keeps no bad list of its
// own; the spammer is a correctness stress, not a hot path.
func (s *Spammer) Jams(v *View, _ int, _ []radio.Delivery) []radio.Tx {
	wrong := s.WrongValue
	if wrong == radio.ValueNone {
		wrong = radio.ValueFalse
	}
	ds := &v.Scratch.deny
	jams := ds.jamBuf[:0]
	for i, bad := range v.Bad {
		if bad && v.Budget[i].Left() > 0 {
			jams = append(jams, radio.Tx{From: grid.NodeID(i), Value: wrong, Jam: true})
		}
	}
	ds.jamBuf = jams
	return jams
}
