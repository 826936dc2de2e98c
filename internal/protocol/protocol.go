// Package protocol is the single home of the paper's node-level
// acceptance logic: a pluggable protocol state-machine layer between the
// execution engines (internal/sim, internal/sim/ref) and the protocols
// they run.
//
// The paper has two acceptance rules, and each has one owner here:
// protocol B, Bheter and the Koo baseline count copies against the
// t·mf+1 threshold (package core builds their Specs; ThresholdInstance
// runs them), while certified propagation (Bhandari–Vaidya, the layer
// protocol Breactive runs on) counts t+1 distinct relayers inside one
// radio ball (Acceptance, which the Reactive machine runs). The engines
// drive both through the Machine/Instance seam, so every
// engine×protocol×topology×adversary combination runs on the same engine
// stack and can be cross-checked by the differential oracles.
//
// # Seam contract
//
// A Machine is a reusable protocol description; Attach binds it to a
// compiled topology plan and one run's environment, yielding an
// Instance. The engine then:
//
//   - reads the Instance's flat per-node arrays (State) directly on its
//     hot paths — transmission values, decided masks, receipt counters —
//     so no interface call happens per node or per delivery;
//   - hands each slot's final radio deliveries to Deliver as ONE batch;
//     the instance applies them in order, firing the engine's Hooks at
//     exactly the per-event points the pre-seam engines did (a Deliver
//     event, then possibly the receiver's Decide event, then the next
//     Deliver), and appends the transmissions to schedule to a
//     caller-owned buffer — so the per-delivery work stays inside one
//     concrete method and the interface cost is one call per slot;
//   - calls Tick right after each non-empty batch — a per-slot
//     epilogue whose slot stream is identical on every engine;
//   - owns transmission mechanics: pending queues, TDMA emission,
//     per-node message budgets (clamping scheduled sends against
//     GoodBudget), and the radio medium. The instance owns acceptance
//     state and nothing else.
//
// An instance may also publish a settled mask (State.Settled). A settled
// receiver is a decided good node that no further delivery of a jam-free
// slot can change beyond what the instance books by itself: for the
// threshold instance every decided node, for the reactive machine a
// decided node with no armed bad neighbour, so that no NACK can still be
// owed. A node settles only inside Bootstrap or Deliver, and the call
// that settles it returns a Send for it (N may be 0): that Send is how the
// engine learns of the settlement, so the one walk over the node's row
// that credits its supply also takes it out of its neighbours' count of
// unsettled receivers. The fast engine then works on each jam-free slot's
// frontier: it calls Book with all of the slot's transmissions and hands
// Deliver only the deliveries to good receivers that were not settled
// when the slot began. Book records the rest — the threshold instance one
// ledger bump per transmission, the reactive machine the sender's round,
// replayed in Deliver in sender order whether or not the round reached a
// live receiver — and by Finish the State reads exactly as if every
// delivery had been made.
//
// An instance may instead flag that it books whole slots (State.BooksSlots,
// the Multi machine). On a run with no Strategy, no per-delivery hook
// (OnDeliver, OnInstanceDeliver) and a verified distance-2 colouring, every
// slot is jam-free and collision-free, so the fast engine builds no
// delivery at all: it hands the slot's transmissions to Book, which walks
// each sender's row itself and leaves its acceptances pending, and then
// calls Deliver with no deliveries, which makes them in ascending
// (receiver, instance) order — the order a resolved batch would have
// produced — firing the Sends and hooks. Its receipts follow the frontier
// slots' contract: Book puts them on a per-sender ledger, and by Finish
// Correct and Wrong read exactly as if every delivery had been made
// (nothing reads them sooner on such a run, which has no Strategy). On
// any other run such an instance is handed every delivery, as an instance
// with neither flag always is.
//
// # Hot-path rules
//
// Instances must not allocate per delivery in steady state: per-node
// state lives in flat arrays sized once at Attach (or reused across runs
// via rebinding, see ThresholdInstance.Bind), scratch buffers are
// instance fields, and the Send buffer is caller-owned and reused.
// Engines must treat State slices as read-only and never retain them
// past the instance's run.
package protocol

import (
	"bftbcast/internal/core"
	"bftbcast/internal/grid"
	"bftbcast/internal/plan"
	"bftbcast/internal/radio"
)

// MaxTrackedValue bounds the distinct broadcast values the copies rule
// (ThresholdInstance) tracks per node. The protocols use ValueTrue and
// adversaries typically a single wrong value; a handful of extra slots
// accommodates multi-value attacks. internal/sim/ref keeps its own copy of
// the constant beside its own copy of the copies rule (ref's
// threshold.go, the one acceptance this package does not supply); the two
// must stay equal for bit-identical results.
const MaxTrackedValue = 7

// Env is one run's environment, handed to Machine.Attach by the engine.
type Env struct {
	// Plan is the compiled topology plan (shared, read-only).
	Plan *plan.Plan
	// Params is the fault model (r, t, mf).
	Params core.Params
	// Source is the base station; instances pre-decide it on ValueTrue.
	Source grid.NodeID
	// Bad is the resolved adversary placement (read-only; nil means
	// fault-free). Instances skip bad receivers: adversary nodes do not
	// run the protocol.
	Bad []bool
	// Seed drives any machine-level randomness (the reactive machine's
	// coding patterns). Machines without randomness ignore it.
	Seed uint64
}

// bad reports whether id is adversarial (nil-safe).
func (e *Env) bad(id grid.NodeID) bool { return e.Bad != nil && e.Bad[id] }

// Send instructs the engine to schedule n more transmissions at node id,
// carrying the node's current State.Value. The engine clamps n against
// the node's remaining message budget.
type Send struct {
	ID grid.NodeID
	N  int
}

// Hooks is the one set of observer callbacks of a run: sim.Config carries
// it from the caller to the engine, which fires OnSlotStart and its own
// transmissions' OnSend, and hands it to the instance with every Deliver
// batch. The instance fires the rest per event, preserving the exact
// interleaving the engines produced before the seam (deliver → decide →
// deliver …). Any hook may be nil.
type Hooks struct {
	// OnSlotStart observes every slot the engine executes, before its
	// transmissions are emitted. The fast engine skips idle slots wholesale
	// when the strategy is delivery-driven; skipped slots produce no event
	// (the slot counter still advances past them).
	OnSlotStart func(slot int)
	// OnSend observes every transmission: the engine's protocol sends by
	// good nodes and validated adversarial jams (adversarial=true), and the
	// machine-internal adversarial transmissions an instance fires itself
	// (the reactive machine's payload attacks and NACK spam).
	OnSend func(slot int, from grid.NodeID, v radio.Value, adversarial bool)
	// OnDeliver observes the deliveries the machine surfaces: every raw
	// radio delivery for the copies-rule protocols (including deliveries
	// to bad nodes, which the protocol then ignores), every clean (or
	// undetectedly forged) payload delivery for the reactive machine.
	// Observing deliveries means materialising all of them: the fast
	// engine resolves every slot in full instead of its frontier.
	OnDeliver func(slot int, d radio.Delivery)
	// OnAccept observes every acceptance, at the delivery that caused it.
	OnAccept func(slot int, id grid.NodeID, v radio.Value)
	// OnInstanceDeliver observes each protocol-level entry a Multi run
	// applies at a good receiver: a batched entry of a good sender's
	// transmission, or a forged copy counted in every started instance.
	// It fires after the raw OnDeliver.
	OnInstanceDeliver func(slot, instance int, from, to grid.NodeID, v radio.Value)
	// OnInstanceDecide observes each per-instance acceptance of a Multi
	// run, right after the aggregate OnAccept.
	OnInstanceDecide func(slot, instance int, id grid.NodeID, v radio.Value)
}

// State is the flat per-node-array contract between an Instance and its
// engine: the engine indexes these slices directly on its hot paths
// (transmission values, supply tracking, adversary views, final report
// assembly) instead of calling through the interface. All slices have
// topology size, are owned by the instance, and are updated in place.
type State struct {
	// Decided marks nodes that accepted a value.
	Decided []bool
	// Value is the accepted value of decided nodes (the value the engine
	// transmits for them).
	Value []radio.Value
	// Correct counts the copies of ValueTrue each node received; Wrong
	// counts copies of other values. For the reactive machine these
	// count payload deliveries (one per sender round), not raw radio
	// copies.
	Correct []int32
	Wrong   []int32
	// Settled, when non-nil, is the instance's settled mask (see the
	// package comment): only decided good nodes are ever settled, a
	// settled node stays settled, and every settlement comes with a Send
	// for the node. It is nil for an instance that publishes no mask.
	Settled []bool
	// BooksSlots marks an instance that books whole slots (see the
	// package comment and Instance.Book). An instance sets at most one of
	// Settled and BooksSlots.
	BooksSlots bool
	// Record is the run record an instance publishes at Finish — a
	// *MultiStats, a *ReactiveStats — and nil before Finish or for an
	// instance that keeps none. It is the run's, not the machine's: the
	// caller that attached the instance reads it once the run is over
	// and owns it.
	Record any
}

// Machine is a reusable protocol description: the acceptance rule, the
// send schedule, and any transport semantics layered on top (the
// reactive machine's coding and NACK rounds). Machines are cheap
// descriptors; all run state lives in the Instance.
type Machine interface {
	// Attach validates the machine against the environment and returns a
	// run-ready Instance.
	Attach(env Env) (Instance, error)
}

// Instance is one run's protocol state, attached to a plan. Instances
// are single-goroutine; engines drive them from their coordinator loop.
type Instance interface {
	// State returns the flat per-node arrays. The pointer and its slices
	// are stable for the instance's lifetime.
	State() *State
	// Bootstrap appends the source's initial sends to buf: the protocol
	// run starts with these scheduled.
	Bootstrap(buf []Send) []Send
	// Deliver consumes one slot's final radio deliveries in order,
	// firing hooks per event, and appends the sends to schedule
	// (acceptance relays, retransmissions) to buf. It is the only source
	// of Sends and acceptance events: after a booked slot's Book (see
	// Book) ds is empty and Deliver makes the acceptances Book left
	// pending.
	Deliver(slot int, ds []radio.Delivery, hooks *Hooks, buf []Send) ([]Send, error)
	// Tick runs immediately after each Deliver call (same slot) and may
	// append further sends to buf — a per-slot epilogue for machines
	// that aggregate the batch before scheduling. The slot stream that
	// ticks is identical on every engine (it is exactly the slots that
	// delivered something in full, including the frontier slots whose
	// handed-over batch is empty); slots without deliveries — including
	// idle slots the fast engine skips wholesale — do not tick.
	Tick(slot int, buf []Send) []Send
	// Book accounts for a slot before its Deliver call: txs is every
	// transmission of a jam-free slot of one verified distance-2 colour
	// class, so each reached its sender's whole row, and the Deliver that
	// follows is made, with its Tick, whenever some transmission had a
	// receiver. It has two cases. For an instance that publishes
	// State.Settled (a frontier slot), that Deliver carries only the
	// deliveries to good receivers not settled at the slot's start, and
	// may be empty. For an instance with State.BooksSlots (a booked slot),
	// it carries none: Book applies the whole slot, and Deliver makes the
	// acceptances Book left pending. Either way the receipts of what Book
	// took over are complete by Finish (Correct and Wrong may lag until
	// then); decisions and values are exact after every slot. Instances
	// with neither flag are never booked and return an error.
	Book(slot int, txs []radio.Tx) error
	// GoodBudget returns the message budget the engine enforces for good
	// node id; negative means unlimited. The engine always leaves the
	// source unlimited.
	GoodBudget(id grid.NodeID) int
	// Threshold is the acceptance threshold exposed to adversary views.
	Threshold() int
	// Sizing returns the horizon inputs for the engine's default slot
	// cap: the source's bootstrap send count and the maximum sends any
	// single node may schedule.
	Sizing() (sourceSends, maxSends int)
	// Finish signals the end of the run (slots executed), letting the
	// instance complete its State and publish its run record
	// (State.Record).
	Finish(slots int)
}
