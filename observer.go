package bftbcast

import (
	"encoding/json"
	"fmt"
	"io"
)

// Observer receives the decisions of an Engine run; the slot argument
// of every event is the TDMA slot. An Observer that also implements
// SlotObserver, SendObserver, DeliverObserver or InstanceObserver
// receives those events too.
//
// Events are delivered synchronously on the engine's coordinator
// goroutine, so an Observer needs no locking of its own, and every
// engine repeats its own event order run after run. Across engines the
// Decide sequence is the same. Within a slot, the ref engine emits
// transmissions (and so the Deliver events that follow) in node order of
// the slot's colour class; the fast engine emits them in the order of its
// transmit queue — the same events per slot, in another order. Observers
// must not mutate engine state; an observed run returns the same Report
// as an unobserved one.
//
// What an Observer watches picks the fast engine's slot bodies. A
// Decide-only Observer keeps them all, as an unobserved run does; a
// SlotObserver or SendObserver keeps settled transmitters from retiring;
// a DeliverObserver resolves every slot in full, with no frontier and no
// booked slots; an InstanceObserver keeps booked slots off.
type Observer interface {
	// Decide fires when a node accepts a value. The pre-decided source
	// produces no event.
	Decide(slot int, id NodeID, v Value)
}

// SlotObserver is an optional Observer refinement. The sparse fast
// engine skips provably idle slots wholesale, so its SlotStart feed only
// covers executed slots (the slot numbering still matches the reference
// engine's).
type SlotObserver interface {
	// SlotStart fires before the slot's transmissions are emitted.
	SlotStart(slot int)
}

// SendObserver is an optional Observer refinement.
type SendObserver interface {
	// Send fires for every admitted transmission; adversarial marks
	// validated adversary messages (jams, attacks, NACK spam).
	Send(slot int, from NodeID, v Value, adversarial bool)
}

// DeliverObserver is an optional Observer refinement.
type DeliverObserver interface {
	// Deliver fires for every delivery (from the radio medium, or from
	// the reactive coding layer when a receiver trusts a payload).
	Deliver(slot int, from, to NodeID, v Value)
}

// InstanceObserver is an optional Observer refinement for
// multi-broadcast runs (Scenario.Broadcasts >= 2): when the Scenario's
// Observer also implements it, the engines additionally stream
// instance-tagged protocol events. DeliverInstance fires for every
// protocol-level entry applied at a good receiver — the per-instance
// entries a batched transmission carried, or a forged copy counted in
// every started instance — right after the raw Deliver event;
// DecideInstance fires for every per-instance acceptance alongside the
// aggregate Decide event (which, for multi-broadcast runs, reports
// per-instance acceptances too). Single-broadcast runs never fire
// either event.
type InstanceObserver interface {
	Observer
	// DeliverInstance fires for each instance entry applied at a good
	// receiver.
	DeliverInstance(slot, instance int, from, to NodeID, v Value)
	// DecideInstance fires when a node accepts a value in one instance.
	// Pre-decided instance sources produce no event.
	DecideInstance(slot, instance int, id NodeID, v Value)
}

// BaseObserver is a no-op Observer.
type BaseObserver struct{}

// Decide implements Observer.
func (BaseObserver) Decide(int, NodeID, Value) {}

// FuncObserver adapts optional event functions to Observer; the engines
// watch exactly the events whose fields are set.
type FuncObserver struct {
	OnSlotStart func(slot int)
	OnSend      func(slot int, from NodeID, v Value, adversarial bool)
	OnDeliver   func(slot int, from, to NodeID, v Value)
	OnDecide    func(slot int, id NodeID, v Value)
}

// Decide implements Observer.
func (o FuncObserver) Decide(slot int, id NodeID, v Value) {
	if o.OnDecide != nil {
		o.OnDecide(slot, id, v)
	}
}

// TraceObserver streams decisions as JSON Lines in the repository's
// golden-trace format: one {"slot","node","kind":"accept","value"}
// object per acceptance, and a terminal done/stall line written by
// Finish. It records the golden E1/E2 traces (internal/exper) and the
// reactive trace (testdata/), and backs bftsim -trace. It watches
// decisions alone, so a traced run takes an unobserved run's slot bodies.
type TraceObserver struct {
	enc *json.Encoder
	err error
}

// traceEvent is one trace line; its JSON tags are the golden-trace
// format, so changing them changes every recorded trace.
type traceEvent struct {
	Slot  int    `json:"slot"`
	Node  int32  `json:"node,omitempty"`
	Kind  string `json:"kind"`
	Value int32  `json:"value,omitempty"`
}

// NewTraceObserver returns a TraceObserver writing to w.
func NewTraceObserver(w io.Writer) *TraceObserver {
	return &TraceObserver{enc: json.NewEncoder(w)}
}

// record writes one event unless an earlier one failed.
func (t *TraceObserver) record(e traceEvent) {
	if t.err != nil {
		return
	}
	if err := t.enc.Encode(e); err != nil {
		t.err = fmt.Errorf("trace: encoding event: %w", err)
	}
}

// Decide implements Observer.
func (t *TraceObserver) Decide(slot int, id NodeID, v Value) {
	t.record(traceEvent{Slot: slot, Node: int32(id), Kind: "accept", Value: int32(v)})
}

// Finish writes the terminal event for the run's Report — kind "done"
// (or "stall" for a stalled run) with the final decided count — and
// returns the first error of the whole stream.
func (t *TraceObserver) Finish(rep *Report) error {
	kind := "done"
	if rep.Stalled {
		kind = "stall"
	}
	t.record(traceEvent{Slot: rep.Slots, Kind: kind, Value: int32(rep.DecidedGood)})
	return t.err
}
