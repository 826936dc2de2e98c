package bftbcast

import (
	"encoding/json"
	"fmt"
	"io"
)

// Observer receives the streaming event feed of an Engine run. All
// backends emit the same four events; the slot argument is the TDMA
// slot.
//
// Events are delivered synchronously on the engine's coordinator
// goroutine, so an Observer needs no locking of its own, and every
// engine repeats its own event order run after run. Across engines the
// Decide sequence is the same. Within a slot, the ref engine emits
// transmissions (and so the Deliver events that follow) in node order of
// the slot's colour class; the fast engine emits them in the order of its
// transmit queue — the same events per slot, in another order. Observers must not mutate engine
// state; an observed run returns the same Report as an unobserved one.
//
// The sparse fast engine skips provably idle slots wholesale, so its
// SlotStart feed only covers executed slots (the slot numbering still
// matches the reference engine's). Embed BaseObserver to implement only
// the events you care about.
type Observer interface {
	// SlotStart fires before the slot's transmissions are emitted.
	SlotStart(slot int)
	// Send fires for every admitted transmission; adversarial marks
	// validated adversary messages (jams, attacks, NACK spam).
	Send(slot int, from NodeID, v Value, adversarial bool)
	// Deliver fires for every delivery (from the radio medium, or from
	// the reactive coding layer when a receiver trusts a payload).
	Deliver(slot int, from, to NodeID, v Value)
	// Decide fires when a node accepts a value. The pre-decided source
	// produces no event.
	Decide(slot int, id NodeID, v Value)
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

// BaseObserver is a no-op Observer, meant for embedding.
type BaseObserver struct{}

// SlotStart implements Observer.
func (BaseObserver) SlotStart(int) {}

// Send implements Observer.
func (BaseObserver) Send(int, NodeID, Value, bool) {}

// Deliver implements Observer.
func (BaseObserver) Deliver(int, NodeID, NodeID, Value) {}

// Decide implements Observer.
func (BaseObserver) Decide(int, NodeID, Value) {}

// FuncObserver adapts optional event functions to Observer; nil fields
// ignore their event.
type FuncObserver struct {
	OnSlotStart func(slot int)
	OnSend      func(slot int, from NodeID, v Value, adversarial bool)
	OnDeliver   func(slot int, from, to NodeID, v Value)
	OnDecide    func(slot int, id NodeID, v Value)
}

// SlotStart implements Observer.
func (o FuncObserver) SlotStart(slot int) {
	if o.OnSlotStart != nil {
		o.OnSlotStart(slot)
	}
}

// Send implements Observer.
func (o FuncObserver) Send(slot int, from NodeID, v Value, adversarial bool) {
	if o.OnSend != nil {
		o.OnSend(slot, from, v, adversarial)
	}
}

// Deliver implements Observer.
func (o FuncObserver) Deliver(slot int, from, to NodeID, v Value) {
	if o.OnDeliver != nil {
		o.OnDeliver(slot, from, to, v)
	}
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
// reactive trace (testdata/), and backs bftsim -trace.
type TraceObserver struct {
	BaseObserver
	enc *json.Encoder
	n   int
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
		return
	}
	t.n++
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

// Err returns the first recording error, if any.
func (t *TraceObserver) Err() error { return t.err }

// Count returns the number of events written so far.
func (t *TraceObserver) Count() int { return t.n }
