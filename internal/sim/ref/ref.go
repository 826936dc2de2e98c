// Package ref is the dense reference implementation of the slot-level
// simulation engine: the fixed, deliberately simple point the sparse
// fast path (package sim) is measured and verified against.
//
// Its job is to be obviously correct, not fast. There is one slot loop
// (this file). Every slot it scans the whole color class of the TDMA
// schedule for pending transmitters, resolves the radio medium with a
// straightforward per-neighbor walk, hands the slot's final deliveries to
// a protocol.Instance and schedules the sends it returns. The
// differential-testing oracle (internal/sim/simtest) runs randomized
// configurations through Run here and through the fast engine and
// asserts bit-identical Results.
//
// Frozen here, independent of what the fast path uses: the resolver
// (medium.go, a copy of the original radio.Medium), the dense scan, the
// jam validation, and the threshold acceptance a Spec run attaches
// (threshold.go: the counts table, the clamp, the threshold crossing and
// the Spec.Sends relay, written out as they were inlined before the
// protocol seam). From the run frame every engine shares (sim.Frame):
// config validation, the compiled plan and its schedule, placement and its
// validation, machine attach, budget seeding, the adversary's Reach (jams
// are spent through Frame.SpendJam), the default slot cap and
// the classification of the final State into a Result — and the
// Machine/Instance seam itself, so a Config.Machine (protocol.Multi,
// protocol.Reactive) runs the same machine code on every engine and for
// those the oracle checks the loops, not the machine.
// testdata/ref_fingerprints.txt pins the loop's Results to the ones the
// former inline engine produced.
//
// Do not optimize this package.
package ref

import (
	"context"

	"bftbcast/internal/adversary"
	"bftbcast/internal/core"
	"bftbcast/internal/grid"
	"bftbcast/internal/protocol"
	"bftbcast/internal/radio"
	"bftbcast/internal/sim"
)

// maxTrackedValue mirrors the fast engine's per-node value-tracking bound.
// The two constants must stay equal for bit-identical results.
const maxTrackedValue = 7

// engine is the mutable run state: the shared frame plus what the dense
// loop needs.
type engine struct {
	sim.Frame
	medium *medium // the frozen dense resolver

	pending  []int32
	supplies []bool
	supply   []int32
	row      []grid.NodeID // scratch for one node's neighbors

	pendingTotal int64
}

// RunContext executes the configured simulation through the dense
// reference engine and returns its Result. The semantics are identical to
// sim.RunContext; only the evaluation strategy differs. Cancellation is
// checked once per slot. A nil ctx behaves like context.Background(). A
// Config without a Machine runs its Spec through the package's own frozen
// acceptance (threshold.go).
func RunContext(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
	e, err := run(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return e.Finish(), nil
}

// RunCounts is RunContext for a caller that keeps only the tallies, like
// sim.RunCounts: the same run, classified by sim.Frame.Counts.
func RunCounts(ctx context.Context, cfg sim.Config) (sim.Result, error) {
	e, err := run(ctx, cfg)
	if err != nil {
		return sim.Result{}, err
	}
	return e.Counts(), nil
}

// run builds the engine state for cfg and runs the slot loop to its end.
func run(ctx context.Context, cfg sim.Config) (*engine, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	e := &engine{}
	if err := e.Begin(cfg, attachDense); err != nil {
		return nil, err
	}
	n := cfg.Topo.Size()
	e.medium = newMedium(cfg.Topo)
	e.pending = make([]int32, n)
	e.supplies = make([]bool, n)
	e.supply = make([]int32, n)
	e.applySends(e.Inst.Bootstrap(nil))
	return e, e.loop(ctx)
}

// attachDense attaches the frozen acceptance a Spec run executes.
func attachDense(env protocol.Env, spec core.Spec) (protocol.Instance, error) {
	return denseThreshold{spec: spec}.Attach(env)
}

// addPending schedules n more transmissions at id and, when id supplies
// Vtrue, credits the supply estimate of its neighbors.
func (e *engine) addPending(id grid.NodeID, n int) {
	if n <= 0 {
		return
	}
	e.pending[id] += int32(n)
	e.pendingTotal += int64(n)
	if e.St.Value[id] == radio.ValueTrue && !e.Bad[id] {
		e.supplies[id] = true
		for _, nb := range e.neighbors(id) {
			e.supply[nb] += int32(n)
		}
	}
}

// neighbors returns id's neighbors from the topology, in scratch storage
// valid until the next call.
func (e *engine) neighbors(id grid.NodeID) []grid.NodeID {
	e.row = e.Cfg.Topo.AppendNeighbors(e.row[:0], id)
	return e.row
}

// applySends schedules the instance's returned sends, clamped against
// the per-node budgets.
func (e *engine) applySends(sends []protocol.Send) {
	for _, s := range sends {
		n := s.N
		if left := e.GoodBudget[s.ID].Left(); left >= 0 && n > left {
			n = left
		}
		e.addPending(s.ID, n)
	}
}

// loop runs the slots until nothing is pending or the cap is reached, and
// stops the frame there.
func (e *engine) loop(ctx context.Context) error {
	cfg := &e.Cfg
	var (
		txs        []radio.Tx
		deliveries []radio.Delivery
		sendBuf    []protocol.Send
	)
	view := &adversary.View{
		Topo: cfg.Topo, Adj: e.Plan.Adjacency(),
		Bad: e.Bad, Decided: e.St.Decided, Correct: e.St.Correct, Supply: e.supply,
		Budget: e.BadBudget, Reach: e.Reach, Threshold: e.Inst.Threshold(),
	}
	// ctx is polled without a lock: ctx.Err takes the context's mutex,
	// which every engine running on one job's context would contend for
	// once a slot. A context that can never be cancelled has no channel.
	done := ctx.Done()
	e.StartLoop()
	slot := 0
	for ; e.pendingTotal > 0 && slot < e.MaxSlots; slot++ {
		if done != nil {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
		if cfg.Hooks.OnSlotStart != nil {
			cfg.Hooks.OnSlotStart(slot)
		}
		color := e.Plan.SlotColor(slot)
		txs = txs[:0]
		for _, id := range e.Plan.ColorClasses()[color] {
			if e.pending[id] <= 0 || e.Bad[id] {
				continue
			}
			if !e.GoodBudget[id].TrySpend() {
				// Budget exhausted below the protocol's send count:
				// drop the remaining pendings (can happen only when a
				// spec sends more than its own budget).
				e.dropPending(id)
				continue
			}
			e.consumePending(id)
			e.Sent[id]++
			e.Res.GoodMessages++
			if cfg.Hooks.OnSend != nil {
				cfg.Hooks.OnSend(slot, id, e.St.Value[id], false)
			}
			txs = append(txs, radio.Tx{From: id, Value: e.St.Value[id]})
		}

		deliveries = deliveries[:0]
		if len(txs) > 0 {
			if err := e.medium.resolve(txs, func(d radio.Delivery) {
				deliveries = append(deliveries, d)
			}); err != nil {
				return err
			}
		}

		var jams []radio.Tx
		if cfg.Strategy != nil {
			jams = e.validateJams(slot, cfg.Strategy.Jams(view, slot, deliveries))
		}
		if len(jams) > 0 {
			txs = append(txs, jams...)
			deliveries = deliveries[:0]
			if err := e.medium.resolve(txs, func(d radio.Delivery) {
				deliveries = append(deliveries, d)
			}); err != nil {
				return err
			}
		}

		if len(deliveries) > 0 {
			sendBuf = sendBuf[:0]
			var err error
			sendBuf, err = e.Inst.Deliver(slot, deliveries, &cfg.Hooks, sendBuf)
			if err != nil {
				return err
			}
			sendBuf = e.Inst.Tick(slot, sendBuf)
			e.applySends(sendBuf)
		}
	}

	e.Stop(slot, e.pendingTotal > 0, e.medium.goodGoodCollisions)
	return nil
}

// consumePending removes one pending transmission from id, debiting the
// neighbors' supply when id was a Vtrue supplier.
func (e *engine) consumePending(id grid.NodeID) {
	e.pending[id]--
	e.pendingTotal--
	if e.supplies[id] {
		for _, nb := range e.neighbors(id) {
			e.supply[nb]--
		}
	}
}

// dropPending discards all remaining pendings of id.
func (e *engine) dropPending(id grid.NodeID) {
	p := e.pending[id]
	if p <= 0 {
		return
	}
	e.pending[id] = 0
	e.pendingTotal -= int64(p)
	if e.supplies[id] {
		for _, nb := range e.neighbors(id) {
			e.supply[nb] -= p
		}
	}
}

// validateJams enforces the adversary rules: jams must come from distinct
// bad nodes with remaining budget, carry a trackable value, and each costs
// one budget unit (spent through the frame, which keeps the view's Reach).
func (e *engine) validateJams(slot int, jams []radio.Tx) []radio.Tx {
	if len(jams) == 0 {
		return nil
	}
	valid := jams[:0]
	seen := make(map[grid.NodeID]bool, len(jams))
	for _, j := range jams {
		switch {
		case int(j.From) < 0 || int(j.From) >= e.Cfg.Topo.Size(),
			!e.Bad[j.From],
			seen[j.From],
			!j.Jam,
			!j.Drop && (j.Value <= 0 || j.Value > maxTrackedValue):
			e.Res.RejectedJams++
			continue
		}
		if !e.SpendJam(j.From) {
			e.Res.RejectedJams++
			continue
		}
		seen[j.From] = true
		e.Res.BadMessages++
		if e.Cfg.Hooks.OnSend != nil {
			e.Cfg.Hooks.OnSend(slot, j.From, j.Value, true)
		}
		valid = append(valid, j)
	}
	return valid
}
