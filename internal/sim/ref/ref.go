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
// (medium.go, a copy of the original radio.Medium), the dense scan, and
// the threshold acceptance a Spec run attaches (threshold.go: the counts
// table, the clamp, the threshold crossing and the Spec.Sends relay,
// written out as they were inlined before the protocol seam). Shared with
// the other engines: the Machine/Instance seam itself — a Config.Machine
// (protocol.Multi, protocol.Reactive) runs the same machine code on every
// engine, so for those the oracle checks the loops, not the machine — and
// the compiled plan's coloring. testdata/ref_fingerprints.txt pins the
// loop's Results to the ones the former inline engine produced.
//
// Do not optimize this package.
package ref

import (
	"context"
	"errors"
	"fmt"

	"bftbcast/internal/adversary"
	"bftbcast/internal/grid"
	"bftbcast/internal/plan"
	"bftbcast/internal/protocol"
	"bftbcast/internal/radio"
	"bftbcast/internal/sched"
	"bftbcast/internal/sim"
	"bftbcast/internal/topo"
)

// maxTrackedValue mirrors the fast engine's per-node value-tracking bound.
// The two constants must stay equal for bit-identical results.
const maxTrackedValue = 7

// engine is the mutable run state.
type engine struct {
	cfg      sim.Config
	tor      topo.Topology
	plan     *plan.Plan
	schedule *sched.TDMA
	medium   *medium // the frozen dense resolver

	inst  protocol.Instance
	st    *protocol.State
	hooks protocol.Hooks

	bad        []bool
	sent       []int32
	pending    []int32
	supplies   []bool
	supply     []int32
	goodBudget []radio.Budget
	badBudget  []radio.Budget

	colorNodes   [][]grid.NodeID
	pendingTotal int64

	res sim.Result
}

// Run executes the configured simulation through the dense reference
// engine and returns its Result. The semantics are identical to sim.Run;
// only the evaluation strategy differs.
func Run(cfg sim.Config) (*sim.Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cooperative cancellation, checked once per
// slot, mirroring sim.RunContext. A nil ctx behaves like
// context.Background(). A Config without a Machine runs its Spec through
// the package's own frozen acceptance (threshold.go).
func RunContext(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Machine == nil {
		cfg.Machine = denseThreshold{spec: cfg.Spec}
	}
	if cfg.Topo == nil {
		return nil, errors.New("ref: config needs a topology")
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if cfg.Params.R != cfg.Topo.Range() {
		return nil, fmt.Errorf("ref: params r=%d but topology r=%d", cfg.Params.R, cfg.Topo.Range())
	}
	// The schedule comes from the shared compiled plan — the same colors
	// sched.New would derive, computed once per topology. The dense
	// resolver stays frozen; only the derivation is shared.
	p := plan.For(cfg.Topo)
	schedule, err := p.TDMA()
	if err != nil {
		return nil, err
	}
	n := cfg.Topo.Size()
	if int(cfg.Source) < 0 || int(cfg.Source) >= n {
		return nil, fmt.Errorf("ref: source %d out of range", cfg.Source)
	}

	placement := cfg.Placement
	if placement == nil {
		placement = adversary.None{}
	}
	bad, err := placement.Place(cfg.Topo, cfg.Source)
	if err != nil {
		return nil, fmt.Errorf("ref: placement %q: %w", placement.Name(), err)
	}
	if _, err := adversary.Validate(cfg.Topo, bad, cfg.Source, cfg.Params.T); err != nil {
		return nil, err
	}

	inst, err := cfg.Machine.Attach(protocol.Env{
		Plan:   p,
		Params: cfg.Params,
		Source: cfg.Source,
		Bad:    bad,
		Seed:   cfg.Seed,
	})
	if err != nil {
		return nil, err
	}

	e := &engine{
		cfg:      cfg,
		tor:      cfg.Topo,
		plan:     p,
		schedule: schedule,
		medium:   newMedium(cfg.Topo),
		inst:     inst,
		st:       inst.State(),
		hooks: protocol.Hooks{
			OnSend:    cfg.OnSend,
			OnDeliver: cfg.OnDeliver,
			OnAccept:  cfg.OnAccept,
		},
		bad:        bad,
		sent:       make([]int32, n),
		pending:    make([]int32, n),
		supplies:   make([]bool, n),
		supply:     make([]int32, n),
		goodBudget: make([]radio.Budget, n),
		badBudget:  make([]radio.Budget, n),
	}
	for i := 0; i < n; i++ {
		id := grid.NodeID(i)
		if bad[i] {
			e.badBudget[i] = radio.NewBudget(cfg.Params.MF)
			e.res.BadCount++
			continue
		}
		if id == cfg.Source {
			e.goodBudget[i] = radio.Unlimited()
			continue
		}
		e.goodBudget[i] = radio.NewBudget(inst.GoodBudget(id))
	}

	e.colorNodes = p.ColorClasses() // shared, read-only

	e.applySends(inst.Bootstrap(nil))
	return e.run(ctx)
}

// addPending schedules n more transmissions at id and, when id supplies
// Vtrue, credits the supply estimate of its neighbors.
func (e *engine) addPending(id grid.NodeID, n int) {
	if n <= 0 {
		return
	}
	e.pending[id] += int32(n)
	e.pendingTotal += int64(n)
	if e.st.Value[id] == radio.ValueTrue && !e.bad[id] {
		e.supplies[id] = true
		e.tor.ForEachNeighbor(id, func(nb grid.NodeID) {
			e.supply[nb] += int32(n)
		})
	}
}

// applySends schedules the instance's returned sends, clamped against
// the per-node budgets.
func (e *engine) applySends(sends []protocol.Send) {
	for _, s := range sends {
		n := s.N
		if left := e.goodBudget[s.ID].Left(); left >= 0 && n > left {
			n = left
		}
		e.addPending(s.ID, n)
	}
}

func (e *engine) defaultMaxSlots() int {
	sourceSends, maxSends := e.inst.Sizing()
	period := e.schedule.Period()
	hops := e.tor.DiameterHint()
	return period * (sourceSends + hops*(maxSends+1) + 2*period)
}

func (e *engine) run(ctx context.Context) (*sim.Result, error) {
	maxSlots := e.cfg.MaxSlots
	if maxSlots <= 0 {
		maxSlots = e.defaultMaxSlots()
	}
	var (
		txs        []radio.Tx
		deliveries []radio.Delivery
		sendBuf    []protocol.Send
	)
	view := &adversary.View{
		Topo: e.tor, Adj: e.plan.Adjacency(),
		Bad: e.bad, Decided: e.st.Decided, Correct: e.st.Correct, Supply: e.supply,
		Budget: e.badBudget, Threshold: e.inst.Threshold(),
	}
	slot := 0
	for ; e.pendingTotal > 0 && slot < maxSlots; slot++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if e.cfg.OnSlotStart != nil {
			e.cfg.OnSlotStart(slot)
		}
		color := e.schedule.SlotColor(slot)
		txs = txs[:0]
		for _, id := range e.colorNodes[color] {
			if e.pending[id] <= 0 || e.bad[id] {
				continue
			}
			if !e.goodBudget[id].TrySpend() {
				// Budget exhausted below the protocol's send count:
				// drop the remaining pendings (can happen only when a
				// spec sends more than its own budget).
				e.dropPending(id)
				continue
			}
			e.consumePending(id)
			e.sent[id]++
			e.res.GoodMessages++
			if e.cfg.OnSend != nil {
				e.cfg.OnSend(slot, id, e.st.Value[id], false)
			}
			txs = append(txs, radio.Tx{From: id, Value: e.st.Value[id]})
		}

		deliveries = deliveries[:0]
		if len(txs) > 0 {
			if err := e.medium.resolve(txs, func(d radio.Delivery) {
				deliveries = append(deliveries, d)
			}); err != nil {
				return nil, err
			}
		}

		var jams []radio.Tx
		if e.cfg.Strategy != nil {
			jams = e.validateJams(slot, e.cfg.Strategy.Jams(view, slot, deliveries))
		}
		if len(jams) > 0 {
			txs = append(txs, jams...)
			deliveries = deliveries[:0]
			if err := e.medium.resolve(txs, func(d radio.Delivery) {
				deliveries = append(deliveries, d)
			}); err != nil {
				return nil, err
			}
		}

		if len(deliveries) > 0 {
			sendBuf = sendBuf[:0]
			var err error
			sendBuf, err = e.inst.Deliver(slot, deliveries, &e.hooks, sendBuf)
			if err != nil {
				return nil, err
			}
			sendBuf = e.inst.Tick(slot, sendBuf)
			e.applySends(sendBuf)
		}
	}

	e.inst.Finish(slot)
	return e.finish(slot, maxSlots), nil
}

// consumePending removes one pending transmission from id, debiting the
// neighbors' supply when id was a Vtrue supplier.
func (e *engine) consumePending(id grid.NodeID) {
	e.pending[id]--
	e.pendingTotal--
	if e.supplies[id] {
		e.tor.ForEachNeighbor(id, func(nb grid.NodeID) {
			e.supply[nb]--
		})
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
		e.tor.ForEachNeighbor(id, func(nb grid.NodeID) {
			e.supply[nb] -= p
		})
	}
}

// validateJams enforces the adversary rules: jams must come from distinct
// bad nodes with remaining budget, carry a trackable value, and each costs
// one budget unit.
func (e *engine) validateJams(slot int, jams []radio.Tx) []radio.Tx {
	if len(jams) == 0 {
		return nil
	}
	valid := jams[:0]
	seen := make(map[grid.NodeID]bool, len(jams))
	for _, j := range jams {
		switch {
		case int(j.From) < 0 || int(j.From) >= e.tor.Size(),
			!e.bad[j.From],
			seen[j.From],
			!j.Jam,
			!j.Drop && (j.Value <= 0 || j.Value > maxTrackedValue):
			e.res.RejectedJams++
			continue
		}
		if !e.badBudget[j.From].TrySpend() {
			e.res.RejectedJams++
			continue
		}
		seen[j.From] = true
		e.res.BadMessages++
		if e.cfg.OnSend != nil {
			e.cfg.OnSend(slot, j.From, j.Value, true)
		}
		valid = append(valid, j)
	}
	return valid
}

func (e *engine) finish(slot, maxSlots int) *sim.Result {
	res := &e.res
	res.Slots = slot
	res.TimedOut = e.pendingTotal > 0 && slot >= maxSlots
	res.GoodGoodCollisions = e.medium.goodGoodCollisions

	var sumSends, goodNonSource int
	allTrue := true
	for i := 0; i < e.tor.Size(); i++ {
		id := grid.NodeID(i)
		if e.bad[i] {
			continue
		}
		res.TotalGood++
		if e.st.Decided[i] {
			res.DecidedGood++
			if e.st.Value[i] != radio.ValueTrue {
				allTrue = false
				res.WrongDecisions++
			}
		} else {
			allTrue = false
		}
		if id != e.cfg.Source {
			goodNonSource++
			sumSends += int(e.sent[i])
			if int(e.sent[i]) > res.MaxGoodSends {
				res.MaxGoodSends = int(e.sent[i])
			}
		}
	}
	res.Completed = allTrue && res.DecidedGood == res.TotalGood
	res.Stalled = !res.Completed && !res.TimedOut
	if goodNonSource > 0 {
		res.AvgGoodSends = float64(sumSends) / float64(goodNonSource)
	}
	res.Decided = append([]bool(nil), e.st.Decided...)
	res.DecidedValue = append([]radio.Value(nil), e.st.Value...)
	res.Correct = append([]int32(nil), e.st.Correct...)
	res.Wrong = append([]int32(nil), e.st.Wrong...)
	res.Sent = append([]int32(nil), e.sent...)
	return res
}
