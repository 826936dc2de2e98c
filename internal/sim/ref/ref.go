// Package ref is the dense reference implementation of the slot-level
// simulation engine: a faithful, deliberately simple copy of the engine
// as it stood before the sparse fast path (package sim) replaced it.
//
// Its job is to be obviously correct, not fast. Every slot it scans the
// whole color class of the TDMA schedule for pending transmitters and
// resolves the radio medium with a straightforward per-neighbor walk
// (see medium.go, a frozen copy of the original resolver). The
// differential-testing oracle (internal/sim/simtest) runs randomized
// configurations through Run here and through the fast engine and
// asserts bit-identical Results; the sweep benchmarks in bench_test.go
// run the same workload through both to show the fast path's speedup.
//
// Do not optimize this package: its value is that it stays the fixed
// point the fast engine is measured and verified against.
package ref

import (
	"context"
	"errors"
	"fmt"

	"bftbcast/internal/adversary"
	"bftbcast/internal/grid"
	"bftbcast/internal/plan"
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
	medium   *medium

	bad        []bool
	decided    []bool
	decidedVal []radio.Value
	counts     []int32 // [node*(maxTrackedValue+1) + value]
	correct    []int32
	wrong      []int32
	sent       []int32
	pending    []int32
	supplies   []bool // node currently contributes to neighbors' supply
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
// context.Background().
//
// A Config with a custom protocol Machine runs through the machine-driven
// dense loop (machine.go); Spec runs keep the frozen inline path below,
// which stays the fixed point the fast engine is verified against.
func RunContext(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Machine != nil {
		return runMachine(ctx, cfg)
	}
	e, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	return e.run(ctx)
}

func newEngine(cfg sim.Config) (*engine, error) {
	if cfg.Topo == nil {
		return nil, errors.New("ref: config needs a topology")
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	if cfg.Params.R != cfg.Topo.Range() {
		return nil, fmt.Errorf("ref: params r=%d but topology r=%d", cfg.Params.R, cfg.Topo.Range())
	}
	// The schedule comes from the shared compiled plan — the same colors
	// sched.New would derive, computed once per topology. The dense
	// resolver below stays frozen; only the derivation is shared.
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

	e := &engine{
		cfg:        cfg,
		tor:        cfg.Topo,
		plan:       p,
		schedule:   schedule,
		medium:     newMedium(cfg.Topo),
		bad:        bad,
		decided:    make([]bool, n),
		decidedVal: make([]radio.Value, n),
		counts:     make([]int32, n*(maxTrackedValue+1)),
		correct:    make([]int32, n),
		wrong:      make([]int32, n),
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
		e.goodBudget[i] = radio.NewBudget(cfg.Spec.Budget(id))
	}

	e.colorNodes = make([][]grid.NodeID, schedule.Period())
	for i := 0; i < n; i++ {
		c := schedule.ColorOf(grid.NodeID(i))
		e.colorNodes[c] = append(e.colorNodes[c], grid.NodeID(i))
	}

	// Base station: decided on Vtrue, repeats it SourceRepeats times.
	e.decided[cfg.Source] = true
	e.decidedVal[cfg.Source] = radio.ValueTrue
	e.addPending(cfg.Source, cfg.Spec.SourceRepeats)
	return e, nil
}

// addPending schedules n more transmissions at id and, when id supplies
// Vtrue, credits the supply estimate of its neighbors.
func (e *engine) addPending(id grid.NodeID, n int) {
	if n <= 0 {
		return
	}
	e.pending[id] += int32(n)
	e.pendingTotal += int64(n)
	if e.decidedVal[id] == radio.ValueTrue && !e.bad[id] {
		e.supplies[id] = true
		e.tor.ForEachNeighbor(id, func(nb grid.NodeID) {
			e.supply[nb] += int32(n)
		})
	}
}

func (e *engine) defaultMaxSlots() int {
	maxSends := 0
	for i := 0; i < e.tor.Size(); i++ {
		if s := e.cfg.Spec.Sends(grid.NodeID(i)); s > maxSends {
			maxSends = s
		}
	}
	period := e.schedule.Period()
	hops := e.tor.DiameterHint()
	return period * (e.cfg.Spec.SourceRepeats + hops*(maxSends+1) + 2*period)
}

func (e *engine) run(ctx context.Context) (*sim.Result, error) {
	maxSlots := e.cfg.MaxSlots
	if maxSlots <= 0 {
		maxSlots = e.defaultMaxSlots()
	}
	var (
		txs       []radio.Tx
		tentative []radio.Delivery
	)
	view := &adversary.View{
		Topo: e.tor, Adj: e.plan.Adjacency(),
		Bad: e.bad, Decided: e.decided, Correct: e.correct, Supply: e.supply,
		Budget: e.badBudget, Threshold: e.cfg.Spec.Threshold,
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
				e.cfg.OnSend(slot, id, e.decidedVal[id], false)
			}
			txs = append(txs, radio.Tx{From: id, Value: e.decidedVal[id]})
		}

		tentative = tentative[:0]
		if len(txs) > 0 {
			if err := e.medium.resolve(txs, func(d radio.Delivery) {
				tentative = append(tentative, d)
			}); err != nil {
				return nil, err
			}
		}

		var jams []radio.Tx
		if e.cfg.Strategy != nil {
			jams = e.validateJams(slot, e.cfg.Strategy.Jams(view, slot, tentative))
		}

		if len(jams) == 0 {
			for _, d := range tentative {
				e.deliver(slot, d)
			}
			continue
		}
		txs = append(txs, jams...)
		if err := e.medium.resolve(txs, func(d radio.Delivery) {
			e.deliver(slot, d)
		}); err != nil {
			return nil, err
		}
	}

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

// deliver applies one final delivery to the receiver's counters and
// processes a threshold crossing.
func (e *engine) deliver(slot int, d radio.Delivery) {
	if e.cfg.OnDeliver != nil {
		e.cfg.OnDeliver(slot, d)
	}
	u := d.To
	if e.bad[u] {
		return // adversary nodes do not run the protocol
	}
	if d.Value == radio.ValueTrue {
		e.correct[u]++
	} else {
		e.wrong[u]++
	}
	v := d.Value
	if v < 0 || v > maxTrackedValue {
		v = maxTrackedValue // clamp exotic values into the last bucket
	}
	idx := int(u)*(maxTrackedValue+1) + int(v)
	e.counts[idx]++
	if e.decided[u] || e.counts[idx] != int32(e.cfg.Spec.Threshold) {
		return
	}
	e.accept(slot, u, d.Value)
}

// accept commits node u to value v and schedules its relays.
func (e *engine) accept(slot int, u grid.NodeID, v radio.Value) {
	e.decided[u] = true
	e.decidedVal[u] = v
	if v != radio.ValueTrue {
		e.res.WrongDecisions++
	}
	sends := e.cfg.Spec.Sends(u)
	if left := e.goodBudget[u].Left(); left >= 0 && sends > left {
		sends = left
	}
	e.addPending(u, sends)
	if e.cfg.OnAccept != nil {
		e.cfg.OnAccept(slot, u, v)
	}
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
		if e.decided[i] {
			res.DecidedGood++
			if e.decidedVal[i] != radio.ValueTrue {
				allTrue = false
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
	// The engine is single-use, so handing out its internal slices would
	// be safe; copies keep the Result contract identical to sim.Run's.
	res.Decided = append([]bool(nil), e.decided...)
	res.DecidedValue = append([]radio.Value(nil), e.decidedVal...)
	res.Correct = append([]int32(nil), e.correct...)
	res.Wrong = append([]int32(nil), e.wrong...)
	res.Sent = append([]int32(nil), e.sent...)
	return res
}
