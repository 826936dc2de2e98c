// Package sim is the deterministic discrete-event engine that executes a
// broadcast protocol on a topology (the paper's torus, a bounded grid,
// or a random geometric graph — see package topo) against an adversary,
// at time-slot granularity under the collision-free TDMA schedule.
//
// The protocol itself lives behind the internal/protocol seam: each run
// drives a protocol.Instance — the counts-threshold machine built from a
// core.Spec (protocols B, Bheter, Koo, full-budget; the default), or any
// custom Machine such as the Section 5 reactive protocol. Each slot the
// engine: (1) emits the transmissions of the slot's color class (every
// node with pending sends, transmitting its protocol value); (2)
// resolves them into the slot's tentative deliveries; (3) shows those to
// the adversary strategy, which answers with jamming transmissions; (4)
// if it jammed, resolves transmissions and jams together into the final
// deliveries, otherwise the tentative ones are final; (5) hands the final
// deliveries to the protocol instance as one batch and schedules the
// sends it returns (acceptance relays, retransmissions), clamped against
// per-node budgets. The run ends when no transmissions remain pending:
// either every good node has decided Vtrue (Completed) or the broadcast
// has stalled.
//
// # Frontier slots
//
// Protocol B relays 2·t·mf+1 copies but accepts after t·mf+1, and a
// reactive node hears its neighbours' rounds long after it accepted, so
// most deliveries reach a node for which they change nothing. An instance
// that publishes a settled mask (protocol.State.Settled: decided, for the
// threshold instance; decided with no armed bad neighbour, for the
// reactive machine) therefore has its runs work on the slot's frontier —
// the deliveries to good receivers it has not settled — instead of all of
// them: step 2 materialises only the frontier
// (radio.Medium.ResolveDisjoint with the settled mask), step 3 shows only
// the frontier to the strategy, and when the strategy returns no jam, the
// instance books the slot's transmissions (protocol.Instance.Book) and
// step 5 delivers only the frontier. What the booking stands for is the
// instance's business: one ledger bump per transmission for the threshold
// instance, the sender's whole round — pattern redraw, attack, NACK spam,
// in sender order — for the reactive machine, whose skipped edges are
// served and counted at Finish. A slot that is jammed discards its
// frontier and goes through steps 4–5 in full like any other, so jam
// semantics have one implementation.
//
// Most transmissions have no frontier at all: the sender's row is
// settled — every neighbor bad or settled — by the time its redundant
// copies go out (415 900 of the 490 000 of the benchmark's 100k-node
// run). live[v] counts v's good neighbors that have not settled, starting
// at v's degree less its bad neighbors and losing one over the settler's
// row at every settlement; out marks the nodes taken out of those counts,
// the bad and the settled ones, and is step 2's skip mask. Settlements
// are seen through sends: the seam has the instance return a Send for
// every node it settles (with N = 0 when nothing is to be sent), so the
// walk that credits the node's supply to its neighbors (addPending) is
// the walk that debits live, and a settlement costs one row walk.
//
// A settled row stays settled, so a threshold run does not emit its sends
// one slot at a time: when a row settles with sends pending, or a node
// whose row has settled is given sends, the engine retires them (retire)
// — books them all on the instance's ledger at once
// (protocol.ThresholdInstance.BookSends), spends the budget, Sent and
// GoodMessages they would have spent and takes them off the queues,
// keeping only the window of colour slots they would have occupied. Those
// slots run only if something else transmits in them, and the run's slot
// count still reaches the last of them. The one slot where a retired
// transmission can still matter is a jammed one, where a jam can change
// what its settled receivers hear: such a slot puts the retired
// transmissions it would have carried back into its full resolve and
// takes them off the ledger again (unretire). A send whose window would
// reach MaxSlots is not retired; it, and every send of a run that does
// not retire, leaves a settled row in its slot and is booked with the
// slot, its row never read: step 2 resolves only the transmissions with
// live[from] > 0. A run retires when nothing can tell (retireEligible):
// a frontier run of the threshold instance, whose booking is one ledger
// bump per transmission, with no OnSend or OnSlotStart hook to watch the
// slots and sends it no longer makes.
//
// frontierEligible lists when a run qualifies — in short, when no one
// could observe the difference: an instance with a settled mask, no
// OnDeliver observer, a strategy that is a function of the deliveries to
// undecided receivers (adversary.DeliveryDriven), and a coloring the plan
// has verified to be distance-2, which is what makes a jam-free slot
// collision-free by check rather than by assumption. Every other run —
// observed runs, Spammer, unverified colorings, and Multi unless it books
// (below) — takes steps 2–5 over all deliveries and keeps none of this
// state.
//
// # Booked slots
//
// An instance that books whole slots (protocol.State.BooksSlots: Multi)
// goes one step further on a run with no Strategy, no per-delivery hook
// (OnDeliver, OnInstanceDeliver) and a verified distance-2 coloring:
// every slot is then jam-free and collision-free, so nothing needs a
// delivery built. The engine skips steps 2–4, hands the slot's
// transmissions to Book — which walks each sender's row itself — and, when
// some transmission had a receiver, calls Deliver with no deliveries and
// Tick (bookEligible lists the conditions).
//
// # Run frame
//
// Everything around a slot loop is written once, in Frame (frame.go), and
// shared by both engines — this one and the dense reference loop
// (internal/sim/ref): config validation, the compiled plan and its TDMA
// schedule, placement and its t-local validation, machine attach, budget
// seeding, the default slot cap, and the classification of the
// instance's final State into a Result. What differs between the
// engines is only the loop and the state it needs, and which instance a
// Spec run attaches.
//
// # Fast path
//
// This package is the sparse fast path: per-color active-sender queues
// make each slot cost O(active transmitters) instead of O(nodes in the
// color class), idle slots are skipped in O(1) per period when the
// adversary is delivery-driven, and all engine state lives in a reusable
// Runner so sweeps pay no per-run allocation beyond the Result — the
// Runner keeps one protocol.ThresholdInstance across runs and rebinds it
// per run, so the default protocol path allocates nothing either. The
// original dense scan, resolver and acceptance rule are preserved in
// internal/sim/ref as the reference implementation; the
// differential-testing oracle (internal/sim/simtest, wired up in
// oracle_test.go) asserts bit-identical Results between the two over
// randomized configurations.
package sim

import (
	"context"
	"fmt"
	"sync"

	"bftbcast/internal/adversary"
	"bftbcast/internal/core"
	"bftbcast/internal/grid"
	"bftbcast/internal/protocol"
	"bftbcast/internal/radio"
)

// maxTrackedValue bounds the distinct broadcast values the threshold
// protocols track per node; the engine reuses it to validate jam values.
// internal/sim/ref's frozen copy must stay equal for bit-identical
// results.
const maxTrackedValue = protocol.MaxTrackedValue

// runnerPool recycles Runners across RunContext and RunCounts calls: it
// is the one reuse path of the fast engine, so every Sweep worker, every
// leased range of a job and every direct caller reuses warm engine state
// instead of reallocating it per point.
var runnerPool = sync.Pool{New: func() any { return NewRunner() }}

// RunContext executes the configured simulation and returns its Result.
// It draws a reusable Runner from an internal pool, so repeated calls on
// same-sized topologies avoid per-run allocation of the engine state. The
// engine checks ctx once per executed slot and returns ctx.Err() when it
// fires, honoring deadlines. A nil ctx behaves like context.Background().
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	r := runnerPool.Get().(*Runner)
	res, err := r.RunContext(ctx, cfg)
	runnerPool.Put(r)
	return res, err
}

// RunCounts is RunContext for a caller that keeps only the tallies: the
// same run, classified by Frame.Counts, so the Result carries no per-node
// state and its other fields equal RunContext's.
func RunCounts(ctx context.Context, cfg Config) (Result, error) {
	r := runnerPool.Get().(*Runner)
	res, err := r.runCounts(ctx, cfg)
	runnerPool.Put(r)
	return res, err
}

// Runner is a reusable simulation engine: all per-run state (counters,
// budgets, color queues, scratch buffers) is allocated once and
// reset-and-reused by every Run call, keyed to the configured topology.
// Switching topologies between calls is allowed and re-derives the radio
// medium and the per-node scratch.
//
// A Runner is not safe for concurrent use; the package-level RunContext
// hands each call its own through runnerPool. Callers that hold one
// directly (benchmarks timing a warm engine) keep it to one goroutine.
type Runner struct {
	// Frame is the run's shared setup and finish (see Frame): config,
	// plan, placement, instance, budgets, sent tallies and slot cap.
	Frame

	// Per-topology state, rebuilt only when the plan changes. adj is the
	// plan's CSR adjacency, the engine's neighbor table; the medium
	// resolves on it with private scratch. colors aliases the plan's
	// (read-only) coloring.
	adj    *radio.Adjacency
	medium *radio.Medium
	colors []int32 // TDMA color per node (shared, read-only)

	// builtin is the Runner's reusable counts-threshold instance, rebound
	// per run when Config.Machine is nil.
	builtin *protocol.ThresholdInstance

	// Per-run state, reset by Run.
	pending  []int32
	supplies []bool // node currently contributes to neighbors' supply
	supply   []int32

	// active[c] queues the nodes of color c with pending transmissions,
	// in activation order with lazy removal; colorPending[c] is the exact
	// total pending over the color class, so empty slots are detected in
	// O(1) and skipped without scanning the class.
	active       [][]grid.NodeID
	colorPending []int64
	pendingTotal int64

	trackSupply bool // supply bookkeeping is only needed by strategies
	curSlot     int

	// view is what the run's Strategy sees: the run's own arrays, filled
	// once per run (and only when there is a strategy to show them to).
	view adversary.View

	// frontier selects the frontier-only slot body for this run (see the
	// package comment and frontierEligible); frontierSlots counts the
	// slots that completed on it and settledTxs the transmissions of those
	// slots whose row was never read (exposed to tests, see export_test.go).
	frontier      bool
	frontierSlots int
	settledTxs    int

	// ledger is set when the run retires settled transmitters (see the
	// package comment and retireEligible): the threshold instance their
	// sends are booked on. retFirst[v] and retEnd[v] bound the slots of
	// v's retired transmissions, [first, last+1), and retiredEnd is one
	// past the last slot a retired send occupies; retiredTxs counts the
	// retired transmissions (exposed to tests, see export_test.go).
	ledger           *protocol.ThresholdInstance
	retFirst, retEnd []int32
	retiredEnd       int
	retiredTxs       int

	// booking selects the booked slot body for this run (see the package
	// comment and bookEligible); bookedSlots counts the slots it booked
	// (exposed to tests, see export_test.go).
	booking     bool
	bookedSlots int

	// Frontier-run state (see the package comment). live[v] counts v's
	// good neighbors the instance has not settled — v's row is settled
	// once it reaches 0; out[v] records that v has been taken out of its
	// neighbors' counts, as a bad node (initLive) or at its settlement
	// (addPending). At every slot's start out is the settled mask plus the
	// bad nodes: the receivers a frontier leaves out.
	live []int32
	out  []bool

	// Scratch reused across slots.
	txs       []radio.Tx
	liveTxs   []radio.Tx // the slot's transmissions from rows not yet settled
	tentative []radio.Delivery
	sendBuf   []protocol.Send
	jamSeen   []bool // validateJams' senders of the slot, false between slots
}

// NewRunner returns an empty Runner; the first Run sizes it.
func NewRunner() *Runner {
	return &Runner{builtin: protocol.NewThresholdInstance()}
}

// retarget (re)builds the per-topology state when the run's plan differs
// from the previous run's. The topology-derived artifacts (CSR adjacency,
// coloring, schedule) come from the shared compiled plan, so only the
// Runner's private scratch is (re)sized here — and reused when the
// previous topology was at least as big.
func (r *Runner) retarget() {
	p := r.Plan
	r.adj = p.Adjacency()
	r.medium = radio.NewMediumShared(r.adj)
	r.colors = p.Colors()
	n := p.Size()
	r.pending = resized(r.pending, n)
	r.supplies = resized(r.supplies, n)
	r.supply = resized(r.supply, n)
	r.jamSeen = resized(r.jamSeen, n)
	r.live = resized(r.live, n)
	r.out = resized(r.out, n)
	r.retFirst = resized(r.retFirst, n)
	r.retEnd = resized(r.retEnd, n)
	period := p.Period()
	if cap(r.active) >= period {
		r.active = r.active[:period]
		for c := range r.active {
			r.active[c] = r.active[c][:0]
		}
	} else {
		r.active = make([][]grid.NodeID, period)
	}
	r.colorPending = resized(r.colorPending, period)
	r.pendingTotal = 0
}

// reset clears the per-run state for a fresh run on the current topology
// (the frame and the protocol instance reset their own).
func (r *Runner) reset() {
	clear(r.pending)
	clear(r.supplies)
	clear(r.supply)
	clear(r.out)
	for c := range r.active {
		r.active[c] = r.active[c][:0]
	}
	clear(r.colorPending)
	r.pendingTotal = 0
	r.medium.ResetStats()
}

// RunContext executes one simulation, reusing the Runner's allocations,
// with cooperative cancellation checked once per executed slot. A nil ctx
// behaves like context.Background().
func (r *Runner) RunContext(ctx context.Context, cfg Config) (*Result, error) {
	var res *Result
	err := r.run(ctx, cfg)
	if err == nil {
		res = r.Finish()
	}
	r.unbind()
	return res, err
}

// runCounts is RunContext classified by Frame.Counts (see RunCounts).
func (r *Runner) runCounts(ctx context.Context, cfg Config) (Result, error) {
	var res Result
	err := r.run(ctx, cfg)
	if err == nil {
		res = r.Counts()
	}
	r.unbind()
	return res, err
}

// unbind drops the per-run references so a pooled Runner does not pin the
// caller's placement, strategy, hooks or machine between runs.
func (r *Runner) unbind() {
	r.release()
	r.view = adversary.View{}
	r.ledger = nil
	r.builtin.Unbind()
}

// bindBuiltin is the fast engine's Spec instance: the Runner's reusable
// threshold instance, rebound to the run.
func (r *Runner) bindBuiltin(env protocol.Env, spec core.Spec) (protocol.Instance, error) {
	if err := r.builtin.Bind(env, spec); err != nil {
		return nil, err
	}
	return r.builtin, nil
}

// initLive starts every live counter at the node's good-neighbor count:
// its degree, less one per bad neighbor — debited from the bad side, so
// only the bad nodes' rows are walked, and each bad node is out from the
// start. Settlements take it from there (see addPending).
func (r *Runner) initLive() {
	for i := range r.live {
		r.live[i] = int32(r.adj.Degree(grid.NodeID(i)))
	}
	for i, b := range r.Bad {
		if !b {
			continue
		}
		r.out[i] = true
		for _, nb := range r.adj.Neighbors(grid.NodeID(i)) {
			r.live[nb]--
		}
	}
}

// addPending schedules n more transmissions at id and, when id supplies
// Vtrue, credits the supply estimate of its neighbors. On a frontier run
// the call is also how the engine learns that id settled: an instance
// returns a Send for every node it settles, from the call that settles it
// (the seam contract; N may be 0), so the walk that credits id's supply
// to its neighbors also takes id out of their live counts, once.
func (r *Runner) addPending(id grid.NodeID, n int) {
	if n > 0 {
		c := r.colors[id]
		if r.pending[id] <= 0 {
			r.active[c] = append(r.active[c], id)
		}
		r.pending[id] += int32(n)
		r.colorPending[c] += int64(n)
		r.pendingTotal += int64(n)
	}
	var credit int32
	if n > 0 && r.trackSupply && r.St.Value[id] == radio.ValueTrue && !r.Bad[id] {
		r.supplies[id] = true
		credit = int32(n)
	}
	switch {
	case r.frontier && r.St.Settled[id] && !r.out[id]:
		r.out[id] = true
		// Locals keep the retire call from reloading the walk's state at
		// every neighbor.
		supply, live, pending := r.supply, r.live, r.pending
		retiring := r.ledger != nil
		for _, nb := range r.adj.Neighbors(id) {
			supply[nb] += credit
			live[nb]--
			if live[nb] == 0 && retiring && pending[nb] > 0 {
				r.retire(nb)
			}
		}
	case credit > 0:
		for _, nb := range r.adj.Neighbors(id) {
			r.supply[nb] += credit
		}
	}
	if n > 0 && r.ledger != nil && r.live[id] == 0 {
		r.retire(id)
	}
}

// retire books every pending send of v, whose row has settled, in one go
// (see the package comment and retireWindow): each sent one spends budget
// as an emission would and is booked on the ledger, and the window they
// occupy is kept for unretire. A window that would reach MaxSlots is left
// to the slot loop. The threshold instance gives a node one Send, so v
// retires at most once.
func (r *Runner) retire(v grid.NodeID) {
	k := int(r.pending[v])
	period := r.Plan.Period()
	sent, first, last := retireWindow(r.curSlot+1, int(r.colors[v]), period, k, r.GoodBudget[v].Left())
	if last >= r.MaxSlots {
		return
	}
	for i := 0; i < sent; i++ {
		r.GoodBudget[v].TrySpend()
	}
	r.Sent[v] += int32(sent)
	r.Res.GoodMessages += sent
	r.ledger.BookSends(v, int32(sent))
	r.retFirst[v], r.retEnd[v] = int32(first), int32(first+(sent-1)*period+1)
	r.retiredEnd = max(r.retiredEnd, last+1)
	r.retiredTxs += sent
	r.pending[v] = 0
	r.colorPending[r.colors[v]] -= int64(k)
	r.pendingTotal -= int64(k)
}

// retireWindow places k sends pending at a node of colour c, with left
// budget (negative: unlimited), on the schedule from slot next on: they
// go out one per period at the node's colour slots, first at the first
// of them, as the emission loop would send them. It returns how many the
// budget lets out and the first and the last slot they occupy — a send
// the budget refuses is dropped, with the rest, at its own slot, which the
// run still reaches.
func retireWindow(next, c, period, k, left int) (sent, first, last int) {
	sent = k
	if left >= 0 && left < k {
		sent = left
	}
	first = next + (c-next%period+period)%period
	if sent < k {
		return sent, first, first + sent*period
	}
	return sent, first, first + (k-1)*period
}

// unretire appends to txs the retired transmissions slot would have
// carried and takes each back off the ledger: a jammed slot is resolved
// in full, and a jam can change what a settled receiver of one hears.
func (r *Runner) unretire(slot int, txs []radio.Tx) []radio.Tx {
	for _, v := range r.Plan.ColorClasses()[r.Plan.SlotColor(slot)] {
		if int(r.retFirst[v]) <= slot && slot < int(r.retEnd[v]) {
			txs = append(txs, radio.Tx{From: v, Value: r.St.Value[v]})
			r.ledger.BookSends(v, -1)
		}
	}
	return txs
}

// applySends schedules the instance's returned sends, clamping each
// against the node's remaining message budget (pre-seam, the clamp lived
// in the engine's accept path; budgets only change in the emission loop,
// so clamping after the batch is equivalent).
func (r *Runner) applySends(sends []protocol.Send) {
	for _, s := range sends {
		n := s.N
		if left := r.GoodBudget[s.ID].Left(); left >= 0 && n > left {
			n = left
		}
		r.addPending(s.ID, n)
	}
}

// deliveryDriven reports whether the configured strategy never transmits
// in a slot without tentative deliveries, which lets the engine skip idle
// slots wholesale (see adversary.DeliveryDriven).
func (r *Runner) deliveryDriven() bool {
	if r.Cfg.Strategy == nil {
		return true
	}
	dd, ok := r.Cfg.Strategy.(adversary.DeliveryDriven)
	return ok && dd.DeliveryDriven()
}

// nextBusySlot returns the first slot >= slot whose color class has
// pending transmissions, or maxSlots when none arrives before the cap.
// Since pendingTotal > 0 implies some color is busy, the scan is bounded
// by one schedule period.
func (r *Runner) nextBusySlot(slot, maxSlots int) int {
	period := r.Plan.Period()
	for d := 0; d < period; d++ {
		s := slot + d
		if s >= maxSlots {
			return maxSlots
		}
		if r.colorPending[r.Plan.SlotColor(s)] > 0 {
			return s
		}
	}
	return maxSlots
}

func (r *Runner) run(ctx context.Context, cfg Config) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := r.Begin(cfg, r.bindBuiltin); err != nil {
		return err
	}
	if r.adj != r.Plan.Adjacency() {
		r.retarget()
	} else {
		r.reset()
	}
	r.trackSupply = cfg.Strategy != nil
	if r.trackSupply {
		r.view = adversary.View{
			Topo: cfg.Topo, Adj: r.adj,
			Bad: r.Bad, Decided: r.St.Decided, Correct: r.St.Correct, Supply: r.supply,
			Budget: r.BadBudget, Reach: r.Reach, Threshold: r.Inst.Threshold(),
			Scratch: &r.adv,
		}
	}
	r.frontier = r.frontierEligible()
	r.booking = !r.frontier && r.bookEligible()
	r.ledger = r.retireEligible()
	r.frontierSlots, r.settledTxs, r.bookedSlots = 0, 0, 0
	r.retiredEnd, r.retiredTxs = 0, 0
	if r.frontier {
		r.initLive()
	}
	if r.ledger != nil {
		clear(r.retFirst)
		clear(r.retEnd)
	}

	// Bootstrap: the instance pre-decides the source and schedules its
	// opening sends, ahead of slot 0.
	r.curSlot = -1
	r.sendBuf = r.Inst.Bootstrap(r.sendBuf[:0])
	r.applySends(r.sendBuf)
	r.StartLoop()
	clock := &r.clock

	maxSlots := r.MaxSlots
	canSkip := r.deliveryDriven()
	// ctx is polled without a lock: ctx.Err takes the context's mutex,
	// which every executor running on one job's context would contend for
	// once a slot. A context that can never be cancelled has no channel.
	done := ctx.Done()
	slot := 0
	for r.pendingTotal > 0 && slot < maxSlots {
		if done != nil {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
		color := r.Plan.SlotColor(slot)
		if r.colorPending[color] == 0 && canSkip {
			// Nothing transmits and the strategy stays silent on empty
			// slots: fast-forward to the next busy color. The slot
			// counter advances exactly as if the idle slots had run.
			next := r.nextBusySlot(slot+1, maxSlots)
			clock.t.SlotsSkipped += next - slot
			slot = next
			continue
		}
		clock.lap(&clock.t.Loop)
		r.curSlot = slot
		if r.Cfg.Hooks.OnSlotStart != nil {
			r.Cfg.Hooks.OnSlotStart(slot)
		}

		txs := r.txs[:0]
		if r.colorPending[color] > 0 {
			q := r.active[color]
			w := 0
			for _, id := range q {
				if r.pending[id] <= 0 {
					continue // lazily drop drained entries
				}
				if !r.GoodBudget[id].TrySpend() {
					// Budget exhausted below the protocol's send count:
					// drop the remaining pendings (can happen only when
					// a spec sends more than its own budget).
					r.dropPending(id)
					continue
				}
				r.consumePending(id)
				r.Sent[id]++
				r.Res.GoodMessages++
				if r.Cfg.Hooks.OnSend != nil {
					r.Cfg.Hooks.OnSend(slot, id, r.St.Value[id], false)
				}
				txs = append(txs, radio.Tx{From: id, Value: r.St.Value[id]})
				if r.pending[id] > 0 {
					q[w] = id
					w++
				}
			}
			r.active[color] = q[:w]
		}
		r.txs = txs
		clock.lap(&clock.t.Emit)

		// heard: the slot's full batch is non-empty, so the instance gets
		// a Deliver call and a Tick, even when a frontier slot's is empty.
		r.tentative = r.tentative[:0]
		heard := false
		if len(txs) > 0 {
			var err error
			switch {
			case r.booking:
				heard, err = r.bookSlot(slot, txs)
				clock.t.SendsBooked += len(txs)
				clock.lap(&clock.t.Deliver)
			case r.frontier:
				heard, err = r.resolveFrontier(txs)
				clock.lap(&clock.t.Resolve)
			default:
				r.tentative, err = r.medium.ResolveAppend(txs, r.tentative)
				heard = len(r.tentative) > 0
				clock.lap(&clock.t.Resolve)
			}
			if err != nil {
				return err
			}
		}

		var jams []radio.Tx
		if r.Cfg.Strategy != nil {
			jams = r.validateJams(r.Cfg.Strategy.Jams(&r.view, slot, r.tentative))
		}

		if len(jams) > 0 {
			// Resolve in full with the jams included; ResolveAppend reports
			// the same deliveries in the same ascending-receiver order a
			// callback resolve would. A frontier run's slot drops its
			// frontier here and is delivered like any other engine's, with
			// the retired transmissions it would have carried.
			if slot < r.retiredEnd {
				before := len(r.txs)
				r.txs = r.unretire(slot, r.txs)
				clock.t.SendsRetired -= len(r.txs) - before
			}
			r.txs = append(r.txs, jams...)
			r.tentative = r.tentative[:0]
			var err error
			if r.tentative, err = r.medium.ResolveAppend(r.txs, r.tentative); err != nil {
				return err
			}
			heard = len(r.tentative) > 0
			clock.lap(&clock.t.Adversary)
		} else if r.frontier && len(r.txs) > 0 {
			// Jam-free: the frontier is the final batch, and the instance
			// books the rest of what the slot delivered.
			clock.lap(&clock.t.Adversary)
			if err := r.Inst.Book(slot, r.txs); err != nil {
				return err
			}
			clock.lap(&clock.t.Deliver)
			r.frontierSlots++
			r.settledTxs += len(r.txs) - len(r.liveTxs)
			clock.t.SendsFrontier += len(r.liveTxs)
			clock.t.SendsBooked += len(r.txs) - len(r.liveTxs)
		} else {
			clock.lap(&clock.t.Adversary)
		}

		// Hand the slot's final deliveries to the protocol as one batch
		// and schedule the sends it returns. Tick is coupled to a
		// non-empty full batch so every engine ticks the same slot stream.
		if heard {
			r.sendBuf = r.sendBuf[:0]
			var err error
			r.sendBuf, err = r.Inst.Deliver(slot, r.tentative, &r.Cfg.Hooks, r.sendBuf)
			if err != nil {
				return err
			}
			r.sendBuf = r.Inst.Tick(slot, r.sendBuf)
			clock.lap(&clock.t.Deliver)
			r.applySends(r.sendBuf)
			clock.lap(&clock.t.Schedule)
		}
		slot++
	}

	clock.t.SendsRetired += r.retiredTxs
	clock.t.SlotsSkipped += max(r.retiredEnd-slot, 0)
	r.Stop(max(slot, r.retiredEnd), r.pendingTotal > 0, r.medium.GoodGoodCollisions)
	return nil
}

// consumePending removes one pending transmission from id, debiting the
// neighbors' supply when id was a Vtrue supplier — except on a frontier
// run, where resolveFrontier debits the unsettled receivers it visits
// anyway and nobody reads the supply of the rest (settled nodes have
// decided).
func (r *Runner) consumePending(id grid.NodeID) {
	r.pending[id]--
	r.colorPending[r.colors[id]]--
	r.pendingTotal--
	if !r.frontier && r.supplies[id] {
		for _, nb := range r.adj.Neighbors(id) {
			r.supply[nb]--
		}
	}
}

// dropPending discards all remaining pendings of id.
func (r *Runner) dropPending(id grid.NodeID) {
	p := r.pending[id]
	if p <= 0 {
		return
	}
	r.pending[id] = 0
	r.colorPending[r.colors[id]] -= int64(p)
	r.pendingTotal -= int64(p)
	if r.supplies[id] {
		for _, nb := range r.adj.Neighbors(id) {
			r.supply[nb] -= p
		}
	}
}

// frontierEligible decides, per run, whether the slot body may resolve,
// show to the adversary and deliver only the slot's frontier — the
// deliveries to good receivers the instance has not settled. It may when
// nothing can see the difference: an instance that publishes a settled
// mask (and books what the frontier leaves out; Multi publishes none), no
// OnDeliver observer, a strategy whose jams depend on the deliveries to
// undecided receivers alone (adversary.DeliveryDriven; a settled receiver
// has decided), and a plan that verified the coloring — without which a
// jam-free slot could still hold collisions that only full resolution
// counts.
func (r *Runner) frontierEligible() bool {
	return r.St.Settled != nil && r.Cfg.Hooks.OnDeliver == nil &&
		r.Plan.DisjointClasses() && r.deliveryDriven()
}

// retireEligible returns the run's threshold instance when a frontier run
// may retire its settled transmitters (see the package comment), nil
// otherwise. A retired send is booked on the instance's ledger without a
// slot: nothing may watch its slot start or its transmission, and the
// instance must book a transmission as one ledger bump — the threshold
// instance does, the reactive machine's Book draws per transmission.
func (r *Runner) retireEligible() *protocol.ThresholdInstance {
	h := &r.Cfg.Hooks
	if !r.frontier || h.OnSend != nil || h.OnSlotStart != nil {
		return nil
	}
	t, _ := r.Inst.(*protocol.ThresholdInstance)
	return t
}

// bookEligible decides, per run, whether the slot body may hand each slot
// to the instance as its transmissions (see the package comment): the
// instance books whole slots, no Strategy can jam (so every slot is
// jam-free), no hook asks to see a delivery, and the plan verified the
// coloring, so a slot's transmissions reach their senders' whole rows
// without a collision and no transmitter is in range of another.
func (r *Runner) bookEligible() bool {
	h := &r.Cfg.Hooks
	return r.St.BooksSlots && r.Cfg.Strategy == nil && h.OnDeliver == nil &&
		h.OnInstanceDeliver == nil && r.Plan.DisjointClasses()
}

// bookSlot hands a booking run's slot to the instance: it refuses a
// valueless transmission, as ResolveAppend does, and books the rest.
// heard reports whether any transmission had a receiver.
func (r *Runner) bookSlot(slot int, txs []radio.Tx) (heard bool, err error) {
	for i := range txs {
		if txs[i].Value == radio.ValueNone {
			return false, fmt.Errorf("sim: transmission from %d carries ValueNone", txs[i].From)
		}
		if !heard && r.adj.Degree(txs[i].From) > 0 {
			heard = true
		}
	}
	if err := r.Inst.Book(slot, txs); err != nil {
		return false, err
	}
	r.bookedSlots++
	return heard, nil
}

// resolveFrontier fills r.tentative with the slot's frontier in
// ascending receiver order — ResolveDisjoint skips the out receivers, the
// settled and the bad ones — and, on a run with a strategy to read it,
// debits the Vtrue supply of exactly those receivers (see
// consumePending): supply is defined for undecided receivers only, and
// each is debited here in every slot it is reached while undecided, just
// as the per-transmission walk would have. Only the rows with a good
// neighbor the instance has not settled are resolved; a settled row has
// nothing to put on the frontier and is never read, so the valueless
// transmission ResolveDisjoint refuses is refused here for it. heard
// reports whether any transmission had a receiver.
func (r *Runner) resolveFrontier(txs []radio.Tx) (heard bool, err error) {
	live := r.liveTxs[:0]
	for i := range txs {
		from := txs[i].From
		switch {
		case r.live[from] > 0:
			live = append(live, txs[i])
		case txs[i].Value == radio.ValueNone:
			return false, fmt.Errorf("sim: transmission from %d is not a plain good transmission", from)
		case !heard && r.adj.Degree(from) > 0:
			heard = true
		}
	}
	r.liveTxs = live
	if len(live) == 0 {
		return heard, nil
	}
	if r.tentative, err = r.medium.ResolveDisjoint(live, r.out, r.tentative); err != nil {
		return false, err
	}
	if r.trackSupply {
		for _, d := range r.tentative {
			if r.supplies[d.From] {
				r.supply[d.To]--
			}
		}
	}
	return true, nil
}

// validateJams enforces the adversary rules: jams must come from distinct
// bad nodes with remaining budget, carry a trackable value, and each costs
// one budget unit (Frame.SpendJam, which keeps the view's Reach). Duplicate
// senders are detected by marking the accepted ones in jamSeen, cleared
// again on exit.
func (r *Runner) validateJams(jams []radio.Tx) []radio.Tx {
	if len(jams) == 0 {
		return nil
	}
	valid := jams[:0]
	for _, j := range jams {
		switch {
		case int(j.From) < 0 || int(j.From) >= r.Plan.Size(),
			!r.Bad[j.From],
			r.jamSeen[j.From],
			!j.Jam,
			!j.Drop && (j.Value <= 0 || j.Value > maxTrackedValue):
			r.Res.RejectedJams++
			continue
		}
		if !r.SpendJam(j.From) {
			r.Res.RejectedJams++
			continue
		}
		r.jamSeen[j.From] = true
		r.Res.BadMessages++
		if r.Cfg.Hooks.OnSend != nil {
			r.Cfg.Hooks.OnSend(r.curSlot, j.From, j.Value, true)
		}
		valid = append(valid, j)
	}
	for _, j := range valid {
		r.jamSeen[j.From] = false
	}
	return valid
}
