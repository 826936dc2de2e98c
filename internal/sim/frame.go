package sim

import (
	"errors"
	"fmt"

	"bftbcast/internal/adversary"
	"bftbcast/internal/core"
	"bftbcast/internal/grid"
	"bftbcast/internal/plan"
	"bftbcast/internal/protocol"
	"bftbcast/internal/radio"
	"bftbcast/internal/topo"
)

// Config describes one simulation run. It is the input half of the one
// contract every engine implements — func(ctx, Config) (*Result, error):
// RunContext here and ref.RunContext.
type Config struct {
	// Topo is the network topology (grid.Torus, topo.Bounded, topo.RGG).
	Topo   topo.Topology
	Params core.Params
	// Spec is the threshold protocol under test, executed through the
	// engine's own threshold instance (see Frame.Begin). Ignored when
	// Machine is set.
	Spec core.Spec
	// Machine, when non-nil, selects a custom protocol state machine
	// (e.g. the Section 5 reactive protocol) instead of the Spec-derived
	// threshold machine. The machine is attached per run.
	Machine protocol.Machine
	// Source is the base station (defaults to node (0,0)).
	Source grid.NodeID
	// Placement chooses the bad set; nil means no bad nodes.
	Placement adversary.Placement
	// Strategy drives the bad nodes; nil means they stay silent.
	Strategy adversary.Strategy
	// Seed drives machine-level randomness (the reactive machine's
	// coding patterns); the threshold machine ignores it.
	Seed uint64
	// MaxSlots caps the run; 0 picks a generous default derived from the
	// protocol sizing and topology size.
	MaxSlots int
	// Hooks observes the run; every engine fires OnSlotStart and the
	// OnSend of its own transmissions and hands the set to the instance,
	// which fires the rest (see protocol.Hooks).
	Hooks protocol.Hooks
	// Timing asks for the run's Result.Timing.
	Timing bool
}

// Result reports the outcome of a run. All slices are owned by the
// caller: the engine copies its internal state into fresh slices before
// returning, so Results stay valid however the engine is reused.
type Result struct {
	// Completed is true when every good node decided Vtrue.
	Completed bool
	// Stalled is true when transmissions drained with good nodes still
	// undecided: the broadcast failed.
	Stalled bool
	// TimedOut is true when MaxSlots elapsed with work pending.
	TimedOut bool

	Slots          int
	TotalGood      int
	DecidedGood    int
	WrongDecisions int // good nodes that accepted a value != Vtrue (Lemma 1: must be 0)

	GoodMessages int // protocol transmissions, source included
	BadMessages  int // adversarial transmissions
	RejectedJams int // strategy bugs: jams from non-bad or broke nodes

	GoodGoodCollisions int // schedule violations (must be 0)
	BadCount           int

	// Per-node final state, indexed by NodeID.
	Decided      []bool
	DecidedValue []radio.Value
	Correct      []int32 // copies of Vtrue received
	Wrong        []int32 // copies of other values received
	Sent         []int32 // protocol messages sent (good nodes)

	AvgGoodSends float64 // mean Sent over good non-source nodes
	MaxGoodSends int

	// Timing is the run's wall time by phase, nil unless Config.Timing.
	Timing *Timing
}

// Frame is the part of a run every engine shares: everything around the
// slot loop. Begin validates the Config, takes the compiled plan, places
// and validates the bad set, attaches the protocol instance, seeds the
// per-node budgets (and, for a Strategy, their reach) and derives the
// slot cap; the engine then runs its own
// loop over the frame's state, bumping Sent and the Res counters, and
// ends it with Stop; Finish lifts the instance's State into a Result, or
// Counts classifies the run without the per-node state. The frame's
// slices and its adversary scratch are reused across runs when the
// topology size allows, so an engine that keeps its Frame (the fast
// Runner embeds one) allocates nothing here beyond the placement mask
// and the Result.
type Frame struct {
	// Cfg is the run's Config. Cfg.Hooks is the hook set the engine fires
	// and hands to every Deliver.
	Cfg Config
	// Plan is the topology's compiled plan, with its TDMA schedule.
	Plan *plan.Plan
	// Bad is the resolved placement (all false without one).
	Bad []bool
	// Inst is the attached protocol instance and St its State.
	Inst protocol.Instance
	St   *protocol.State
	// GoodBudget holds each good node's message budget (the source's is
	// unlimited) and BadBudget each bad node's mf.
	GoodBudget []radio.Budget
	BadBudget  []radio.Budget
	// Reach is adversary.View.Reach: per node, the budget its bad
	// neighbors have left. Begin seeds it when the run has a Strategy and
	// SpendJam debits it; without a Strategy it is not maintained.
	Reach []int32
	// Sent counts each good node's protocol transmissions.
	Sent []int32
	// MaxSlots caps the loop: Cfg.MaxSlots, or a default derived from the
	// instance's sizing, the schedule period and the diameter hint.
	MaxSlots int
	// Res holds the counters the loop bumps — GoodMessages, BadMessages,
	// RejectedJams — and BadCount; Stop and then Finish or Counts fill in
	// the rest.
	Res Result

	// adv is the adversary's working memory: Begin places and validates
	// through it, and the fast Runner lends it to the strategy in its
	// View.
	adv adversary.Scratch
	// clock keeps the run's Timing (see StartLoop).
	clock stopwatch
}

// Begin prepares a run of cfg. A Config without a Machine runs its Spec
// through the instance attachSpec returns, which is each engine's own
// choice: the fast engine's reusable protocol.ThresholdInstance or ref's
// frozen dense acceptance.
func (f *Frame) Begin(cfg Config, attachSpec func(protocol.Env, core.Spec) (protocol.Instance, error)) error {
	f.clock.start(cfg.Timing)
	if cfg.Topo == nil {
		return errors.New("sim: config needs a topology")
	}
	if err := cfg.Params.Validate(); err != nil {
		return err
	}
	if cfg.Machine == nil {
		if err := cfg.Spec.Validate(); err != nil {
			return err
		}
	}
	if cfg.Params.R != cfg.Topo.Range() {
		return fmt.Errorf("sim: params r=%d but topology r=%d", cfg.Params.R, cfg.Topo.Range())
	}
	if f.Plan == nil || f.Plan.Topo() != cfg.Topo {
		f.Plan = plan.For(cfg.Topo)
	}
	if err := f.Plan.ColoringErr(); err != nil {
		return err
	}
	n := cfg.Topo.Size()
	if int(cfg.Source) < 0 || int(cfg.Source) >= n {
		return fmt.Errorf("sim: source %d out of range", cfg.Source)
	}

	placement := cfg.Placement
	if placement == nil {
		placement = adversary.None{}
	}
	bad, err := f.adv.Place(placement, cfg.Topo, cfg.Source)
	if err != nil {
		return fmt.Errorf("sim: placement %q: %w", placement.Name(), err)
	}
	if _, err := f.adv.Validate(cfg.Topo, bad, cfg.Source, cfg.Params.T); err != nil {
		return err
	}

	env := protocol.Env{Plan: f.Plan, Params: cfg.Params, Source: cfg.Source, Bad: bad, Seed: cfg.Seed}
	var inst protocol.Instance
	if cfg.Machine != nil {
		inst, err = cfg.Machine.Attach(env)
	} else {
		inst, err = attachSpec(env, cfg.Spec)
	}
	if err != nil {
		return err
	}

	f.Cfg, f.Bad, f.Inst, f.St = cfg, bad, inst, inst.State()
	f.Res = Result{}
	f.Sent = resized(f.Sent, n)
	f.GoodBudget = resized(f.GoodBudget, n)
	f.BadBudget = resized(f.BadBudget, n)
	if cfg.Strategy != nil {
		f.Reach = resized(f.Reach, n)
	}
	for i := 0; i < n; i++ {
		id := grid.NodeID(i)
		switch {
		case bad[i]:
			f.BadBudget[i] = radio.NewBudget(cfg.Params.MF)
			f.Res.BadCount++
			if cfg.Strategy != nil {
				for _, nb := range f.Plan.Adjacency().Neighbors(id) {
					f.Reach[nb] += int32(cfg.Params.MF)
				}
			}
		case id == cfg.Source:
			f.GoodBudget[i] = radio.Unlimited()
		default:
			f.GoodBudget[i] = radio.NewBudget(inst.GoodBudget(id))
		}
	}

	f.MaxSlots = cfg.MaxSlots
	if f.MaxSlots <= 0 {
		sourceSends, maxSends := inst.Sizing()
		period := f.Plan.Period()
		f.MaxSlots = period * (sourceSends + f.Plan.DiameterHint()*(maxSends+1) + 2*period)
	}
	return nil
}

// SpendJam spends one unit of bad node id's budget for a jam and debits
// Reach over id's row; it reports false, spending nothing, when id is
// broke. Every engine's jam validation spends through it.
func (f *Frame) SpendJam(id grid.NodeID) bool {
	if !f.BadBudget[id].TrySpend() {
		return false
	}
	for _, nb := range f.Plan.Adjacency().Neighbors(id) {
		f.Reach[nb]--
	}
	return true
}

// Stop ends the run's loop after slots slots: pending reports whether
// transmissions were still queued (a timeout once the cap is reached),
// collisions is the medium's good-good collision count.
func (f *Frame) Stop(slots int, pending bool, collisions int) {
	f.clock.lap(&f.clock.t.Loop)
	f.Res.Slots = slots
	f.Res.TimedOut = pending && slots >= f.MaxSlots
	f.Res.GoodGoodCollisions = collisions
}

// Finish tells the instance the stopped run is over, classifies it and
// copies the per-node state into a Result the caller owns.
func (f *Frame) Finish() *Result {
	f.Inst.Finish(f.Res.Slots)
	res := f.classify()
	// Copy the per-node state out of the frame: its slices and the
	// instance's are reset and reused by the next run, and handing them
	// out would retroactively corrupt this Result (see
	// TestResultNotAliased).
	res.Decided = append([]bool(nil), f.St.Decided...)
	res.DecidedValue = append([]radio.Value(nil), f.St.Value...)
	res.Correct = append([]int32(nil), f.St.Correct...)
	res.Wrong = append([]int32(nil), f.St.Wrong...)
	res.Sent = append([]int32(nil), f.Sent...)
	res.Timing = f.timing()
	return &res
}

// Counts classifies the stopped run into a Result without per-node state
// (every slice nil), for a caller that keeps only the tallies. The
// instance of a Config.Machine is still told the run is over, since its
// run record feeds the caller; the Spec instance is not, because its
// ledger fold only completes Correct and Wrong.
func (f *Frame) Counts() Result {
	if f.Cfg.Machine != nil {
		f.Inst.Finish(f.Res.Slots)
	}
	res := f.classify()
	res.Timing = f.timing()
	return res
}

// classify derives the tallies and the verdict from the instance's final
// decisions and the Sent counts.
func (f *Frame) classify() Result {
	res := f.Res
	var sumSends, goodNonSource int
	for i, b := range f.Bad {
		if b {
			continue
		}
		res.TotalGood++
		if f.St.Decided[i] {
			res.DecidedGood++
			if f.St.Value[i] != radio.ValueTrue {
				res.WrongDecisions++
			}
		}
		if grid.NodeID(i) != f.Cfg.Source {
			goodNonSource++
			sumSends += int(f.Sent[i])
			res.MaxGoodSends = max(res.MaxGoodSends, int(f.Sent[i]))
		}
	}
	res.Completed = res.DecidedGood == res.TotalGood && res.WrongDecisions == 0
	res.Stalled = !res.Completed && !res.TimedOut
	if goodNonSource > 0 {
		res.AvgGoodSends = float64(sumSends) / float64(goodNonSource)
	}
	return res
}

// release drops the run's references so a pooled engine does not pin the
// caller's placement, strategy, hooks or machine between runs.
func (f *Frame) release() {
	f.Cfg = Config{}
	f.Bad = nil
	f.Inst = nil
	f.St = nil
}

// resized returns s cleared at length n, reusing its backing array when
// it is big enough — so an engine that hops between same-or-smaller
// topologies (a sweep over sizes, a pooled Runner serving mixed configs)
// stops reallocating its per-node state.
func resized[T any](s []T, n int) []T {
	if cap(s) >= n {
		s = s[:n]
		clear(s)
		return s
	}
	return make([]T, n)
}
