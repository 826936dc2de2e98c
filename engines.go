package bftbcast

import (
	"context"
	"fmt"

	"bftbcast/internal/protocol"
	"bftbcast/internal/radio"
	"bftbcast/internal/sim"
	"bftbcast/internal/sim/ref"
)

// Engine executes a backend-neutral Scenario. Two execution backends
// are provided — EngineFast (the sparse slot-level simulation engine)
// and EngineRef (the dense reference engine, verified bit-identical to
// EngineFast by the differential oracle) — and each of them drives the
// Scenario's protocol state machine (Scenario.Protocol): the threshold
// family from Spec, or the Section 5 reactive protocol.
type Engine interface {
	// Name identifies the engine ("fast", "ref").
	Name() string
	// Run executes the scenario. Cancellation is cooperative: every
	// backend checks ctx once per slot and returns ctx.Err() when it
	// fires, honoring deadlines.
	Run(ctx context.Context, sc *Scenario) (*Report, error)
}

// The execution backends.
var (
	// EngineFast is the sparse slot-level simulation engine (the
	// production path; reuses pooled engine state across runs).
	EngineFast Engine = &engine{name: "fast", run: sim.RunContext, counts: sim.RunCounts}
	// EngineRef is the dense reference engine: slower, deliberately
	// simple, verified bit-identical to EngineFast.
	EngineRef Engine = &engine{name: "ref", run: ref.RunContext, counts: ref.RunCounts}
)

// Engines returns the execution backends.
func Engines() []Engine {
	return []Engine{EngineFast, EngineRef}
}

// NewEngine resolves a backend by name ("fast", "ref"); it backs
// the -engine flag of cmd/bftsim. The reactive protocol is a Scenario
// property (WithProtocol(ProtocolReactive), -protocol reactive), not a
// backend.
func NewEngine(name string) (Engine, error) {
	for _, e := range Engines() {
		if e.Name() == name {
			return e, nil
		}
	}
	return nil, fmt.Errorf("bftbcast: unknown engine %q (want fast or ref; the reactive protocol runs on either: -protocol reactive, WithProtocol(ProtocolReactive))", name)
}

// scenarioMachine resolves the Scenario's protocol selection: nil for
// the default single-broadcast threshold protocol (the engines execute
// Spec through their built-in instance), or a freshly built machine —
// reactive, or the multi-broadcast multiplexer for Broadcasts >= 2.
// Machines are single-run-in-flight, so every Run builds its own. The
// Scenario has been validated, so no combination is left to refuse.
func scenarioMachine(sc *Scenario) protocol.Machine {
	if sc.Broadcasts > 1 {
		return &protocol.Multi{Spec: sc.Spec, M: sc.Broadcasts}
	}
	if sc.Protocol != ProtocolReactive {
		return nil
	}
	m := sc.reactiveMachine()
	return &m
}

// finishReport decorates an engine report with the machine's run record
// (a no-op for the default threshold protocol), whichever backend ran.
func finishReport(rep *Report, machine protocol.Machine) *Report {
	switch m := machine.(type) {
	case *protocol.Reactive:
		attachReactive(rep, m.TakeStats())
	case *protocol.Multi:
		attachMulti(rep, m.TakeStats())
	}
	return rep
}

// simConfig lowers a Scenario to the engines' config — the one lowering
// — including the Observer-to-hooks bridge (observerHooks) and the
// protocol machine, which it also returns for finishReport (nil for the
// default single-broadcast threshold protocol).
func simConfig(sc *Scenario) (sim.Config, protocol.Machine) {
	machine := scenarioMachine(sc)
	cfg := sim.Config{
		Topo:      sc.Topo,
		Params:    sc.Params,
		Spec:      sc.Spec,
		Source:    sc.Source,
		Placement: sc.Placement,
		Strategy:  sc.Strategy,
		Seed:      sc.Seed,
		MaxSlots:  sc.MaxSlots,
		Machine:   machine,
		Timing:    sc.Timing,
	}
	if sc.Observer != nil {
		cfg.Hooks = observerHooks(sc.Observer)
	}
	return cfg, machine
}

// observerHooks lowers an Observer to the engines' hooks. It installs a
// hook only for an event the Observer watches — a refinement it
// implements, or a FuncObserver field that is set — since a slot-start,
// send or deliver hook switches fast slot bodies off (see Observer).
func observerHooks(obs Observer) protocol.Hooks {
	var f FuncObserver
	switch o := obs.(type) {
	case FuncObserver:
		f = o
	case *FuncObserver:
		f = *o
	default:
		f.OnDecide = obs.Decide
		if so, ok := obs.(SlotObserver); ok {
			f.OnSlotStart = so.SlotStart
		}
		if so, ok := obs.(SendObserver); ok {
			f.OnSend = so.Send
		}
		if do, ok := obs.(DeliverObserver); ok {
			f.OnDeliver = do.Deliver
		}
	}
	h := protocol.Hooks{OnSlotStart: f.OnSlotStart, OnSend: f.OnSend, OnAccept: f.OnDecide}
	if deliver := f.OnDeliver; deliver != nil {
		h.OnDeliver = func(slot int, d radio.Delivery) { deliver(slot, d.From, d.To, d.Value) }
	}
	if io, ok := obs.(InstanceObserver); ok {
		h.OnInstanceDeliver = io.DeliverInstance
		h.OnInstanceDecide = io.DecideInstance
	}
	return h
}

// runFunc is the one contract the backends implement.
type runFunc func(context.Context, sim.Config) (*sim.Result, error)

// engine adapts a backend to Engine: normalize, lower, run, lift. counts
// is the backend's tallies-only run of the same contract (sim.RunCounts,
// ref.RunCounts).
type engine struct {
	name   string
	run    runFunc
	counts func(context.Context, sim.Config) (sim.Result, error)
}

// Name implements Engine.
func (e *engine) Name() string { return e.name }

// Run implements Engine.
func (e *engine) Run(ctx context.Context, sc *Scenario) (*Report, error) {
	norm, err := sc.normalized()
	if err != nil {
		return nil, err
	}
	cfg, machine := simConfig(&norm)
	res, err := e.run(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return finishReport(reportFromSim(e.name, res), machine), nil
}

// RunCounts runs sc like Run and returns the Report without its per-node
// state: Decided, DecidedValue and Sent are nil and so is the Sim
// extension, while every other field equals Run's. It is how the job
// service runs a grid point, whose record keeps only the tallies; the
// method is not part of Engine, and callers find it by type assertion.
func (e *engine) RunCounts(ctx context.Context, sc *Scenario) (Report, error) {
	norm, err := sc.normalized()
	if err != nil {
		return Report{}, err
	}
	cfg, machine := simConfig(&norm)
	res, err := e.counts(ctx, cfg)
	if err != nil {
		return Report{}, err
	}
	rep := reportCounts(e.name, &res)
	finishReport(&rep, machine)
	return rep, nil
}
