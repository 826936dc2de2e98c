package bftbcast

import (
	"errors"
	"fmt"

	"bftbcast/internal/protocol"
)

// Scenario is the backend-neutral description of one broadcast
// experiment: the network topology, the fault model, the protocol, the
// adversary, and the run limits. Any Engine executes a Scenario and
// returns a unified *Report, so the same description drives the sparse
// simulation engine and the dense reference engine (see NewEngine).
//
// Build Scenarios with NewScenario and functional options; derive sweep
// variants with With. The zero fields have engine-side defaults: Source
// defaults to node 0 and Params.R to the topology's radio range.
type Scenario struct {
	// Topo is the network topology (required).
	Topo Topology
	// Params is the fault model (r, t, mf). A zero R is filled in from
	// the topology's radio range by NewScenario.
	Params Params
	// Protocol selects the node-level protocol state machine the engine
	// drives: ProtocolThreshold (the default; executes Spec) or
	// ProtocolReactive (the Section 5 unknown-mf protocol, tuned by
	// Reactive). Protocol and engine are orthogonal: any protocol runs
	// on any backend.
	Protocol ProtocolID
	// Spec is the threshold protocol under test (ProtocolThreshold
	// runs). ProtocolReactive derives its protocol from Params and
	// Reactive instead and ignores it.
	Spec Spec
	// Source is the base station (defaults to node 0).
	Source NodeID
	// Placement chooses where bad nodes sit; nil means fault-free.
	Placement Placement
	// Strategy drives what bad nodes transmit; nil means they stay
	// silent. The reactive protocol (policy-driven, see Reactive) rejects
	// it.
	Strategy Strategy
	// Seed drives the run-level randomness of protocols that have any
	// (the reactive protocol's coding patterns). Placements carry their
	// own seeds.
	Seed uint64
	// MaxSlots caps the run; 0 picks a generous
	// engine-derived default.
	MaxSlots int
	// Broadcasts is the number of concurrent broadcast instances
	// (multi-broadcast traffic mode, DESIGN.md §12): M distinct sources
	// — the Scenario's Source plus M-1 good nodes drawn
	// deterministically from the seed — run the threshold protocol
	// concurrently over one TDMA slot stream, with staggered starts and
	// per-transmission batching. 0 and 1 both mean the classic
	// single-broadcast run; >= 2 requires the threshold protocol family
	// and populates the Report.Multi extension.
	Broadcasts int
	// Reactive tunes the reactive protocol; its zero value picks the
	// documented defaults.
	Reactive ReactiveSpec
	// Observer, when non-nil, streams engine events (see Observer).
	Observer Observer
}

// ProtocolID names a node-level protocol state machine (see
// Scenario.Protocol and WithProtocol).
type ProtocolID string

// The protocol state machines.
const (
	// ProtocolThreshold is the static-budget threshold family: the
	// Scenario's Spec (protocol B, Bheter, the Koo baseline,
	// full-budget) executed through the shared acceptance machine. The
	// zero ProtocolID means ProtocolThreshold.
	ProtocolThreshold ProtocolID = "threshold"
	// ProtocolReactive is protocol Breactive (Section 5, unknown mf):
	// certified propagation over the reactive AUED-coded local
	// broadcast, tuned by Scenario.Reactive. The adversary is selected
	// by Reactive.Policy, not a Strategy.
	ProtocolReactive ProtocolID = "reactive"
)

// ReactiveSpec tunes the ProtocolReactive state machine of a Scenario.
// The protocol does not know the adversary budget mf; it only knows
// MMax.
type ReactiveSpec struct {
	// MMax is the loose budget bound known to the protocol (sets the
	// sub-bit length L). 0 defaults to max(64, Params.MF).
	MMax int
	// PayloadBits is the broadcast message size k (0 = 16).
	PayloadBits int
	// Policy selects the adversary behavior (0 = PolicyDisrupt).
	Policy AttackPolicy
}

// ScenarioOption mutates a Scenario under construction (see NewScenario
// and Scenario.With).
type ScenarioOption func(*Scenario)

// NewScenario builds a validated Scenario from the options. A topology
// is required; Params.R defaults to the topology's radio range.
func NewScenario(opts ...ScenarioOption) (*Scenario, error) {
	sc := &Scenario{}
	for _, opt := range opts {
		opt(sc)
	}
	if err := sc.validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

// With returns a validated copy of the Scenario with the options
// applied, leaving the receiver untouched. It is the sweep idiom: build
// one base Scenario, then derive one variant per point.
func (sc *Scenario) With(opts ...ScenarioOption) (*Scenario, error) {
	out := *sc
	for _, opt := range opts {
		opt(&out)
	}
	if err := out.validate(); err != nil {
		return nil, err
	}
	return &out, nil
}

// normalized returns a validated copy with defaults filled, leaving the
// receiver untouched. Engines run on the copy, so a hand-built Scenario
// is never mutated by Run and one Scenario value can safely drive
// concurrent runs. The copy is returned by value, so a caller that
// keeps it on its stack allocates nothing for it.
func (sc *Scenario) normalized() (Scenario, error) {
	out := *sc
	if err := out.validate(); err != nil {
		return Scenario{}, err
	}
	return out, nil
}

// The typed validation errors: every rejection from NewScenario,
// Scenario.With, Scenario.Validate and the Engine entry points wraps
// exactly one of these, so callers that triage submissions — the
// bftsimd job daemon foremost — can classify failures with errors.Is
// instead of matching message text.
var (
	// ErrNoTopology rejects a Scenario without a topology.
	ErrNoTopology = errors.New("bftbcast: scenario needs a topology (WithTopology)")
	// ErrBadParams rejects a nonsensical fault model — r < 1, t outside
	// [0, r(2r+1)), a negative mf — or, for ProtocolReactive, parameters
	// the protocol cannot run with: t above CPAMaxT(r), MMax below
	// max(1, mf), PayloadBits outside the code's range. The wrapped cause
	// names the field.
	ErrBadParams = errors.New("bftbcast: bad scenario Params")
	// ErrBadSource rejects a source node outside the topology.
	ErrBadSource = errors.New("bftbcast: scenario source out of range")
	// ErrBadLimits rejects a negative MaxSlots.
	ErrBadLimits = errors.New("bftbcast: negative scenario limit")
	// ErrBadProtocol rejects an unknown ProtocolID, or a Strategy on
	// ProtocolReactive (whose adversary acts through Reactive.Policy).
	ErrBadProtocol = errors.New("bftbcast: bad scenario Protocol")
	// ErrBadBroadcasts rejects a nonsensical Broadcasts count: negative,
	// more instances than nodes, or the multi-broadcast × reactive
	// conflict (the reactive protocol is single-broadcast).
	ErrBadBroadcasts = errors.New("bftbcast: bad scenario Broadcasts")
)

// Validate checks the Scenario against the engine-independent
// invariants without running it, returning nil or an error wrapping one
// of the typed validation errors (ErrNoTopology, ErrBadParams, ...).
// Defaults are filled on a copy, so the receiver is never mutated. It
// is how the jobs layer rejects a malformed submission at submit time
// instead of failing mid-sweep.
func (sc *Scenario) Validate() error {
	_, err := sc.normalized()
	return err
}

// validate fills defaults and checks the engine-independent invariants.
func (sc *Scenario) validate() error {
	if sc.Topo == nil {
		return ErrNoTopology
	}
	if sc.Params.R == 0 {
		sc.Params.R = sc.Topo.Range()
	}
	if err := sc.Params.Validate(); err != nil {
		return fmt.Errorf("%w: %w", ErrBadParams, err)
	}
	if int(sc.Source) < 0 || int(sc.Source) >= sc.Topo.Size() {
		return fmt.Errorf("%w: source %d not in [0, %d)", ErrBadSource, sc.Source, sc.Topo.Size())
	}
	if sc.MaxSlots < 0 {
		return fmt.Errorf("%w: MaxSlots %d must be >= 0", ErrBadLimits, sc.MaxSlots)
	}
	switch sc.Protocol {
	case "", ProtocolThreshold, ProtocolReactive:
	default:
		return fmt.Errorf("%w: %q (want %q or %q)",
			ErrBadProtocol, sc.Protocol, ProtocolThreshold, ProtocolReactive)
	}
	if sc.Protocol == ProtocolReactive {
		if sc.Strategy != nil {
			return fmt.Errorf("%w: the reactive protocol drives bad nodes through Reactive.Policy, not a Strategy", ErrBadProtocol)
		}
		m := sc.reactiveMachine()
		if err := m.CheckParams(sc.Topo.Range(), sc.Params.T, sc.Params.MF); err != nil {
			return fmt.Errorf("%w: %w", ErrBadParams, err)
		}
	}
	if sc.Broadcasts < 0 {
		return fmt.Errorf("%w: %d must be >= 0", ErrBadBroadcasts, sc.Broadcasts)
	}
	if sc.Broadcasts > 1 {
		if sc.Protocol == ProtocolReactive {
			return fmt.Errorf("%w: multi-broadcast traffic (WithBroadcasts >= 2) runs the threshold protocol family; the reactive protocol is single-broadcast", ErrBadBroadcasts)
		}
		if sc.Broadcasts > sc.Topo.Size() {
			return fmt.Errorf("%w: %d instances exceed the topology's %d nodes", ErrBadBroadcasts, sc.Broadcasts, sc.Topo.Size())
		}
	}
	return nil
}

// reactiveMachine returns the ProtocolReactive machine the Scenario
// describes, ReactiveSpec's documented defaults filled.
func (sc *Scenario) reactiveMachine() protocol.Reactive {
	m := protocol.Reactive{MMax: sc.Reactive.MMax, PayloadBits: sc.Reactive.PayloadBits, Policy: sc.Reactive.Policy}
	if m.MMax == 0 {
		m.MMax = max(64, sc.Params.MF)
	}
	if m.PayloadBits == 0 {
		m.PayloadBits = 16
	}
	return m
}

// WithTopology sets the network topology.
func WithTopology(t Topology) ScenarioOption {
	return func(sc *Scenario) { sc.Topo = t }
}

// WithParams sets the fault model (r, t, mf).
func WithParams(p Params) ScenarioOption {
	return func(sc *Scenario) { sc.Params = p }
}

// WithSpec sets the threshold protocol under test.
func WithSpec(s Spec) ScenarioOption {
	return func(sc *Scenario) { sc.Spec = s }
}

// WithProtocol selects the node-level protocol state machine.
func WithProtocol(p ProtocolID) ScenarioOption {
	return func(sc *Scenario) { sc.Protocol = p }
}

// WithSource sets the base station.
func WithSource(id NodeID) ScenarioOption {
	return func(sc *Scenario) { sc.Source = id }
}

// WithPlacement sets where bad nodes sit.
func WithPlacement(p Placement) ScenarioOption {
	return func(sc *Scenario) { sc.Placement = p }
}

// WithStrategy sets what bad nodes transmit (slot-level engines only).
func WithStrategy(s Strategy) ScenarioOption {
	return func(sc *Scenario) { sc.Strategy = s }
}

// WithAdversary sets placement and strategy together.
func WithAdversary(p Placement, s Strategy) ScenarioOption {
	return func(sc *Scenario) { sc.Placement, sc.Strategy = p, s }
}

// WithSeed sets the engine-level random seed.
func WithSeed(seed uint64) ScenarioOption {
	return func(sc *Scenario) { sc.Seed = seed }
}

// WithMaxSlots caps the run length.
func WithMaxSlots(n int) ScenarioOption {
	return func(sc *Scenario) { sc.MaxSlots = n }
}

// WithBroadcasts sets the number of concurrent broadcast instances (see
// Scenario.Broadcasts). 0 and 1 run the classic single broadcast; m >= 2
// multiplexes m instances with distinct seed-drawn sources over one TDMA
// slot stream.
func WithBroadcasts(m int) ScenarioOption {
	return func(sc *Scenario) { sc.Broadcasts = m }
}

// WithReactive tunes the reactive protocol.
func WithReactive(r ReactiveSpec) ScenarioOption {
	return func(sc *Scenario) { sc.Reactive = r }
}

// WithObserver attaches a streaming event observer.
func WithObserver(o Observer) ScenarioOption {
	return func(sc *Scenario) { sc.Observer = o }
}
