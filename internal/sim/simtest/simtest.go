// Package simtest provides the shared testing vocabulary for the
// simulation engines: the universal protocol invariants (Lemma 1 and the
// TDMA schedule guarantee), a randomized configuration generator fuzzing
// the topology × placement × strategy × spec matrix, and the
// differential-testing oracle that asserts the sparse fast engine
// (package sim) and the dense reference engine (package sim/ref) produce
// bit-identical Results.
//
// It is imported by the test suites of sim, sim/ref and the root
// package; importing it from non-test code is harmless but pulls in the
// reference engine.
package simtest

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"bftbcast/internal/adversary"
	"bftbcast/internal/core"
	"bftbcast/internal/grid"
	"bftbcast/internal/protocol"
	"bftbcast/internal/radio"
	"bftbcast/internal/sim"
	"bftbcast/internal/sim/ref"
	"bftbcast/internal/stats"
	"bftbcast/internal/topo"
)

// InvariantViolation checks the invariants every run must satisfy
// regardless of configuration, and returns a descriptive error on the
// first violation:
//
//   - Lemma 1: no good node ever decides a value != Vtrue;
//   - the TDMA schedule admits no good-good collisions;
//   - per-node message budgets are respected (Sent <= Spec.Budget);
//   - every Vtrue decision is backed by >= Threshold correct copies.
func InvariantViolation(cfg sim.Config, res *sim.Result) error {
	if res.WrongDecisions != 0 {
		return fmt.Errorf("Lemma 1 violated: %d wrong decisions", res.WrongDecisions)
	}
	if res.GoodGoodCollisions != 0 {
		return fmt.Errorf("TDMA violated: %d good-good collisions", res.GoodGoodCollisions)
	}
	for i := range res.Sent {
		id := grid.NodeID(i)
		if id == cfg.Source {
			continue
		}
		if b := cfg.Spec.Budget(id); b >= 0 && int(res.Sent[i]) > b {
			return fmt.Errorf("node %d sent %d > budget %d", i, res.Sent[i], b)
		}
		if res.Decided[i] && res.DecidedValue[i] == 1 && res.Correct[i] < int32(cfg.Spec.Threshold) {
			return fmt.Errorf("node %d decided with %d < threshold %d correct copies",
				i, res.Correct[i], cfg.Spec.Threshold)
		}
	}
	return nil
}

// CheckInvariants is InvariantViolation as a test assertion.
func CheckInvariants(t testing.TB, cfg sim.Config, res *sim.Result) {
	t.Helper()
	if err := InvariantViolation(cfg, res); err != nil {
		t.Fatal(err)
	}
}

// Safety checks a run's safety properties while it executes, on any
// engine: it watches the OnSend and OnAccept hooks of Config.Hooks, which
// the fast and reference engines both fire. It never sets OnDeliver,
// whose presence takes the fast engine off its frontier path, so a
// watched run keeps its frontier and booked slots; its OnSend hook does
// switch retirement off, since a retired send is never emitted, so a
// retiring run is held to the reference engine and to CheckInvariants
// instead (TestRetiredSendsMatchRef). Err reports the first of these
// events:
//
//   - a good node accepts twice (the source is accepted from the start);
//   - a bad node accepts;
//   - a good transmission from a node that has not accepted, or carrying
//     a value other than the one it accepted;
//   - a good node sends more than its budget (the Spec's, for threshold
//     runs; the source and other machines are unlimited);
//   - a bad node transmits more than mf times, or a good node
//     adversarially;
//   - a decision on a value other than Vtrue, when the run asserts none.
type Safety struct {
	bad      []bool
	budget   func(grid.NodeID) int // nil: unlimited
	source   grid.NodeID
	mf       int32
	noWrong  bool
	accepted []bool
	value    []radio.Value
	sends    []int32
	err      error
}

// WatchSafety attaches a Safety to cfg.Hooks, chaining any OnSend and
// OnAccept hooks already set. It resolves cfg's placement (placements are
// deterministic) to learn the bad set; noWrong makes a decision on a value
// other than Vtrue a violation.
func WatchSafety(cfg *sim.Config, noWrong bool) (*Safety, error) {
	n := cfg.Topo.Size()
	s := &Safety{
		source:   cfg.Source,
		mf:       int32(cfg.Params.MF),
		noWrong:  noWrong,
		accepted: make([]bool, n),
		value:    make([]radio.Value, n),
		sends:    make([]int32, n),
		bad:      make([]bool, n),
	}
	if cfg.Placement != nil {
		bad, err := cfg.Placement.Place(cfg.Topo, cfg.Source)
		if err != nil {
			return nil, err
		}
		s.bad = bad
	}
	switch m := cfg.Machine.(type) {
	case nil:
		s.budget = cfg.Spec.Budget
	case *protocol.Threshold:
		s.budget = m.Spec.Budget
	}
	if int(cfg.Source) >= 0 && int(cfg.Source) < n {
		s.accepted[cfg.Source], s.value[cfg.Source] = true, radio.ValueTrue
	}
	onSend, onAccept := cfg.Hooks.OnSend, cfg.Hooks.OnAccept
	cfg.Hooks.OnSend = func(slot int, from grid.NodeID, v radio.Value, adversarial bool) {
		if onSend != nil {
			onSend(slot, from, v, adversarial)
		}
		s.send(slot, from, v, adversarial)
	}
	cfg.Hooks.OnAccept = func(slot int, id grid.NodeID, v radio.Value) {
		if onAccept != nil {
			onAccept(slot, id, v)
		}
		s.accept(slot, id, v)
	}
	return s, nil
}

// Err returns the first violation the run committed, or nil.
func (s *Safety) Err() error { return s.err }

func (s *Safety) fail(format string, args ...any) {
	if s.err == nil {
		s.err = fmt.Errorf(format, args...)
	}
}

func (s *Safety) send(slot int, from grid.NodeID, v radio.Value, adversarial bool) {
	s.sends[from]++
	switch {
	case adversarial && !s.bad[from]:
		s.fail("slot %d: good node %d transmitted adversarially", slot, from)
	case adversarial && s.sends[from] > s.mf:
		s.fail("slot %d: bad node %d transmitted %d times, mf = %d", slot, from, s.sends[from], s.mf)
	case adversarial:
	case s.bad[from]:
		s.fail("slot %d: bad node %d sent a protocol transmission", slot, from)
	case !s.accepted[from] || v != s.value[from]:
		s.fail("slot %d: node %d transmitted %d, accepted %d (decided %v)", slot, from, v, s.value[from], s.accepted[from])
	case from != s.source && s.budget != nil && s.budget(from) >= 0 && int(s.sends[from]) > s.budget(from):
		s.fail("slot %d: node %d sent %d messages, budget %d", slot, from, s.sends[from], s.budget(from))
	}
}

func (s *Safety) accept(slot int, id grid.NodeID, v radio.Value) {
	switch {
	case s.bad[id]:
		s.fail("slot %d: bad node %d accepted %d", slot, id, v)
	case s.accepted[id]:
		s.fail("slot %d: node %d accepted %d after %d", slot, id, v, s.value[id])
	case s.noWrong && v != radio.ValueTrue:
		s.fail("slot %d: node %d decided the wrong value %d", slot, id, v)
	}
	if !s.bad[id] && !s.accepted[id] {
		s.accepted[id], s.value[id] = true, v
	}
}

// Case is one randomized simulation configuration. Build returns a fresh
// sim.Config on every call: adversary strategies carry per-run scratch
// state, so each engine (and each repetition) must receive its own
// instance.
type Case struct {
	Desc  string
	Build func() sim.Config
}

// Gen produces randomized Cases over a fixed pool of topologies. The
// pool is built once per Gen, so generating many cases does not re-run
// topology construction (the RGG layout search in particular).
type Gen struct {
	rng  *stats.RNG
	pool []poolEntry
}

type poolEntry struct {
	tp topo.Topology
	r  int // fault-model range (rgg uses hop range 1)
}

// NewGen returns a generator seeded from seed.
func NewGen(seed uint64) (*Gen, error) {
	g := &Gen{rng: stats.NewRNG(seed)}
	torus9, err := grid.New(9, 9, 1)
	if err != nil {
		return nil, err
	}
	torus15, err := grid.New(15, 15, 2)
	if err != nil {
		return nil, err
	}
	torus20, err := grid.New(20, 20, 2)
	if err != nil {
		return nil, err
	}
	bounded, err := topo.NewBounded(14, 17, 2)
	if err != nil {
		return nil, err
	}
	rgg, err := topo.NewConnectedRGG(150, seed|1)
	if err != nil {
		return nil, err
	}
	g.pool = []poolEntry{
		{torus9, 1}, {torus15, 2}, {torus20, 2}, {bounded, 2}, {rgg, 1},
	}
	return g, nil
}

// Next draws the next randomized Case.
func (g *Gen) Next() Case {
	e := g.pool[g.rng.Intn(len(g.pool))]
	n := e.tp.Size()

	// Fault model: t is kept small so random placements usually succeed,
	// and mf small so the runs stay short.
	t := g.rng.Intn(4)
	mf := g.rng.Intn(4)
	p := core.Params{R: e.r, T: t, MF: mf}
	if p.Validate() != nil {
		p = core.Params{R: e.r, T: 0, MF: 0}
	}

	// Spec: protocol B, the maximal-effort protocol near the m0 boundary,
	// or the Koo-style repetition budget via FullBudget.
	var spec core.Spec
	var err error
	switch g.rng.Intn(3) {
	case 0:
		spec, err = core.NewProtocolB(p)
	case 1:
		spec, err = core.NewFullBudget(p, maxInt(1, p.M0()-1+g.rng.Intn(3)))
	default:
		spec, err = core.NewFullBudget(p, p.M0()+1+g.rng.Intn(4))
	}
	if err != nil {
		spec, _ = core.NewProtocolB(p)
	}

	source := grid.NodeID(g.rng.Intn(n))

	// Placement and strategy. Strategies are built inside Build so each
	// engine run gets fresh scratch state.
	var placement adversary.Placement
	strategyKind := 0
	if p.T > 0 {
		density := float64(g.rng.Intn(8)+1) / 100
		placement = adversary.Random{T: p.T, Density: density, Seed: g.rng.Uint64()}
		strategyKind = g.rng.Intn(4) // 0 none, 1 corruptor, 2 spammer, 3 targeted
	}
	victimSeed := g.rng.Uint64()
	maxSlots := 0
	if g.rng.Intn(8) == 0 {
		maxSlots = 50 + g.rng.Intn(500) // occasionally exercise TimedOut
	}

	desc := fmt.Sprintf("%v t=%d mf=%d spec=%s src=%d strat=%d maxSlots=%d",
		e.tp, p.T, p.MF, spec.Name, source, strategyKind, maxSlots)
	build := func() sim.Config {
		cfg := sim.Config{
			Topo: e.tp, Params: p, Spec: spec, Source: source,
			Placement: placement, MaxSlots: maxSlots,
		}
		switch strategyKind {
		case 1:
			cfg.Strategy = adversary.NewCorruptor()
		case 2:
			cfg.Strategy = adversary.NewSpammer()
		case 3:
			vr := stats.NewRNG(victimSeed)
			victims := make([]bool, n)
			for i := range victims {
				victims[i] = vr.Intn(10) == 0
			}
			cfg.Strategy = adversary.NewTargeted(victims)
		}
		return cfg
	}
	return Case{Desc: desc, Build: build}
}

// NextFaultFree draws a randomized Case with no adversary: same
// topology/spec/source fuzzing as Next, but placement and strategy are
// stripped.
func (g *Gen) NextFaultFree() Case {
	c := g.Next()
	inner := c.Build
	return Case{
		Desc: c.Desc + " (fault-free)",
		Build: func() sim.Config {
			cfg := inner()
			cfg.Placement = nil
			cfg.Strategy = nil
			return cfg
		},
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// DiffEngines runs the Case through the fast engine and the dense
// reference engine and returns an error unless the Results are
// bit-identical. It is the differential-testing oracle: any divergence —
// a flag, a counter, a per-node slice entry — fails. Each run is watched
// by its own Safety that asserts Lemma 1 (no wrong decision) on top, so
// the safety properties are checked during both runs, the fast one on the
// body unobserved runs take; a violation is reported before any
// divergence it causes. On success it returns the fast engine's Result
// (nil when both engines rejected the config) so callers can inspect the
// case mix without a third run.
func DiffEngines(c Case) (*sim.Result, error) {
	cfg, denseCfg := c.Build(), c.Build()
	safety, watchErr := WatchSafety(&cfg, true)
	denseSafety, denseWatchErr := WatchSafety(&denseCfg, true)
	fast, fastErr := sim.RunContext(context.Background(), cfg)
	dense, denseErr := ref.RunContext(context.Background(), denseCfg)
	if (fastErr != nil) != (denseErr != nil) {
		return nil, fmt.Errorf("%s: error divergence: fast=%v dense=%v", c.Desc, fastErr, denseErr)
	}
	if fastErr != nil {
		return nil, nil // both rejected the config identically enough
	}
	if err := errors.Join(watchErr, denseWatchErr); err != nil {
		return nil, fmt.Errorf("%s: the engines placed the adversary, the safety check could not: %w", c.Desc, err)
	}
	if err := safety.Err(); err != nil {
		return nil, fmt.Errorf("%s: fast: %w", c.Desc, err)
	}
	if err := denseSafety.Err(); err != nil {
		return nil, fmt.Errorf("%s: ref: %w", c.Desc, err)
	}
	if err := DiffResults(fast, dense); err != nil {
		return nil, fmt.Errorf("%s: %w", c.Desc, err)
	}
	return fast, nil
}

// DiffResults compares two Results field by field, reporting the first
// mismatch by name (reflect.DeepEqual alone would report "not equal").
func DiffResults(fast, dense *sim.Result) error {
	fv := reflect.ValueOf(*fast)
	dv := reflect.ValueOf(*dense)
	tp := fv.Type()
	for i := 0; i < tp.NumField(); i++ {
		f, d := fv.Field(i).Interface(), dv.Field(i).Interface()
		if ff, ok := f.(float64); ok {
			// Float fields are derived from identical integer state by an
			// identical expression; require bit equality, not closeness.
			if math.Float64bits(ff) != math.Float64bits(d.(float64)) {
				return fmt.Errorf("field %s: fast %v vs dense %v", tp.Field(i).Name, f, d)
			}
			continue
		}
		if !reflect.DeepEqual(f, d) {
			return fmt.Errorf("field %s: fast %v vs dense %v", tp.Field(i).Name, f, d)
		}
	}
	return nil
}
