package core

import (
	"fmt"

	"bftbcast/internal/grid"
	"bftbcast/internal/topo"
)

// Spec is an executable description of a threshold broadcast protocol: how
// often the source repeats, the acceptance threshold, and how many times a
// node relays its accepted value. The simulation engine (package sim) runs
// a Spec against an adversary; the constructors below produce the paper's
// protocols.
type Spec struct {
	// Name identifies the protocol in reports.
	Name string
	// SourceRepeats is the number of local broadcasts by the base
	// station.
	SourceRepeats int
	// Threshold is the number of copies of a value a node must receive
	// before accepting it.
	Threshold int
	// Sends returns how many times the given node relays its accepted
	// value. It must be deterministic and non-negative.
	Sends func(id grid.NodeID) int
	// Budget returns the message budget of the given good node (used for
	// enforcement and for average-cost reporting). It must be >= Sends.
	Budget func(id grid.NodeID) int
	// MaxSends, when positive, is the maximum of Sends over all nodes —
	// a hint that lets the engines size their slot horizon without
	// re-evaluating Sends over the whole topology every run. The
	// constructors in this package and package koo set it; hand-built
	// specs may leave it 0 (the engines fall back to one scan per run).
	MaxSends int
}

// Validate performs basic sanity checks on the spec.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("core: spec has no name")
	}
	if s.SourceRepeats < 1 {
		return fmt.Errorf("core: spec %q: SourceRepeats = %d, want >= 1", s.Name, s.SourceRepeats)
	}
	if s.Threshold < 1 {
		return fmt.Errorf("core: spec %q: Threshold = %d, want >= 1", s.Name, s.Threshold)
	}
	if s.Sends == nil || s.Budget == nil {
		return fmt.Errorf("core: spec %q: Sends and Budget must be set", s.Name)
	}
	return nil
}

// constSends adapts a constant to the Sends/Budget signature. Constants
// below len(constFuncs) share one func, so a spec allocates none for them.
func constSends(n int) func(grid.NodeID) int {
	if uint(n) < uint(len(constFuncs)) {
		return constFuncs[n]
	}
	return func(grid.NodeID) int { return n }
}

var constFuncs = func() (fs [256]func(grid.NodeID) int) {
	for n := range fs {
		fs[n] = func(grid.NodeID) int { return n }
	}
	return fs
}()

// NewProtocolB builds the Section 3 protocol B for the given fault model:
// the source repeats 2·t·mf+1 times; every node, upon accepting a value,
// relays it m' = ⌈(2tmf+1)/⌈g/2⌉⌉ times; a node accepts a value once
// received t·mf+1 times. Good nodes need budget m >= 2·m0 (Theorem 2).
func NewProtocolB(p Params) (Spec, error) {
	if err := p.Validate(); err != nil {
		return Spec{}, err
	}
	return Spec{
		Name:          "B",
		SourceRepeats: p.SourceRepeats(),
		Threshold:     p.Threshold(),
		Sends:         constSends(p.RelaySends()),
		Budget:        constSends(p.HomogeneousBudget()),
		MaxSends:      p.RelaySends(),
	}, nil
}

// NewBheter builds the Section 4 heterogeneous protocol: nodes inside the
// cross-shaped region relay m' times (budget m'), all other nodes relay m0
// times (budget m0). Only Θ(r³) nodes per unit area of the proof's cross
// need the boosted budget, which brings the average budget close to m0.
func NewBheter(p Params, t *grid.Torus, cross grid.Cross) (Spec, error) {
	if err := p.Validate(); err != nil {
		return Spec{}, err
	}
	if t == nil {
		return Spec{}, fmt.Errorf("core: NewBheter requires a torus")
	}
	boosted := p.RelaySends()
	base := p.M0()
	sends := func(id grid.NodeID) int {
		if t.InCross(cross, id) {
			return boosted
		}
		return base
	}
	return Spec{
		Name:          "Bheter",
		SourceRepeats: p.SourceRepeats(),
		Threshold:     p.Threshold(),
		Sends:         sends,
		Budget:        sends,
		MaxSends:      max(boosted, base),
	}, nil
}

// NewFullBudget builds the "best possible effort" protocol used by the
// impossibility experiments (Theorem 1, Figure 2): every node spends its
// entire budget m relaying its accepted value, with the only sound
// acceptance threshold t·mf+1. If broadcast stalls even under this
// maximal-effort protocol, no protocol with the same budget can do better
// on supply counting grounds.
func NewFullBudget(p Params, m int) (Spec, error) {
	if err := p.Validate(); err != nil {
		return Spec{}, err
	}
	if m < 1 {
		return Spec{}, fmt.Errorf("core: NewFullBudget needs m >= 1, got %d", m)
	}
	return Spec{
		Name:          fmt.Sprintf("full-budget(m=%d)", m),
		SourceRepeats: p.SourceRepeats(),
		Threshold:     p.Threshold(),
		Sends:         constSends(m),
		Budget:        constSends(m),
		MaxSends:      m,
	}, nil
}

// NewKooBaseline builds the baseline scheme the paper compares protocol B
// against (Sections 1.3 and 3): the repetition protocol suggested by Koo,
// Bhandari, Katz and Vaidya (PODC'06), adapted to the message-budget
// model. The source and every good node repeat the accepted value
// 2·t·mf+1 times (KooBudget), so each node overcomes the worst-case t·mf
// collisions of its own neighborhood single-handedly; acceptance needs
// t·mf+1 copies. Protocol B is ½(r(2r+1)−t) times cheaper because nearby
// good nodes share that work.
func NewKooBaseline(p Params) (Spec, error) {
	if err := p.Validate(); err != nil {
		return Spec{}, err
	}
	repeats := p.KooBudget()
	return Spec{
		Name:          "koo-baseline",
		SourceRepeats: p.SourceRepeats(),
		Threshold:     p.Threshold(),
		Sends:         constSends(repeats),
		Budget:        constSends(repeats),
		MaxSends:      repeats,
	}, nil
}

// AverageBudget returns the mean of Budget over all nodes of t except the
// source (the base station is unbounded). It is the metric Theorem 3
// improves: Bheter's average approaches m0 while protocol B's is 2·m0.
func (s Spec) AverageBudget(t topo.Topology, source grid.NodeID) float64 {
	var sum float64
	n := 0
	for i := 0; i < t.Size(); i++ {
		id := grid.NodeID(i)
		if id == source {
			continue
		}
		sum += float64(s.Budget(id))
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
