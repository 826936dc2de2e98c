// Package bftbcast is a simulation library for message-efficient
// Byzantine fault-tolerant broadcast in multi-hop wireless sensor grids,
// reproducing Bertier, Kermarrec and Tan, "Message-Efficient Byzantine
// Fault-Tolerant Broadcast in a Multi-Hop Wireless Sensor Network"
// (ICDCS 2010).
//
// The model: n nodes on a toroidal grid with L∞ radio range r; at most t
// Byzantine ("bad") nodes per neighborhood, each with a total message
// budget mf; bad nodes may inject wrong values or collide with concurrent
// transmissions, corrupting or silencing them at common receivers. The
// library provides:
//
//   - the paper's budget bounds (m0, m', Corollary 1, Theorem 4);
//   - protocol B (homogeneous budgets, Theorem 2), protocol Bheter
//     (cross-shaped heterogeneous budgets, Theorem 3), the Koo et al.
//     repetition baseline, and protocol Breactive (unknown mf, Section 5)
//     built on the cryptography-free AUED coding scheme;
//   - a deterministic slot-level simulator with worst-case adversary
//     strategies, including the Theorem 1 stripe and Figure 2 lattice
//     constructions;
//   - pluggable network topologies (the paper's torus, a bounded grid
//     with border effects, a random geometric graph) behind the
//     Topology interface;
//   - the experiment harness regenerating every quantitative claim of
//     the paper (see EXPERIMENTS.md): each experiment's runs are
//     Scenarios, swept in order over the deterministic Sweep pool.
//
// # API layering
//
// A backend-neutral Scenario (topology, fault model, protocol,
// adversary, seed, limits) is executed by an Engine — one of the two
// backends EngineFast, EngineRef — into a unified Report; an Observer
// watches decisions and, through optional refinements, other events;
// Sweep runs Scenarios over a deterministic worker pool (DESIGN.md §8).
//
// Quick start:
//
//	tor, _ := bftbcast.NewTorus(20, 20, 2)
//	params := bftbcast.Params{R: 2, T: 3, MF: 2}
//	spec, _ := bftbcast.NewProtocolB(params)
//	sc, _ := bftbcast.NewScenario(
//		bftbcast.WithTopology(tor),
//		bftbcast.WithParams(params),
//		bftbcast.WithSpec(spec),
//		bftbcast.WithAdversary(
//			bftbcast.RandomPlacement{T: 3, Density: 0.1, Seed: 1},
//			bftbcast.NewCorruptor(),
//		),
//	)
//	rep, _ := bftbcast.EngineFast.Run(context.Background(), sc)
//	fmt.Println(rep.Completed, rep.AvgGoodSends)
package bftbcast

import (
	"bftbcast/internal/adversary"
	"bftbcast/internal/auedcode"
	"bftbcast/internal/core"
	"bftbcast/internal/grid"
	"bftbcast/internal/protocol"
	"bftbcast/internal/radio"
	"bftbcast/internal/sim"
	"bftbcast/internal/topo"
)

// Core model types.
type (
	// Topology is the network abstraction the engine runs on: the
	// paper's torus, a bounded (non-wrapping) grid, or a random
	// geometric graph.
	Topology = topo.Topology
	// TopologySpec selects a topology by name (see NewTopology).
	TopologySpec = topo.Spec
	// Torus is the toroidal grid of the paper, the canonical Topology.
	Torus = grid.Torus
	// BoundedGrid is the non-wrapping grid Topology (border effects).
	BoundedGrid = topo.Bounded
	// RGG is the random-geometric-graph Topology (hop adjacency).
	RGG = topo.RGG
	// NodeID identifies a node (dense, usable as array index).
	NodeID = grid.NodeID
	// Cross is the Figure 5 cross-shaped region used by Bheter.
	Cross = grid.Cross
	// Value is a broadcast value; ValueTrue is the source's.
	Value = radio.Value
	// Params is the fault model (r, t, mf).
	Params = core.Params
	// Spec is an executable threshold-protocol description.
	Spec = core.Spec
)

// Distinguished values and ids.
const (
	ValueTrue  = radio.ValueTrue
	ValueFalse = radio.ValueFalse
	NoNode     = grid.None
)

// Report extension types.
type (
	// SimResult is the engines' shared outcome type, the Report.Sim
	// extension.
	SimResult = sim.Result
	// ReactiveResult is the reactive protocol's run record, the
	// Report.Reactive extension: what only the protocol machine knows
	// (rounds, per-node data and NACK sends, the Theorem 4 quantities).
	// Completion and decisions are the Report's own fields.
	ReactiveResult = protocol.ReactiveStats
	// AttackPolicy selects the reactive adversary's behavior.
	AttackPolicy = protocol.AttackPolicy
)

// Reactive attack policies.
const (
	PolicyDisrupt  = protocol.PolicyDisrupt
	PolicyForge    = protocol.PolicyForge
	PolicyNackSpam = protocol.PolicyNackSpam
	PolicyMixed    = protocol.PolicyMixed
)

// Adversary types.
type (
	// Placement chooses where bad nodes sit.
	Placement = adversary.Placement
	// Strategy drives what bad nodes transmit.
	Strategy = adversary.Strategy
	// StripePlacement is the Theorem 1 / Figure 1 construction.
	StripePlacement = adversary.Stripe
	// SandwichPlacement isolates a band between two stripes (the torus
	// form of the Theorem 1 construction).
	SandwichPlacement = adversary.Sandwich
	// LatticePlacement is the Figure 2 construction (t lattices with
	// spacing 2r+1).
	LatticePlacement = adversary.Lattice
	// RandomPlacement marks random nodes under the t-local bound.
	RandomPlacement = adversary.Random
	// NoPlacement leaves the network fault-free.
	NoPlacement = adversary.None
)

// Coding types (Section 5).
type (
	// Code is the two-level AUED code layout.
	Code = auedcode.Code
	// Codeword is an encoded, transmittable message.
	Codeword = auedcode.Codeword
	// BitString is the code's bit-vector type.
	BitString = auedcode.BitString
)

// NewTorus builds a W×H torus with radio range r.
func NewTorus(w, h, r int) (*Torus, error) { return grid.New(w, h, r) }

// NewBoundedGrid builds a W×H grid with radio range r and no wraparound:
// the torus without the paper's "avoid edge effect" assumption.
func NewBoundedGrid(w, h, r int) (*BoundedGrid, error) { return topo.NewBounded(w, h, r) }

// NewRGG builds a connected random geometric graph with n nodes placed
// from the seed, growing the connection radius until connected. Its
// metric is hop distance and its range is 1 (adjacency).
func NewRGG(n int, seed uint64) (*RGG, error) { return topo.NewConnectedRGG(n, seed) }

// NewTopology builds a topology by name ("torus", "grid", "rgg"); it
// backs the -topology flag of cmd/bftsim.
func NewTopology(s TopologySpec) (Topology, error) { return topo.New(s) }

// NewProtocolB returns the Section 3 protocol (Theorem 2: works whenever
// every good node has budget m >= 2*m0).
func NewProtocolB(p Params) (Spec, error) { return core.NewProtocolB(p) }

// NewBheter returns the Section 4 heterogeneous protocol: cross nodes get
// budget m', everyone else m0 (Theorem 3).
func NewBheter(p Params, t *Torus, cross Cross) (Spec, error) {
	return core.NewBheter(p, t, cross)
}

// NewKooBaseline returns the repetition baseline (2tmf+1 per node) the
// paper compares against.
func NewKooBaseline(p Params) (Spec, error) { return core.NewKooBaseline(p) }

// NewFullBudget returns the maximal-effort protocol with budget m used by
// the impossibility experiments.
func NewFullBudget(p Params, m int) (Spec, error) { return core.NewFullBudget(p, m) }

// NewCorruptor returns the general budget-aware denial strategy.
func NewCorruptor() Strategy { return adversary.NewCorruptor() }

// NewTargeted returns the construction adversary denying only the given
// victim set.
func NewTargeted(victims []bool) Strategy { return adversary.NewTargeted(victims) }

// NewSpammer returns the wrong-value spammer (correctness stress).
func NewSpammer() Strategy { return adversary.NewSpammer() }

// NewCode builds the Section 5 two-level AUED code for k-bit payloads.
func NewCode(k, n, t, mmax int) (*Code, error) { return auedcode.NewCode(k, n, t, mmax) }

// M0 returns the Theorem 1 lower bound ⌈(2tmf+1)/(r(2r+1)−t)⌉ on the
// good-node budget.
func M0(r, t, mf int) int { return core.Params{R: r, T: t, MF: mf}.M0() }

// BreakableT returns the Corollary 1 necessary bound: any larger t can
// defeat every protocol with budgets m and mf.
func BreakableT(m, mf, r int) int { return core.BreakableT(m, mf, r) }

// TolerableT returns the Corollary 1 sufficient bound: any t up to it is
// tolerated by protocol B.
func TolerableT(m, mf, r int) int { return core.TolerableT(m, mf, r) }

// Theorem4Budget returns the Section 5 worst-case sub-slot budget for a
// good node when mf is unknown.
func Theorem4Budget(n, t, mf, mmax, k int) int {
	return core.Theorem4Budget(n, t, mf, mmax, k)
}

// CPAMaxT returns the certified-propagation fault threshold
// (t < ½r(2r+1)) that Breactive inherits.
func CPAMaxT(r int) int { return protocol.CPMaxT(r) }
