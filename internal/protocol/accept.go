package protocol

import (
	"errors"
	"fmt"

	"bftbcast/internal/grid"
	"bftbcast/internal/radio"
	"bftbcast/internal/topo"
)

// CPMaxT returns the certified-propagation fault threshold
// ⌈½r(2r+1)⌉−1: certified propagation works for t strictly below
// ½r(2r+1) (Bhandari–Vaidya, after Koo).
func CPMaxT(r int) int {
	return (r*(2*r+1)+1)/2 - 1
}

// AcceptConfig parameterizes certified propagation.
type AcceptConfig struct {
	// Topo is the topology (range checks).
	Topo topo.Topology
	// Source is the base station, pre-decided on ValueTrue; a value
	// received straight from it is accepted outright (a neighbor of the
	// source trusts it).
	Source grid.NodeID
	// Threshold is the number of distinct relayers of one value a node
	// must hear from: t+1 for a locally-bounded adversary.
	Threshold int
}

// relayEntry is one recorded relay: relayer from vouched for value v.
// Undecided nodes hold a short flat list of these instead of a per-value
// map — the list stays tiny (a node decides after at most t+1 entries of
// one value plus whatever wrong values the adversary planted), so linear
// scans beat hashing and the per-run memory is O(n) with small constants.
type relayEntry struct {
	from grid.NodeID
	v    radio.Value
}

// Acceptance is the certified-propagation rule of Bhandari–Vaidya (after
// Koo), the acceptance the reactive machine runs: a node accepts a value
// once Threshold = t+1 distinct relayers that all lie inside a single
// (2r+1)×(2r+1) window vouched for it, since such a window holds at most
// t bad nodes and so one relayer is good.
//
// The window condition is enforced structurally, not by a search:
// Deliver only records relays whose sender is within radio range r of
// the receiver, so every relayer set lies inside the window centred at
// the receiver and the certification holds by construction. An explicit
// window scan only becomes meaningful for transports that forward relays
// beyond one hop (e.g. the multi-hop BRB relay protocols of
// Bonomi–Farina–Tixeuil); such a machine must relax the range check and
// reintroduce the search.
//
// An Acceptance serves one run. Its Decided/Value arrays double as the
// State arrays of the machine built on top.
type Acceptance struct {
	cfg AcceptConfig

	// Decided and Value are the flat per-node outcome arrays (see
	// State); engines and wrappers read them directly.
	Decided []bool
	Value   []radio.Value

	// Every node's relay records live in one flat arena instead of a
	// per-node slice: relaySpan[i] is node i's [start,end) window into
	// relayArena. Appends go to the arena tail, relocating a node's short
	// span when another node appended in between — the spans stay tiny (a
	// node decides after at most Threshold entries of one value plus
	// adversary-planted noise), so the relocation copies are bounded and
	// a whole run costs three allocations instead of one per undecided
	// node.
	relaySpan  [][2]int32
	relayArena []relayEntry
}

// NewAcceptance builds the state machine and pre-decides the source on
// ValueTrue.
func NewAcceptance(cfg AcceptConfig) (*Acceptance, error) {
	if cfg.Topo == nil {
		return nil, errors.New("protocol: acceptance needs a topology")
	}
	n := cfg.Topo.Size()
	if int(cfg.Source) < 0 || int(cfg.Source) >= n {
		return nil, fmt.Errorf("protocol: source %d out of range", cfg.Source)
	}
	if cfg.Threshold < 1 {
		return nil, fmt.Errorf("protocol: threshold %d, want >= 1", cfg.Threshold)
	}
	a := &Acceptance{
		cfg:       cfg,
		Decided:   make([]bool, n),
		Value:     make([]radio.Value, n),
		relaySpan: make([][2]int32, n),
	}
	a.Decided[cfg.Source] = true
	a.Value[cfg.Source] = radio.ValueTrue
	return a, nil
}

// Deliver processes one relay of value v from sender from at node to and
// returns true when it caused to to accept: record the relay, and accept
// once Threshold distinct relayers vouched for v (or the value came
// straight from the source). Deliveries to already-decided nodes,
// self-deliveries, out-of-range relays and duplicate relayers are
// ignored; the range check is what makes the window certification hold
// by construction (see Acceptance).
func (a *Acceptance) Deliver(to, from grid.NodeID, v radio.Value) bool {
	if a.Decided[to] || to == from {
		return false
	}
	if a.cfg.Topo.Dist(to, from) > a.cfg.Topo.Range() {
		return false // out of radio range; transport bug
	}
	// Direct reception from the source is accepted outright.
	if from == a.cfg.Source {
		a.accept(to, v)
		return true
	}
	span := a.relaySpan[to]
	entries := a.relayArena[span[0]:span[1]]
	count := 0
	for _, e := range entries {
		if e.v != v {
			continue
		}
		if e.from == from {
			return false // duplicate relayer
		}
		count++
	}
	// Append to the arena tail; when another node appended since this
	// node's last relay, relocate the (tiny) span to the tail first.
	if int(span[1]) != len(a.relayArena) {
		start := int32(len(a.relayArena))
		a.relayArena = append(a.relayArena, entries...)
		span = [2]int32{start, start + span[1] - span[0]}
	}
	a.relayArena = append(a.relayArena, relayEntry{from: from, v: v})
	span[1]++
	a.relaySpan[to] = span
	if count+1 < a.cfg.Threshold {
		return false
	}
	a.accept(to, v)
	return true
}

// accept commits node id to v and drops its relay records.
func (a *Acceptance) accept(id grid.NodeID, v radio.Value) {
	a.Decided[id] = true
	a.Value[id] = v
	a.relaySpan[id] = [2]int32{}
}
