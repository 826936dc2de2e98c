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

// AcceptConfig parameterizes the unified acceptance state machine.
type AcceptConfig struct {
	// Topo is the topology (needed for range checks and window
	// certification in distinct mode; counts mode only uses its size).
	Topo topo.Topology
	// Source is the base station, pre-decided on ValueTrue.
	Source grid.NodeID
	// Threshold is the acceptance threshold: copies of one value in
	// counts mode, distinct relayers of one value in distinct mode.
	Threshold int
	// Distinct switches from counting copies to counting distinct
	// relayers — the certified-propagation rule of Bhandari–Vaidya:
	// accept at Threshold = t+1 distinct relayers that all lie inside a
	// single (2r+1)×(2r+1) window (which contains at most t bad nodes
	// for a locally-bounded adversary, so one relayer is good).
	//
	// The window condition is enforced structurally, not by a search:
	// deliverDistinct only records relays whose sender is within radio
	// range r of the receiver, so every relayer set lies inside the
	// window centred at the receiver and the certification is satisfied
	// by construction. An explicit window scan only becomes meaningful
	// for transports that forward relays beyond one hop (e.g. the
	// multi-hop BRB relay protocols of Bonomi–Farina–Tixeuil); such a
	// machine must relax the range check and reintroduce the search.
	Distinct bool
	// SourceDirect, in distinct mode, accepts a value received straight
	// from the source outright (a neighbor of the source trusts it).
	SourceDirect bool
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

// Acceptance is the unified acceptance state machine: per-node threshold
// acceptance over copies (protocols B, Bheter, Koo, full-budget) or over
// window-certified distinct relayers (certified propagation). It is
// driven by Deliver calls and reports acceptances through the OnAccept
// callback; its Decided/Value arrays double as the State arrays of the
// machines built on top.
type Acceptance struct {
	cfg AcceptConfig
	n   int

	// Decided and Value are the flat per-node outcome arrays (see
	// State); engines and wrappers read them directly.
	Decided []bool
	Value   []radio.Value

	counts []int32 // counts mode: [node*(MaxTrackedValue+1) + value]

	// Distinct mode keeps every node's relay records in one flat arena
	// instead of a per-node slice: relaySpan[i] is node i's [start,end)
	// window into relayArena, valid only when relayStamp[i] matches the
	// current relayEpoch. Appends go to the arena tail, relocating a
	// node's short span when another node appended in between — the spans
	// stay tiny (a node decides after at most Threshold entries of one
	// value plus adversary-planted noise), so the relocation copies are
	// bounded and a whole run costs three allocations instead of one per
	// undecided node. Rebinding bumps relayEpoch, invalidating every span
	// without clearing.
	relaySpan  [][2]int32
	relayStamp []int32
	relayEpoch int32
	relayArena []relayEntry

	// OnAccept, when non-nil, observes each acceptance.
	OnAccept func(id grid.NodeID, v radio.Value)
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
		cfg:     cfg,
		n:       n,
		Decided: make([]bool, n),
		Value:   make([]radio.Value, n),
	}
	if cfg.Distinct {
		a.relaySpan = make([][2]int32, n)
		a.relayStamp = make([]int32, n)
		a.relayEpoch = 1
	} else {
		a.counts = make([]int32, n*(MaxTrackedValue+1))
	}
	a.bootstrap()
	return a, nil
}

func (a *Acceptance) bootstrap() {
	a.Decided[a.cfg.Source] = true
	a.Value[a.cfg.Source] = radio.ValueTrue
}

// bindCounts re-arms a counts-mode acceptance in place for a new run,
// reusing its arrays when the topology size is unchanged (the reusable
// engine path — see ThresholdInstance.Bind).
func (a *Acceptance) bindCounts(t topo.Topology, source grid.NodeID, threshold int) {
	a.cfg = AcceptConfig{Topo: t, Source: source, Threshold: threshold}
	n := t.Size()
	a.n = n
	a.relaySpan, a.relayStamp, a.relayArena = nil, nil, nil
	if len(a.Decided) != n || a.counts == nil {
		a.Decided = make([]bool, n)
		a.Value = make([]radio.Value, n)
		a.counts = make([]int32, n*(MaxTrackedValue+1))
	} else {
		clear(a.Decided)
		clear(a.Value)
		clear(a.counts)
	}
	a.bootstrap()
}

// Source returns the base station node.
func (a *Acceptance) Source() grid.NodeID { return a.cfg.Source }

// DecidedValue reports whether id has accepted, and which value.
func (a *Acceptance) DecidedValue(id grid.NodeID) (radio.Value, bool) {
	return a.Value[id], a.Decided[id]
}

// Deliver processes one received copy of value v at node to, claimed by
// sender from. It returns true when the delivery caused to to accept.
// Deliveries to already-decided nodes are ignored; distinct mode
// additionally ignores self-deliveries, out-of-range relays and
// duplicate relayers.
func (a *Acceptance) Deliver(to, from grid.NodeID, v radio.Value) bool {
	if a.cfg.Distinct {
		return a.deliverDistinct(to, from, v)
	}
	return a.deliverCounts(to, v)
}

// deliverCounts is the copies-threshold rule, the acceptance hot path of
// the slot-level engines: bump the (node, value) counter and accept
// exactly at the threshold crossing.
func (a *Acceptance) deliverCounts(to grid.NodeID, v radio.Value) bool {
	tracked := v
	if tracked < 0 || tracked > MaxTrackedValue {
		tracked = MaxTrackedValue // clamp exotic values into the last bucket
	}
	idx := int(to)*(MaxTrackedValue+1) + int(tracked)
	a.counts[idx]++
	if a.Decided[to] || a.counts[idx] != int32(a.cfg.Threshold) {
		return false
	}
	a.accept(to, v)
	return true
}

// deliverDistinct is the certified-propagation rule: record the relay,
// and accept once Threshold distinct relayers vouched for v (or the
// value came straight from the source). The range check below is what
// makes the Bhandari–Vaidya window certification hold by construction —
// see the Distinct field's doc comment.
func (a *Acceptance) deliverDistinct(to, from grid.NodeID, v radio.Value) bool {
	if a.Decided[to] || to == from {
		return false
	}
	if a.cfg.Topo.Dist(to, from) > a.cfg.Topo.Range() {
		return false // out of radio range; transport bug
	}
	// Direct reception from the source is accepted outright.
	if a.cfg.SourceDirect && from == a.cfg.Source {
		a.accept(to, v)
		return true
	}
	span := a.relaySpan[to]
	if a.relayStamp[to] != a.relayEpoch {
		a.relayStamp[to] = a.relayEpoch
		span = [2]int32{}
	}
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

// accept commits node id to v.
func (a *Acceptance) accept(id grid.NodeID, v radio.Value) {
	a.Decided[id] = true
	a.Value[id] = v
	if a.relaySpan != nil {
		a.relaySpan[id] = [2]int32{} // no longer needed
	}
	if a.OnAccept != nil {
		a.OnAccept(id, v)
	}
}
