// Package topo defines the network-topology abstraction the simulation
// engine runs on, decoupling every consumer layer (sim, actor, reactive,
// adversary, exper, the cmd tools) from the paper's toroidal grid.
//
// The paper (Bertier, Kermarrec and Tan, ICDCS 2010) states its model on
// a torus to avoid edge effects, but the message-budget analysis is
// purely local: a protocol only needs to know who hears whom, how far
// apart two nodes are, and a collision-free TDMA schedule. Topology
// captures exactly that contract, so the same engine also runs on a
// bounded (non-wrapping) grid with border effects (Bounded) and on a
// random geometric graph (RGG) — the settings studied by the follow-up
// work on planar and general multi-hop graphs.
//
// *grid.Torus satisfies Topology structurally and remains the canonical
// implementation; all torus results are unchanged by the abstraction.
package topo

import (
	"fmt"

	"bftbcast/internal/grid"
)

// NodeID re-exports the dense node identifier used across topologies.
type NodeID = grid.NodeID

// Topology is the engine's view of a network: a fixed set of nodes
// 0..Size()-1 with a symmetric neighbor relation, an integer metric
// consistent with it (a and b are neighbors exactly when
// 0 < Dist(a,b) <= Range()), and a collision-free TDMA coloring.
//
// Implementations must be immutable after construction and safe for
// concurrent readers: the parallel experiment harness shares one
// topology across worker goroutines.
type Topology interface {
	fmt.Stringer

	// Size returns the number of nodes.
	Size() int
	// Range returns the radio range r in units of the topology's metric.
	// Geometric-graph topologies whose adjacency is not derived from an
	// integer metric report 1 (hop adjacency).
	Range() int
	// Degree returns the number of neighbors of id.
	Degree(id NodeID) int
	// MaxDegree returns the largest degree over all nodes.
	MaxDegree() int
	// ForEachNeighbor calls fn for every node within range of id,
	// excluding id itself, in a deterministic order.
	ForEachNeighbor(id NodeID, fn func(NodeID))
	// AppendNeighbors appends the neighbors of id to dst and returns it,
	// in the same order as ForEachNeighbor.
	AppendNeighbors(dst []NodeID, id NodeID) []NodeID
	// Dist returns the distance between two nodes in the topology's
	// metric (L∞ for grids, hop distance for general graphs).
	Dist(a, b NodeID) int
	// ForEachWithin calls fn for every node at distance <= d of id,
	// excluding id itself, in a deterministic order. d may exceed
	// Range() (the adversary cares about distance 2r when picking
	// collision targets).
	ForEachWithin(id NodeID, d int, fn func(NodeID))
	// Coloring returns a collision-free TDMA coloring: a color per node
	// and the schedule period (number of colors). Two distinct nodes of
	// the same color must have no common receiver, i.e. must be at
	// distance > 2·Range(). Topologies whose coloring constraints are
	// unsatisfiable for their dimensions return an error.
	Coloring() ([]int32, int, error)
	// DiameterHint returns a generous upper bound on the hop diameter,
	// used to derive default slot caps for a run.
	DiameterHint() int
}

// Torus, Bounded and RGG implement Topology.
var (
	_ Topology = (*grid.Torus)(nil)
	_ Topology = (*Bounded)(nil)
	_ Topology = (*RGG)(nil)
)

// WindowCount returns the number of marked nodes inside the closed
// neighborhood ball (centre included) of id. len(marked) must equal
// t.Size().
func WindowCount(t Topology, marked []bool, id NodeID) (int, error) {
	if len(marked) != t.Size() {
		return 0, fmt.Errorf("topo: marked has %d entries, want %d", len(marked), t.Size())
	}
	n := 0
	if marked[id] {
		n++
	}
	t.ForEachNeighbor(id, func(nb NodeID) {
		if marked[nb] {
			n++
		}
	})
	return n, nil
}

// MaxWindowCount returns the maximum, over all nodes, of the number of
// marked nodes in the node's closed neighborhood ball. A placement is
// t-locally-bounded exactly when MaxWindowCount(marked) <= t.
// Implementations with a faster counting scheme (the torus uses
// separable prefix sums) are dispatched to automatically; topologies
// exposing their adjacency in CSR form (the RGG) are scanned directly
// over the flat arrays. Both paths — and the generic fallback, which
// hoists its neighbor callback out of the per-node loop — run without
// per-node allocation. Per-run placement validation
// (adversary.Validate) counts from the bad nodes' side instead; this
// per-node scan is its reference.
func MaxWindowCount(t Topology, marked []bool) (int, error) {
	if fast, ok := t.(interface{ MaxWindowCount([]bool) (int, error) }); ok {
		return fast.MaxWindowCount(marked)
	}
	n := t.Size()
	if len(marked) != n {
		return 0, fmt.Errorf("topo: marked has %d entries, want %d", len(marked), n)
	}
	maxC := 0
	if src, ok := t.(interface{ CSR() ([]int32, []NodeID) }); ok {
		off, nbrs := src.CSR()
		for i := 0; i < n; i++ {
			c := 0
			if marked[i] {
				c++
			}
			for _, nb := range nbrs[off[i]:off[i+1]] {
				if marked[nb] {
					c++
				}
			}
			if c > maxC {
				maxC = c
			}
		}
		return maxC, nil
	}
	// One closure over one counter for the whole scan: allocating a fresh
	// closure per node is what used to dominate large-n allocation profiles.
	c := 0
	count := func(nb NodeID) {
		if marked[nb] {
			c++
		}
	}
	for i := 0; i < n; i++ {
		c = 0
		if marked[i] {
			c++
		}
		t.ForEachNeighbor(NodeID(i), count)
		if c > maxC {
			maxC = c
		}
	}
	return maxC, nil
}
