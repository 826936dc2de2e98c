// Package topo defines the network topologies a run is compiled from.
//
// The paper (Bertier, Kermarrec and Tan, ICDCS 2010) states its model on
// a torus to avoid edge effects, but the message-budget analysis is
// purely local: a protocol only needs to know who hears whom, how far
// apart two nodes are, and a collision-free TDMA schedule. Topology
// captures exactly that contract; package plan compiles it once per
// topology into the CSR adjacency and the schedule the engines, the
// adversary and the protocol machines read. Besides the canonical
// *grid.Torus, the same engines run on a bounded (non-wrapping) grid with
// border effects (Bounded) and on a random geometric graph (RGG) — the
// settings studied by the follow-up work on planar and general multi-hop
// graphs.
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
	// MaxDegree returns the largest degree over all nodes.
	MaxDegree() int
	// AppendNeighbors appends the nodes within range of id, excluding id
	// itself, to dst and returns it, in a deterministic order.
	AppendNeighbors(dst []NodeID, id NodeID) []NodeID
	// Dist returns the distance between two nodes in the topology's
	// metric (L∞ for grids, hop distance for general graphs).
	Dist(a, b NodeID) int
	// Coloring returns a collision-free TDMA coloring: a color per node
	// and the schedule period (number of colors). Two distinct nodes of
	// the same color must have no common receiver. Topologies whose
	// coloring constraints are unsatisfiable for their dimensions return
	// an error.
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

// MaxWindowCount returns the maximum, over all nodes, of the number of
// marked nodes in the node's closed neighborhood ball (centre included).
// A placement is t-locally-bounded exactly when MaxWindowCount(marked)
// <= t. Per-run placement validation (adversary.Validate) counts from the
// bad nodes' side instead; this per-node scan is its reference.
func MaxWindowCount(t Topology, marked []bool) (int, error) {
	n := t.Size()
	if len(marked) != n {
		return 0, fmt.Errorf("topo: marked has %d entries, want %d", len(marked), n)
	}
	maxC := 0
	var row []NodeID
	for i := 0; i < n; i++ {
		c := 0
		if marked[i] {
			c++
		}
		row = t.AppendNeighbors(row[:0], NodeID(i))
		for _, nb := range row {
			if marked[nb] {
				c++
			}
		}
		maxC = max(maxC, c)
	}
	return maxC, nil
}
