package topo

import (
	"fmt"

	"bftbcast/internal/grid"
)

// Spec selects a topology by name, with the dimension parameters each
// kind consumes. It backs the -topology flag of cmd/bftsim.
type Spec struct {
	// Kind is "torus" (default), "grid" (bounded, non-wrapping) or
	// "rgg" (random geometric graph).
	Kind string
	// W, H, R size the grid kinds.
	W, H, R int
	// Nodes is the rgg node count (0 = W·H).
	Nodes int
	// Seed drives the rgg layout.
	Seed uint64
}

// New builds the topology described by s.
func New(s Spec) (Topology, error) {
	switch s.Kind {
	case "", "torus":
		return grid.New(s.W, s.H, s.R)
	case "grid", "bounded":
		return NewBounded(s.W, s.H, s.R)
	case "rgg":
		n := s.Nodes
		if n <= 0 {
			n = s.W * s.H
		}
		return NewConnectedRGG(n, s.Seed)
	default:
		return nil, fmt.Errorf("topo: unknown topology kind %q (want torus, grid or rgg)", s.Kind)
	}
}
