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

// maxAdjacencyEntries bounds Size·MaxDegree of a grid topology, the
// neighbor entries its compiled CSR adjacency holds (4-byte ids, twice
// over when the rows need a sorted copy). It admits every grid the
// repository builds — a 2^20-node grid at r = 2 holds 2.5·10⁷ — and
// refuses those whose adjacency alone would exhaust memory, such as a
// 1024² torus at r = 127 (6.8·10¹⁰ entries).
const maxAdjacencyEntries = 1 << 25

// New builds the topology described by s. A grid kind above maxRGGNodes
// nodes or maxAdjacencyEntries adjacency entries is refused before
// anything is built, as an RGG above maxRGGNodes is.
func New(s Spec) (Topology, error) {
	switch s.Kind {
	case "", "torus":
		t, err := grid.New(s.W, s.H, s.R)
		if err != nil {
			return nil, err
		}
		if err := checkGridSize(s.W, s.H, t.MaxDegree()); err != nil {
			return nil, err
		}
		return t, nil
	case "grid", "bounded":
		b, err := NewBounded(s.W, s.H, s.R)
		if err != nil {
			return nil, err
		}
		if err := checkGridSize(s.W, s.H, b.MaxDegree()); err != nil {
			return nil, err
		}
		return b, nil
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

// checkGridSize refuses a w×h grid whose node count or adjacency exceeds
// the bounds above. Each side is checked alone first, so neither product
// can overflow.
func checkGridSize(w, h, maxDegree int) error {
	if w > maxRGGNodes || h > maxRGGNodes || w*h > maxRGGNodes {
		return fmt.Errorf("topo: a %dx%d grid has more than %d nodes", w, h, maxRGGNodes)
	}
	if entries := w * h * maxDegree; entries > maxAdjacencyEntries {
		return fmt.Errorf("topo: a %dx%d grid of degree %d has %d adjacency entries, more than %d",
			w, h, maxDegree, entries, maxAdjacencyEntries)
	}
	return nil
}
