package topo

import (
	"fmt"

	"bftbcast/internal/grid"
)

// Bounded is an immutable W×H grid with radio range r and no wraparound:
// the non-toroidal counterpart of grid.Torus. Border and corner nodes
// have truncated neighborhoods — the "edge effect" the paper's torus
// assumption removes — so full-sized-neighborhood guarantees (Lemma 4,
// the m0 supply accounting) degrade near the boundary, which is exactly
// what experiment E11 measures. Construct instances with NewBounded; the
// zero value is unusable.
type Bounded struct {
	w, h, r int
}

// NewBounded validates the dimensions and returns a bounded grid. Each
// side must be at least 2r+1 so that interior nodes exist; the bound is
// checked as r <= (min(w, h)-1)/2, which cannot overflow for any r.
func NewBounded(w, h, r int) (*Bounded, error) {
	if r < 1 {
		return nil, fmt.Errorf("%w (got r=%d)", grid.ErrBadRange, r)
	}
	if r > (min(w, h)-1)/2 {
		return nil, fmt.Errorf("topo: bounded grid sides must be at least 2r+1 (got %dx%d with r=%d)", w, h, r)
	}
	return &Bounded{w: w, h: h, r: r}, nil
}

// MustNewBounded is NewBounded for statically known-good dimensions. It
// panics on invalid input.
func MustNewBounded(w, h, r int) *Bounded {
	b, err := NewBounded(w, h, r)
	if err != nil {
		panic(err)
	}
	return b
}

// Width returns the horizontal side length.
func (b *Bounded) Width() int { return b.w }

// Height returns the vertical side length.
func (b *Bounded) Height() int { return b.h }

// Range returns the radio range r.
func (b *Bounded) Range() int { return b.r }

// Size returns the number of nodes, W*H.
func (b *Bounded) Size() int { return b.w * b.h }

// ID returns the node at (x, y). Coordinates must be in bounds.
func (b *Bounded) ID(x, y int) NodeID { return NodeID(y*b.w + x) }

// XY returns the coordinates of id.
func (b *Bounded) XY(id NodeID) (x, y int) {
	i := int(id)
	return i % b.w, i / b.w
}

// clip returns the intersection of [c-d, c+d] with [0, n).
func clip(c, d, n int) (lo, hi int) {
	lo, hi = c-d, c+d
	if lo < 0 {
		lo = 0
	}
	if hi > n-1 {
		hi = n - 1
	}
	return lo, hi
}

// MaxDegree returns (2r+1)²−1, the interior neighborhood size.
func (b *Bounded) MaxDegree() int {
	side := 2*b.r + 1
	return side*side - 1
}

// Dist returns the L∞ distance between two nodes (no wrap).
func (b *Bounded) Dist(p, q NodeID) int {
	px, py := b.XY(p)
	qx, qy := b.XY(q)
	dx := px - qx
	if dx < 0 {
		dx = -dx
	}
	dy := py - qy
	if dy < 0 {
		dy = -dy
	}
	if dx > dy {
		return dx
	}
	return dy
}

// AppendNeighbors appends the nodes within range r of id, excluding id
// itself, row-major: (2r+1)²−1 in the interior, fewer near the boundary
// (down to (r+1)²−1 at a corner).
func (b *Bounded) AppendNeighbors(dst []NodeID, id NodeID) []NodeID {
	x, y := b.XY(id)
	x0, x1 := clip(x, b.r, b.w)
	y0, y1 := clip(y, b.r, b.h)
	for ny := y0; ny <= y1; ny++ {
		for nx := x0; nx <= x1; nx++ {
			if nx != x || ny != y {
				dst = append(dst, b.ID(nx, ny))
			}
		}
	}
	return dst
}

// Coloring returns the same lattice coloring as the torus — color
// (x mod 2r+1) + (2r+1)·(y mod 2r+1), period (2r+1)². Without a wrap two
// same-colored nodes always differ by a multiple of 2r+1 on some axis,
// so the coloring is collision-free for every W and H: no divisibility
// requirement applies.
func (b *Bounded) Coloring() ([]int32, int, error) {
	side := 2*b.r + 1
	colors := make([]int32, b.Size())
	for i := range colors {
		x, y := b.XY(NodeID(i))
		colors[i] = int32((x % side) + side*(y%side))
	}
	return colors, side * side, nil
}

// DiameterHint returns W+H+2, a generous hop-diameter bound.
func (b *Bounded) DiameterHint() int { return b.w + b.h + 2 }

// String implements fmt.Stringer.
func (b *Bounded) String() string {
	return fmt.Sprintf("grid %dx%d r=%d", b.w, b.h, b.r)
}
