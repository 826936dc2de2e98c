// Package grid implements the toroidal integer grid with the L∞ metric
// used by the broadcast model of Bertier, Kermarrec and Tan (ICDCS 2010).
//
// Nodes occupy every cell of a W×H torus. The radio range is an integer r;
// a node's neighborhood is the (2r+1)×(2r+1) square centred on it, the node
// itself excluded, so it contains exactly (2r+1)²−1 nodes. The paper's
// analysis repeatedly uses the half-neighborhood r(2r+1): the nodes of the
// neighborhood strictly on one side of an axis-aligned line through the
// centre.
//
// The torus (the paper's "to avoid edge effect we assume that the network
// is toroidal") makes every neighborhood full-sized, which both the
// protocols and the adversary constructions rely on.
package grid

import (
	"errors"
	"fmt"
)

// NodeID identifies a node on the torus. IDs are dense: 0..N-1 with
// id = y*W + x, so they can index flat per-node state arrays.
type NodeID int32

// None is the sentinel "no node" value.
const None NodeID = -1

// Torus is an immutable W×H toroidal grid with radio range r.
// Construct instances with New; the zero value is unusable.
type Torus struct {
	w, h, r int
	offsets []offset // the (2r+1)²−1 neighbor offsets, row-major
}

type offset struct{ dx, dy int8 }

// Common construction errors.
var (
	ErrBadRange = errors.New("grid: range r must be >= 1")
	ErrTooSmall = errors.New("grid: torus side must be at least 2r+1")
	// ErrNotDivisible is returned by Coloring when a torus side is not a
	// multiple of 2r+1, which would break the TDMA coloring across the
	// wrap.
	ErrNotDivisible = errors.New("grid: torus sides must be multiples of 2r+1")
)

// New validates the dimensions and returns a Torus. Each side must be at
// least 2r+1 so neighborhoods do not self-overlap through the wrap; the
// TDMA schedule additionally wants sides divisible by 2r+1 (see package
// plan), but that is not required here.
func New(w, h, r int) (*Torus, error) {
	if r < 1 {
		return nil, fmt.Errorf("%w (got r=%d)", ErrBadRange, r)
	}
	if r > 127 {
		return nil, fmt.Errorf("grid: range r=%d too large (max 127)", r)
	}
	side := 2*r + 1
	if w < side || h < side {
		return nil, fmt.Errorf("%w (got %dx%d with r=%d)", ErrTooSmall, w, h, r)
	}
	t := &Torus{w: w, h: h, r: r}
	t.offsets = make([]offset, 0, side*side-1)
	for dy := -r; dy <= r; dy++ {
		for dx := -r; dx <= r; dx++ {
			if dx == 0 && dy == 0 {
				continue
			}
			t.offsets = append(t.offsets, offset{int8(dx), int8(dy)})
		}
	}
	return t, nil
}

// MustNew is New for statically known-good dimensions (tests, examples).
// It panics on invalid input.
func MustNew(w, h, r int) *Torus {
	t, err := New(w, h, r)
	if err != nil {
		panic(err)
	}
	return t
}

// Width returns the horizontal side length.
func (t *Torus) Width() int { return t.w }

// Height returns the vertical side length.
func (t *Torus) Height() int { return t.h }

// Range returns the radio range r.
func (t *Torus) Range() int { return t.r }

// Size returns the number of nodes, W*H.
func (t *Torus) Size() int { return t.w * t.h }

// HalfNeighborhood returns r(2r+1), the paper's recurring quantity: the
// number of neighborhood nodes strictly on one side of an axis-aligned
// line through the centre.
func (t *Torus) HalfNeighborhood() int { return t.r * (2*t.r + 1) }

// Degree returns the number of neighbors of id. On the torus every
// neighborhood is full-sized, so this equals MaxDegree for all nodes
// (part of the topo.Topology contract).
func (t *Torus) Degree(NodeID) int { return t.MaxDegree() }

// MaxDegree returns (2r+1)²−1, the number of nodes within range of any
// node on the torus (part of the topo.Topology contract).
func (t *Torus) MaxDegree() int { return (2*t.r+1)*(2*t.r+1) - 1 }

// Coloring returns the collision-free TDMA coloring of the torus: node
// (x, y) owns color (x mod 2r+1) + (2r+1)·(y mod 2r+1) with period
// (2r+1)². Two nodes of the same color are at least 2r+1 apart on each
// axis, so their neighborhoods are disjoint and their simultaneous
// transmissions cannot collide at any receiver. For the coloring to stay
// valid across the wrap both sides must be multiples of 2r+1; otherwise
// ErrNotDivisible is returned.
func (t *Torus) Coloring() ([]int32, int, error) {
	side := 2*t.r + 1
	if t.w%side != 0 || t.h%side != 0 {
		return nil, 0, fmt.Errorf("%w (torus %dx%d, 2r+1=%d)", ErrNotDivisible, t.w, t.h, side)
	}
	colors := make([]int32, t.Size())
	for i := range colors {
		x, y := t.XY(NodeID(i))
		colors[i] = int32((x % side) + side*(y%side))
	}
	return colors, side * side, nil
}

// DiameterHint returns a generous upper bound on the hop diameter,
// W+H+2, used to derive default slot caps (part of the topo.Topology
// contract).
func (t *Torus) DiameterHint() int { return t.w + t.h + 2 }

// WrapX reduces an x coordinate into [0, W).
func (t *Torus) WrapX(x int) int {
	x %= t.w
	if x < 0 {
		x += t.w
	}
	return x
}

// WrapY reduces a y coordinate into [0, H).
func (t *Torus) WrapY(y int) int {
	y %= t.h
	if y < 0 {
		y += t.h
	}
	return y
}

// ID returns the node at (x, y), wrapping both coordinates.
func (t *Torus) ID(x, y int) NodeID {
	return NodeID(t.WrapY(y)*t.w + t.WrapX(x))
}

// XY returns the canonical coordinates of id, with x in [0,W) and y in
// [0,H).
func (t *Torus) XY(id NodeID) (x, y int) {
	i := int(id)
	return i % t.w, i / t.w
}

// axisDist returns the wrapped distance between coordinates a and b on an
// axis of length n.
func axisDist(a, b, n int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if alt := n - d; alt < d {
		d = alt
	}
	return d
}

// Dist returns the L∞ torus distance between two nodes.
func (t *Torus) Dist(a, b NodeID) int {
	ax, ay := t.XY(a)
	bx, by := t.XY(b)
	dx := axisDist(ax, bx, t.w)
	dy := axisDist(ay, by, t.h)
	if dx > dy {
		return dx
	}
	return dy
}

// ForEachNeighbor calls fn for every node within range r of id, excluding
// id itself. Iteration order is deterministic (row-major by offset).
func (t *Torus) ForEachNeighbor(id NodeID, fn func(NodeID)) {
	x, y := t.XY(id)
	for _, o := range t.offsets {
		fn(t.ID(x+int(o.dx), y+int(o.dy)))
	}
}

// Neighbors returns a fresh slice of the (2r+1)²−1 neighbors of id.
func (t *Torus) Neighbors(id NodeID) []NodeID {
	return t.AppendNeighbors(make([]NodeID, 0, len(t.offsets)), id)
}

// AppendNeighbors appends the neighbors of id to dst and returns it,
// avoiding allocation when dst has capacity.
func (t *Torus) AppendNeighbors(dst []NodeID, id NodeID) []NodeID {
	x, y := t.XY(id)
	for _, o := range t.offsets {
		dst = append(dst, t.ID(x+int(o.dx), y+int(o.dy)))
	}
	return dst
}

// ForEachWithin calls fn for every node within L∞ distance d of id,
// excluding id itself. d may exceed r (used by the adversary, which cares
// about distance 2r when picking collision targets).
func (t *Torus) ForEachWithin(id NodeID, d int, fn func(NodeID)) {
	if d >= t.w/2 || d >= t.h/2 {
		// Windows this large can wrap onto themselves; fall back to a
		// full scan with distance checks to avoid double-visiting.
		for i := 0; i < t.Size(); i++ {
			nid := NodeID(i)
			if nid != id && t.Dist(id, nid) <= d {
				fn(nid)
			}
		}
		return
	}
	x, y := t.XY(id)
	for dy := -d; dy <= d; dy++ {
		for dx := -d; dx <= d; dx++ {
			if dx == 0 && dy == 0 {
				continue
			}
			fn(t.ID(x+dx, y+dy))
		}
	}
}

// String implements fmt.Stringer.
func (t *Torus) String() string {
	return fmt.Sprintf("torus %dx%d r=%d", t.w, t.h, t.r)
}
