// Package adversary implements the locally-bounded, collision-capable,
// message-bounded adversary of the paper: where the bad nodes sit
// (placements) and what they transmit (strategies).
//
// A placement marks at most t bad nodes per closed neighborhood. A
// strategy decides, slot by slot, which bad nodes transmit; a bad
// transmission either injects a wrong value or collides with a concurrent
// good transmission, corrupting (or silencing) it at every common
// receiver. Each bad node has a total message budget mf.
package adversary

import (
	"errors"
	"fmt"

	"bftbcast/internal/grid"
	"bftbcast/internal/plan"
	"bftbcast/internal/stats"
	"bftbcast/internal/topo"
)

// Placement chooses the bad-node set on a topology. The source (base
// station) is always correct and must never be marked.
//
// None and Random work on any topology; the construction placements
// (Stripe, Sandwich, Lattice) realize toroidal proofs and reject
// non-torus topologies with ErrNeedsTorus.
type Placement interface {
	// Name identifies the placement in reports.
	Name() string
	// Place returns the bad-node mask, indexed by NodeID.
	Place(t topo.Topology, source grid.NodeID) ([]bool, error)
}

// Placement errors.
var (
	ErrHitsSource   = errors.New("adversary: placement would mark the source as bad")
	ErrNotDivisible = errors.New("adversary: torus width must be a multiple of 2r+1 for this placement")
	ErrNeedsTorus   = errors.New("adversary: placement is a toroidal construction and needs a torus topology")
)

// requireTorus unwraps the torus behind a Topology for the construction
// placements, which are stated (and proved) on the toroidal grid.
func requireTorus(t topo.Topology, name string) (*grid.Torus, error) {
	tor, ok := t.(*grid.Torus)
	if !ok {
		return nil, fmt.Errorf("%w (placement %q on %v)", ErrNeedsTorus, name, t)
	}
	return tor, nil
}

// Validate checks that the placement respects the locally-bounded model:
// no closed neighborhood contains more than t bad nodes, and the source is
// good. It returns the observed maximum per-neighborhood count.
//
// Neighborhoods are symmetric, so node c's count is the number of bad
// nodes whose closed ball holds c: each bad node adds one to every node
// of its ball over the compiled plan's CSR, O(|bad|·degree) instead of a
// pass over every node's ball.
func Validate(tor topo.Topology, bad []bool, source grid.NodeID, t int) (int, error) {
	var s Scratch
	return s.Validate(tor, bad, source, t)
}

// Count returns the number of marked nodes.
func Count(bad []bool) int {
	n := 0
	for _, b := range bad {
		if b {
			n++
		}
	}
	return n
}

// None is the empty placement (fault-free runs, control experiments).
type None struct{}

// Name implements Placement.
func (None) Name() string { return "none" }

// Place implements Placement.
func (None) Place(t topo.Topology, _ grid.NodeID) ([]bool, error) {
	return make([]bool, t.Size()), nil
}

// Stripe is the Theorem 1 / Figure 1 construction: a horizontal stripe of
// height r at rows [Y0 .. Y0+r-1]; within every width-(2r+1) rectangle of
// the stripe, T cells are marked starting from the rectangle's corner
// nearest the victims, filling left-to-right, then towards the interior.
// With Down unset, victims sit above the stripe (rows >= Y0+r) and the
// marks start at the top row Y0+r-1; with Down set, victims sit below
// (rows < Y0) and the marks start at the bottom row Y0.
//
// Because the marks repeat with period 2r+1 along x, every closed
// neighborhood window (which is exactly 2r+1 columns wide) contains
// exactly T marked cells, matching the proof's accounting.
//
// On a torus a single stripe does not disconnect the network (Vtrue can
// wrap around the other way), so the Theorem 1 experiment sandwiches the
// victim band between two stripes facing each other; see Sandwich.
type Stripe struct {
	Y0   int  // bottom row of the stripe
	T    int  // bad nodes per neighborhood
	Down bool // victims below instead of above
}

// Name implements Placement.
func (s Stripe) Name() string { return fmt.Sprintf("stripe(y0=%d,t=%d,down=%v)", s.Y0, s.T, s.Down) }

// Place implements Placement.
func (s Stripe) Place(tp topo.Topology, source grid.NodeID) ([]bool, error) {
	t, err := requireTorus(tp, s.Name())
	if err != nil {
		return nil, err
	}
	r := t.Range()
	side := 2*r + 1
	if t.Width()%side != 0 {
		return nil, fmt.Errorf("%w (width %d, 2r+1=%d)", ErrNotDivisible, t.Width(), side)
	}
	if s.T < 0 || s.T > side*r {
		return nil, fmt.Errorf("adversary: stripe cannot hold t=%d bad nodes (max %d)", s.T, side*r)
	}
	bad := make([]bool, t.Size())
	for block := 0; block < t.Width()/side; block++ {
		placed := 0
		for i := 0; i < r && placed < s.T; i++ {
			// Row nearest the victims first.
			row := r - 1 - i
			if s.Down {
				row = i
			}
			for col := 0; col < side && placed < s.T; col++ {
				id := t.ID(block*side+col, s.Y0+row)
				if id == source {
					return nil, fmt.Errorf("%w (stripe overlaps source)", ErrHitsSource)
				}
				bad[id] = true
				placed++
			}
		}
	}
	return bad, nil
}

// Sandwich is the torus version of the Figure 1 construction: two stripes
// of height r facing each other, isolating the victim band of rows
// [YLow+r .. YHigh-1] from both directions. YHigh must be at least
// YLow+3r so that no neighborhood window contains bad nodes of both
// stripes (which would exceed the t-local bound).
type Sandwich struct {
	YLow  int // bottom stripe occupies [YLow .. YLow+r-1], victims above
	YHigh int // top stripe occupies [YHigh .. YHigh+r-1], victims below
	T     int
}

// Name implements Placement.
func (s Sandwich) Name() string {
	return fmt.Sprintf("sandwich(y=%d..%d,t=%d)", s.YLow, s.YHigh, s.T)
}

// Place implements Placement.
func (s Sandwich) Place(tp topo.Topology, source grid.NodeID) ([]bool, error) {
	t, err := requireTorus(tp, s.Name())
	if err != nil {
		return nil, err
	}
	if s.YHigh < s.YLow+3*t.Range() {
		return nil, fmt.Errorf("adversary: sandwich stripes too close (%d < %d)", s.YHigh, s.YLow+3*t.Range())
	}
	return Union{
		Parts: []Placement{
			Stripe{Y0: s.YLow, T: s.T},
			Stripe{Y0: s.YHigh, T: s.T, Down: true},
		},
	}.Place(t, source)
}

// VictimBand returns the mask of nodes inside the isolated band of the
// sandwich: rows [YLow+r .. YHigh-1].
func (s Sandwich) VictimBand(t *grid.Torus) []bool {
	victims := make([]bool, t.Size())
	for y := s.YLow + t.Range(); y < s.YHigh; y++ {
		for x := 0; x < t.Width(); x++ {
			victims[t.ID(x, y)] = true
		}
	}
	return victims
}

// Union combines placements by marking the union of their bad sets.
type Union struct {
	Parts []Placement
}

// Name implements Placement.
func (u Union) Name() string {
	name := "union("
	for i, p := range u.Parts {
		if i > 0 {
			name += "+"
		}
		name += p.Name()
	}
	return name + ")"
}

// Place implements Placement.
func (u Union) Place(t topo.Topology, source grid.NodeID) ([]bool, error) {
	if len(u.Parts) == 0 {
		return nil, errors.New("adversary: empty union placement")
	}
	bad := make([]bool, t.Size())
	for _, p := range u.Parts {
		part, err := p.Place(t, source)
		if err != nil {
			return nil, fmt.Errorf("adversary: union part %q: %w", p.Name(), err)
		}
		for i, b := range part {
			if b {
				bad[i] = true
			}
		}
	}
	return bad, nil
}

// Lattice is the Figure 2 construction generalized: bad nodes on one or
// more integer lattices of spacing 2r+1. Every closed neighborhood window
// contains exactly one node of each lattice, so the placement is
// len(Offsets)-locally-bounded with exact equality everywhere.
//
// Figure 2 uses the single offset (r, -r): the bad node of the source's
// neighborhood sits at its corner, outside the overlap regions that feed
// the first wave of nodes beyond the source's square.
type Lattice struct {
	Offsets [][2]int // one lattice per offset; t = len(Offsets)
}

// Name implements Placement.
func (l Lattice) Name() string { return fmt.Sprintf("lattice(t=%d)", len(l.Offsets)) }

// Place implements Placement.
func (l Lattice) Place(tp topo.Topology, source grid.NodeID) ([]bool, error) {
	t, err := requireTorus(tp, l.Name())
	if err != nil {
		return nil, err
	}
	r := t.Range()
	side := 2*r + 1
	if t.Width()%side != 0 || t.Height()%side != 0 {
		return nil, fmt.Errorf("%w (torus %dx%d, 2r+1=%d)", ErrNotDivisible, t.Width(), t.Height(), side)
	}
	if len(l.Offsets) == 0 {
		return nil, errors.New("adversary: lattice needs at least one offset")
	}
	seen := make(map[[2]int]bool, len(l.Offsets))
	for _, off := range l.Offsets {
		key := [2]int{((off[0] % side) + side) % side, ((off[1] % side) + side) % side}
		if seen[key] {
			return nil, fmt.Errorf("adversary: duplicate lattice offset %v modulo %d", off, side)
		}
		seen[key] = true
	}
	bad := make([]bool, t.Size())
	for _, off := range l.Offsets {
		for y := 0; y < t.Height()/side; y++ {
			for x := 0; x < t.Width()/side; x++ {
				id := t.ID(off[0]+x*side, off[1]+y*side)
				if id == source {
					return nil, fmt.Errorf("%w (lattice offset %v)", ErrHitsSource, off)
				}
				bad[id] = true
			}
		}
	}
	return bad, nil
}

// Figure2Lattice returns the Lattice placement used by Figure 2 for range
// r: a single lattice through (r, -r).
func Figure2Lattice(r int) Lattice {
	return Lattice{Offsets: [][2]int{{r, -r}}}
}

// Figure2Victims returns the victim mask of the Figure 2 construction on
// t, for the Targeted strategy: the eight mirror nodes adjacent to the
// decided square, (±(r+1), ±1) and (±1, ±(r+1)). Each frontier bad node
// of Figure2Lattice(r) guards the pair inside its window (at r=4, (4,5)
// guards p=(5,1) and p'=(1,5)); every other frontier node then starves on
// the side effects of those jams, because its residual (un-jammed) supply
// stays below the threshold.
func Figure2Victims(t *grid.Torus) []bool {
	r := t.Range()
	victims := make([]bool, t.Size())
	for _, pr := range [][2]int{
		{r + 1, 1}, {1, r + 1}, {r + 1, -1}, {1, -(r + 1)},
		{-(r + 1), 1}, {-1, r + 1}, {-(r + 1), -1}, {-1, -(r + 1)},
	} {
		victims[t.ID(pr[0], pr[1])] = true
	}
	return victims
}

// Random marks nodes uniformly at random subject to the t-local bound,
// using greedy rejection: nodes are visited in a random permutation and
// marked whenever doing so keeps every window count at most T. Density
// caps the fraction of marked nodes.
type Random struct {
	T       int
	Density float64 // target fraction of bad nodes in (0, 1]
	Seed    uint64
}

// Name implements Placement.
func (rp Random) Name() string { return fmt.Sprintf("random(t=%d,d=%.2f)", rp.T, rp.Density) }

// Place implements Placement.
func (rp Random) Place(t topo.Topology, source grid.NodeID) ([]bool, error) {
	var s Scratch
	return rp.place(t, source, &s)
}

// place is Place with the permutation and the window counts in s.
func (rp Random) place(t topo.Topology, source grid.NodeID, s *Scratch) ([]bool, error) {
	if rp.T < 0 {
		return nil, fmt.Errorf("adversary: random placement with negative t")
	}
	if rp.Density <= 0 || rp.Density > 1 {
		return nil, fmt.Errorf("adversary: random placement density %v out of (0,1]", rp.Density)
	}
	rng := stats.NewRNG(rp.Seed)
	n := t.Size()
	bad := make([]bool, n)
	if rp.T == 0 {
		return bad, nil
	}
	// The compiled plan's CSR makes the per-candidate neighborhood walks
	// array scans instead of coordinate arithmetic; the adjacency is
	// shared with the engine that will execute the placement.
	adj := plan.For(t).Adjacency()
	// counts[c] = bad nodes currently in the closed neighborhood of c.
	counts := s.countsFor(n)
	if cap(s.perm) < n {
		s.perm = make([]int, n)
	}
	perm := s.perm[:n]
	rng.PermFill(perm)
	target := int(rp.Density * float64(n))
	placed := 0
	for _, idx := range perm {
		if placed >= target {
			break
		}
		id := grid.NodeID(idx)
		if id == source {
			continue
		}
		if counts[id] >= int32(rp.T) {
			continue
		}
		nbrs := adj.Neighbors(id)
		ok := true
		for _, nb := range nbrs {
			if counts[nb] >= int32(rp.T) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		bad[id] = true
		counts[id]++
		for _, nb := range nbrs {
			counts[nb]++
		}
		placed++
	}
	return bad, nil
}
