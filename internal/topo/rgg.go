package topo

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"bftbcast/internal/stats"
)

// maxRGGNodes caps the node count. Construction, the CSR adjacency and
// the BFS-based distance queries all scale linearly in nodes plus edges,
// so the cap is a sanity bound, not a structural limit: the largest
// benchmark tier (BenchmarkRGG1MRun, BenchmarkRGGBuild/n=1M) builds
// exactly this many nodes.
const maxRGGNodes = 1 << 20

// exactDiameterMaxNodes bounds the graphs whose DiameterHint is the exact
// hop diameter plus slack, from one BFS per source: O(n·(n+E)) at
// construction, a few hundred million steps at this size. Larger graphs
// take twice a seed eccentricity instead.
const exactDiameterMaxNodes = 4096

// RGG is an immutable random geometric graph: n nodes placed uniformly
// at random in the unit square, with an edge between every pair at
// Euclidean distance at most the connection radius. Adjacency is the
// neighbor relation, the metric is hop distance and Range() is 1, so the
// locally-bounded fault model reads "at most t bad nodes adjacent to any
// node" — the general multi-hop-graph setting of the follow-up work on
// Byzantine broadcast beyond the torus. Construct instances with NewRGG
// or NewConnectedRGG; the zero value is unusable.
//
// The adjacency is stored once in CSR form (built by uniform-grid cell
// bucketing, O(n·candidates) instead of the naive O(n²) pair loop) with
// per-node neighbor lists ascending. Dist is an early-exit BFS over
// pooled scratch, which keeps the type safe for concurrent readers at any
// size.
type RGG struct {
	n      int
	radius float64
	xs, ys []float64

	// CSR adjacency: neighbors of i are nbrs[off[i]:off[i+1]], ascending.
	off    []int32
	nbrs   []NodeID
	maxDeg int

	diamHint int // generous upper bound on the hop diameter

	colors []int32
	period int

	scratch sync.Pool // *rggScratch, for Dist queries
}

const unreachableHop = math.MaxUint16

// rggScratch is the reusable state of one Dist query. Queries Get one
// from the pool and Put it back when done, so concurrent queries each
// check out their own.
type rggScratch struct {
	seen  []int32 // epoch stamps
	epoch int32
	queue []NodeID
}

// NewRGG places n nodes from the seed and connects every pair within the
// given Euclidean radius. The graph may be disconnected; use Connected
// to check, or NewConnectedRGG to grow the radius until connected.
func NewRGG(n int, radius float64, seed uint64) (*RGG, error) {
	if n < 2 || n > maxRGGNodes {
		return nil, fmt.Errorf("topo: rgg node count %d outside [2, %d]", n, maxRGGNodes)
	}
	if !(radius > 0) { // also refuses NaN
		return nil, fmt.Errorf("topo: rgg radius %v must be positive", radius)
	}
	xs, ys := rggPoints(n, seed)
	return newRGGFromPoints(xs, ys, radius)
}

// NewConnectedRGG places n nodes from the seed and grows the connection
// radius from the standard connectivity threshold Θ(√(log n / n)) until
// the graph is connected. The construction is deterministic in (n, seed).
// A radius attempt costs the adjacency and one component sweep; only the
// accepted radius is finished (diameter hint, coloring), so the result is
// exactly NewRGG at that radius.
func NewConnectedRGG(n int, seed uint64) (*RGG, error) {
	if n < 2 || n > maxRGGNodes {
		return nil, fmt.Errorf("topo: rgg node count %d outside [2, %d]", n, maxRGGNodes)
	}
	xs, ys := rggPoints(n, seed)
	radius := 1.1 * math.Sqrt(math.Log(float64(n))/(math.Pi*float64(n)))
	for {
		g, err := newRGGAdjacency(xs, ys, radius)
		if err != nil {
			return nil, err
		}
		if maxEcc, components := g.componentSweep(); components == 1 {
			g.finish(maxEcc)
			return g, nil
		}
		radius *= 1.25
		if radius > 2 { // complete graph on the unit square; cannot happen
			return nil, fmt.Errorf("topo: rgg with n=%d seed=%d never became connected", n, seed)
		}
	}
}

// rggPoints draws the node positions; a fixed (n, seed) pair always
// yields the same layout regardless of the radius.
func rggPoints(n int, seed uint64) (xs, ys []float64) {
	rng := stats.NewRNG(seed)
	xs = make([]float64, n)
	ys = make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	return xs, ys
}

func newRGGFromPoints(xs, ys []float64, radius float64) (*RGG, error) {
	g, err := newRGGAdjacency(xs, ys, radius)
	if err != nil {
		return nil, err
	}
	maxEcc := 0
	if g.n > exactDiameterMaxNodes {
		maxEcc, _ = g.componentSweep()
	}
	g.finish(maxEcc)
	return g, nil
}

// newRGGAdjacency builds the part of an RGG a radius attempt needs: the
// layout and the CSR adjacency, enough for componentSweep. finish
// completes it.
func newRGGAdjacency(xs, ys []float64, radius float64) (*RGG, error) {
	g := &RGG{n: len(xs), radius: radius, xs: xs, ys: ys}
	if err := g.buildAdjacency(); err != nil {
		return nil, err
	}
	return g, nil
}

// finish adds what depends on the accepted radius only: the exact
// diameter for small graphs or, above exactDiameterMaxNodes, the bound
// from componentSweep's maxEcc (2·ecc(seed) bounds each component's
// diameter from above, and the hint must cover the largest: NewRGG may
// legitimately return a disconnected graph), then the coloring.
func (g *RGG) finish(maxEcc int) {
	if g.n <= exactDiameterMaxNodes {
		g.diamHint = g.diameter() + 2
	} else {
		g.diamHint = 2*maxEcc + 2
	}
	g.computeColoring()
}

// maxRGGEdges caps the total directed edge count so the int32 CSR
// offsets cannot overflow (the old 4096-node cap guaranteed this by
// construction; the raised node cap needs an explicit guard against
// dense radius choices).
const maxRGGEdges = math.MaxInt32

// buildAdjacency fills the CSR via uniform-grid cell bucketing: with a
// cell side of at least the connection radius, every neighbor of a node
// lies in its 3×3 cell block. The nodes are counting-sorted into cell
// order together with their coordinates, so the block of a cell is three
// contiguous slot ranges (one per cell row) and every distance check
// reads sequential memory. A degree pass sizes the rows exactly — and
// refuses a graph beyond maxRGGEdges before any row storage exists — and
// a fill pass stores each row sorted ascending, the order the naive pair
// loop produces.
func (g *RGG) buildAdjacency() error {
	n := g.n
	// Cell side >= radius keeps the 3×3 block sufficient; capping the
	// grid at ~√n per axis bounds the bucket arrays by O(n) even for
	// tiny radii.
	cells := int(1 / g.radius)
	cells = max(1, min(cells, int(math.Sqrt(float64(n)))+1))
	cellOf := func(i int) int {
		cx := int(g.xs[i] * float64(cells))
		if cx >= cells {
			cx = cells - 1
		}
		cy := int(g.ys[i] * float64(cells))
		if cy >= cells {
			cy = cells - 1
		}
		return cy*cells + cx
	}

	// Counting sort into cell order (deterministic: ids stay ascending
	// within each cell): slot p holds node items[p] at (px[p], py[p]) and
	// cell c owns slots start[c]..start[c+1].
	start := make([]int32, cells*cells+1)
	for i := 0; i < n; i++ {
		start[cellOf(i)+1]++
	}
	for c := 0; c < cells*cells; c++ {
		start[c+1] += start[c]
	}
	items := make([]NodeID, n)
	px, py := make([]float64, n), make([]float64, n)
	next := slices.Clone(start[:cells*cells])
	for i := 0; i < n; i++ {
		c := cellOf(i)
		p := next[c]
		next[c]++
		items[p], px[p], py[p] = NodeID(i), g.xs[i], g.ys[i]
	}

	// eachRow calls visit for every slot p, in slot order, with the
	// nodes within the radius of p's node: unsorted, in scratch storage
	// that is valid for the call. It stops when visit returns false.
	r2 := g.radius * g.radius
	eachRow := func(visit func(p int32, row []NodeID) bool) {
		var row []NodeID
		for cy := 0; cy < cells; cy++ {
			for cx := 0; cx < cells; cx++ {
				// The block's slot ranges, shared by every slot of the cell.
				var block [3][2]int32
				spans, candidates := 0, 0
				lo, hi := max(cx-1, 0), min(cx+1, cells-1)
				for ny := max(cy-1, 0); ny <= min(cy+1, cells-1); ny++ {
					block[spans] = [2]int32{start[ny*cells+lo], start[ny*cells+hi+1]}
					candidates += int(block[spans][1] - block[spans][0])
					spans++
				}
				if len(row) < candidates {
					row = make([]NodeID, candidates)
				}
				c := cy*cells + cx
				for p := start[c]; p < start[c+1]; p++ {
					d := 0
					for _, span := range block[:spans] {
						lo, hi := span[0], span[1]
						if lo <= p && p < hi { // p's own cell row: skip p itself
							d += within(row[d:], items[lo:p], px[lo:p], py[lo:p], px[p], py[p], r2)
							lo = p + 1
						}
						d += within(row[d:], items[lo:hi], px[lo:hi], py[lo:hi], px[p], py[p], r2)
					}
					if !visit(p, row[:d]) {
						return
					}
				}
			}
		}
	}

	// Per-node state is kept by slot between the passes (rowOf: the
	// degree, then the row's CSR offset), so the id-ordered arrays are
	// touched once per node, in the two loops below and by the row copy.
	rowOf := make([]int32, n)
	var edges int64
	eachRow(func(p int32, row []NodeID) bool {
		rowOf[p] = int32(len(row))
		g.maxDeg = max(g.maxDeg, len(row))
		edges += int64(len(row))
		return edges <= maxRGGEdges
	})
	if edges > maxRGGEdges {
		return fmt.Errorf("topo: rgg n=%d radius=%v exceeds %d edges (CSR offset limit)", g.n, g.radius, maxRGGEdges)
	}
	g.off = make([]int32, n+1)
	for p, i := range items {
		g.off[i+1] = rowOf[p]
	}
	for i := 0; i < n; i++ {
		g.off[i+1] += g.off[i]
	}
	for p, i := range items {
		rowOf[p] = g.off[i]
	}
	g.nbrs = make([]NodeID, edges)
	eachRow(func(p int32, row []NodeID) bool {
		sortRow(row)
		copy(g.nbrs[rowOf[p]:], row)
		return true
	})
	return nil
}

// within stores in dst the nodes among items, placed at (px, py), that
// lie within squared distance r2 of (x, y), and returns how many. Every
// candidate is stored and the cursor advances only on a hit — dst needs
// room for all of them — because a hit is a coin flip per candidate and a
// branch on it would mispredict a third of the time.
func within(dst, items []NodeID, px, py []float64, x, y, r2 float64) int {
	d := 0
	for q, j := range items {
		ddx, ddy := x-px[q], y-py[q]
		dst[d] = j
		hit := 0
		if ddx*ddx+ddy*ddy <= r2 {
			hit = 1
		}
		d += hit
	}
	return d
}

// sortRow sorts a row ascending. At connectivity-threshold radii a row
// is a dozen ids, where a plain insertion sort runs in half the time of
// the general sort's dispatch and partitioning; longer rows take that.
func sortRow(row []NodeID) {
	if len(row) > 32 {
		slices.Sort(row)
		return
	}
	for k := 1; k < len(row); k++ {
		v, j := row[k], k
		for ; j > 0 && row[j-1] > v; j-- {
			row[j] = row[j-1]
		}
		row[j] = v
	}
}

// neighbors returns the CSR row of id (ascending, shared storage).
func (g *RGG) neighbors(id NodeID) []NodeID {
	return g.nbrs[g.off[id]:g.off[id+1]]
}

// CSR exposes the graph's own CSR adjacency (offsets + ascending
// neighbor rows, matching the AppendNeighbors order) so consumers like
// radio.NewAdjacency can alias it instead of rebuilding an identical
// copy. The arrays are shared storage and must not be modified.
func (g *RGG) CSR() (off []int32, nbrs []NodeID) { return g.off, g.nbrs }

// diameter returns the largest hop distance between two connected nodes:
// one level-by-level BFS per source, each stamping its visits with its
// own epoch, so nothing is stored per pair.
func (g *RGG) diameter() int {
	seen := make([]int32, g.n)
	queue := make([]NodeID, 0, g.n)
	diam := 0
	for src := 0; src < g.n; src++ {
		epoch := int32(src) + 1
		seen[src] = epoch
		queue = append(queue[:0], NodeID(src))
		levels := 0
		for head := 0; head < len(queue); levels++ {
			for end := len(queue); head < end; head++ {
				for _, v := range g.neighbors(queue[head]) {
					if seen[v] != epoch {
						seen[v] = epoch
						queue = append(queue, v)
					}
				}
			}
		}
		diam = max(diam, levels-1)
	}
	return diam
}

// componentSweep visits every connected component once (one BFS from
// its lowest-id node) and returns the largest seed eccentricity found —
// whose doubled value bounds the hop diameter of every component — and
// the number of components, in a single O(n+E) pass. The BFS advances
// level by level, so the eccentricity is the level count and the only
// per-node state is a visited bit: n/8 bytes, cache-resident where the
// per-query scratch (stamps and depths) is not.
func (g *RGG) componentSweep() (maxEcc, components int) {
	seen := make([]uint64, (g.n+63)/64)
	queue := make([]NodeID, 0, g.n) // every node is queued once, within its component
	for src := 0; src < g.n; src++ {
		if seen[src>>6]&(1<<(src&63)) != 0 {
			continue
		}
		components++
		seen[src>>6] |= 1 << (src & 63)
		queue = append(queue[:0], NodeID(src))
		levels := 0
		for head := 0; head < len(queue); levels++ {
			for end := len(queue); head < end; head++ {
				for _, v := range g.neighbors(queue[head]) {
					if seen[v>>6]&(1<<(v&63)) == 0 {
						seen[v>>6] |= 1 << (v & 63)
						queue = append(queue, v)
					}
				}
			}
		}
		maxEcc = max(maxEcc, levels-1)
	}
	return maxEcc, components
}

// Connected reports whether every node is reachable from node 0.
func (g *RGG) Connected() bool {
	_, components := g.componentSweep()
	return components == 1
}

// computeColoring greedily assigns each node (in id order) the smallest
// color not used within hop distance 2. Two same-colored nodes are
// therefore at hop distance >= 3 and share no receiver, which makes the
// schedule collision-free.
//
// Instead of walking every two-hop path, each node v carries mask[v],
// the bitset of colors held so far by v and by its neighbors. The colors
// within two hops of i are then the union of mask[v] over v in N(i) — i
// itself is still uncolored and contributes nothing — so choosing i's
// color reads, and publishing it writes, one mask per neighbor: O(deg)
// per node where the walk is O(deg²). The masks are construction
// scratch, one uint64 per node until a neighborhood needs more than 64
// colors.
func (g *RGG) computeColoring() {
	n := g.n
	g.colors = make([]int32, n)
	words := 1 // mask width; node v's mask is mask[v*words:(v+1)*words]
	mask := make([]uint64, n)
	forbidden := make([]uint64, words)
	for i := 0; i < n; i++ {
		row := g.neighbors(NodeID(i))
		clear(forbidden)
		for _, v := range row {
			for w, m := range mask[int(v)*words : (int(v)+1)*words] {
				forbidden[w] |= m
			}
		}
		c := 64 * words
		for w, f := range forbidden {
			if f != math.MaxUint64 {
				c = 64*w + bits.TrailingZeros64(^f)
				break
			}
		}
		if c == 64*words {
			// Every color the masks can name is taken: double their width.
			wide := make([]uint64, 2*words*n)
			for v := 0; v < n; v++ {
				copy(wide[2*words*v:], mask[words*v:words*(v+1)])
			}
			mask, words = wide, 2*words
			forbidden = make([]uint64, words)
		}
		g.colors[i] = int32(c)
		g.period = max(g.period, c+1)
		w, bit := c>>6, uint64(1)<<(c&63)
		mask[i*words+w] |= bit
		for _, v := range row {
			mask[int(v)*words+w] |= bit
		}
	}
}

// Radius returns the Euclidean connection radius.
func (g *RGG) Radius() float64 { return g.radius }

// Size returns the number of nodes.
func (g *RGG) Size() int { return g.n }

// Range returns 1: adjacency is the neighbor relation.
func (g *RGG) Range() int { return 1 }

// MaxDegree returns the largest degree over all nodes.
func (g *RGG) MaxDegree() int { return g.maxDeg }

// AppendNeighbors appends the neighbors of id to dst, ascending, and
// returns it.
func (g *RGG) AppendNeighbors(dst []NodeID, id NodeID) []NodeID {
	return append(dst, g.neighbors(id)...)
}

// Dist returns the hop distance between two nodes; unreachable pairs
// report a distance larger than any diameter. It runs a level-by-level
// BFS from a that stops at b. Callers query nearby pairs — a jammer and a
// transmitter next to one victim, a delivery's sender and receiver — so
// the search stops within a ring or two.
func (g *RGG) Dist(a, b NodeID) int {
	if a == b {
		return 0
	}
	s, _ := g.scratch.Get().(*rggScratch)
	if s == nil {
		s = &rggScratch{seen: make([]int32, g.n)}
	}
	defer g.scratch.Put(s)
	if s.epoch++; s.epoch < 0 {
		s.epoch = 1
		clear(s.seen)
	}
	epoch := s.epoch
	s.seen[a] = epoch
	q := append(s.queue[:0], a)
	for head, level := 0, 1; head < len(q); level++ {
		for end := len(q); head < end; head++ {
			for _, v := range g.neighbors(q[head]) {
				if v == b {
					s.queue = q[:0]
					return level
				}
				if s.seen[v] != epoch {
					s.seen[v] = epoch
					q = append(q, v)
				}
			}
		}
	}
	s.queue = q[:0]
	return unreachableHop
}

// Coloring returns the greedy distance-2 coloring computed at
// construction.
func (g *RGG) Coloring() ([]int32, int, error) {
	colors := make([]int32, g.n)
	copy(colors, g.colors)
	return colors, g.period, nil
}

// DiameterHint returns a generous upper bound on the hop diameter: the
// exact diameter plus slack up to exactDiameterMaxNodes nodes, twice an
// eccentricity plus slack above.
func (g *RGG) DiameterHint() int { return g.diamHint }

// String implements fmt.Stringer.
func (g *RGG) String() string {
	return fmt.Sprintf("rgg n=%d radius=%.3f", g.n, g.radius)
}
