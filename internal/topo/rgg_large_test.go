package topo

import (
	"slices"
	"testing"
)

// TestRGGBFSMatchesTable forces the table-free BFS query path on graphs
// small enough to also carry the all-pairs table, and asserts that Dist,
// ForEachWithin, Connected and the eccentricity-based diameter bound
// agree with the exact table answers. This is the conformance bridge that
// lets the 100k-node tier (where only the BFS path exists) trust the
// same code the small-graph tests exercise.
func TestRGGBFSMatchesTable(t *testing.T) {
	for _, n := range []int{40, 150, 400} {
		g, err := NewConnectedRGG(n, uint64(n))
		if err != nil {
			t.Fatal(err)
		}
		if g.dist == nil {
			t.Fatalf("n=%d: expected all-pairs table below threshold", n)
		}
		// A shallow copy sharing the CSR but stripped of the table
		// answers every query through BFS.
		big := &RGG{
			n: g.n, radius: g.radius, xs: g.xs, ys: g.ys,
			off: g.off, nbrs: g.nbrs, maxDeg: g.maxDeg,
			colors: g.colors, period: g.period,
		}
		for a := 0; a < n; a++ {
			for b := 0; b < n; b += 7 {
				want, got := g.Dist(NodeID(a), NodeID(b)), big.Dist(NodeID(a), NodeID(b))
				if want != got {
					t.Fatalf("n=%d Dist(%d,%d): table %d, bfs %d", n, a, b, want, got)
				}
			}
		}
		for id := 0; id < n; id += 11 {
			for d := 0; d <= 4; d++ {
				var want, got []NodeID
				g.ForEachWithin(NodeID(id), d, func(v NodeID) { want = append(want, v) })
				big.ForEachWithin(NodeID(id), d, func(v NodeID) { got = append(got, v) })
				if !slices.Equal(want, got) {
					t.Fatalf("n=%d ForEachWithin(%d,%d): table %v, bfs %v", n, id, d, want, got)
				}
			}
		}
		if !big.Connected() {
			t.Fatalf("n=%d: BFS path reports disconnected", n)
		}
		// The eccentricity bound must dominate the exact diameter.
		exact := g.DiameterHint() - 2
		ecc, components := big.componentSweep()
		if bound := 2 * ecc; bound < exact {
			t.Fatalf("n=%d: 2·ecc=%d below exact diameter %d", n, bound, exact)
		}
		if components != 1 {
			t.Fatalf("n=%d: sweep counts %d components in a connected graph", n, components)
		}
	}
}

// TestRGGLargeTier builds a graph just above the table threshold and
// checks the structural invariants the simulation engines rely on, plus
// nested BFS queries (a ForEachWithin callback issuing Dist calls, the
// bv certification pattern).
func TestRGGLargeTier(t *testing.T) {
	if testing.Short() {
		t.Skip("large RGG tier")
	}
	n := distTableMaxNodes + 500
	g, err := NewConnectedRGG(n, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.dist != nil {
		t.Fatal("expected no all-pairs table above threshold")
	}
	if !g.Connected() {
		t.Fatal("NewConnectedRGG returned a disconnected graph")
	}
	// Adjacency symmetry and ascending order.
	for i := 0; i < n; i++ {
		nb := g.neighbors(NodeID(i))
		if !slices.IsSorted(nb) {
			t.Fatalf("node %d: neighbors not ascending", i)
		}
		for _, v := range nb {
			if !slices.Contains(g.neighbors(v), NodeID(i)) {
				t.Fatalf("asymmetric edge %d-%d", i, v)
			}
		}
	}
	// Distance-2 coloring validity on a sample.
	colors, period, err := g.Coloring()
	if err != nil {
		t.Fatal(err)
	}
	if period < 1 {
		t.Fatalf("period %d", period)
	}
	for i := 0; i < n; i += 97 {
		g.ForEachWithin(NodeID(i), 2, func(v NodeID) {
			if colors[v] == colors[i] {
				t.Fatalf("distance-2 color clash %d/%d (color %d)", i, v, colors[i])
			}
		})
	}
	// Nested queries: Dist inside a ForEachWithin callback.
	g.ForEachWithin(0, 2, func(v NodeID) {
		if d := g.Dist(0, v); d < 1 || d > 2 {
			t.Fatalf("Dist(0,%d)=%d inside ForEachWithin(0,2)", v, d)
		}
	})
}
