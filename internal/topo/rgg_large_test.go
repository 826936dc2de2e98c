package topo

import (
	"slices"
	"testing"
)

// allPairsHops is the test-local all-pairs hop table: one plain BFS per
// source over the CSR rows, -1 where unreachable.
func allPairsHops(g *RGG) [][]int {
	hops := make([][]int, g.n)
	for src := range hops {
		row := make([]int, g.n)
		for i := range row {
			row[i] = -1
		}
		row[src] = 0
		for q := []NodeID{NodeID(src)}; len(q) > 0; q = q[1:] {
			for _, v := range g.neighbors(q[0]) {
				if row[v] < 0 {
					row[v] = row[q[0]] + 1
					q = append(q, v)
				}
			}
		}
		hops[src] = row
	}
	return hops
}

// TestRGGBFSMatchesTable holds the early-exit BFS behind Dist, Connected,
// the exact diameter and the eccentricity-based bound of the large tier
// to a test-local all-pairs hop table, on connected graphs and on one
// with isolated nodes. The 100k-node tier runs the same code.
func TestRGGBFSMatchesTable(t *testing.T) {
	sparse, err := NewRGG(150, 0.05, 2)
	if err != nil {
		t.Fatal(err)
	}
	graphs := []*RGG{sparse}
	for _, n := range []int{40, 150, 400} {
		g, err := NewConnectedRGG(n, uint64(n))
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	for _, g := range graphs {
		hops := allPairsHops(g)
		connected, diam := true, 0
		for a := range hops {
			for b, want := range hops[a] {
				if want < 0 {
					connected = false
					want = unreachableHop
				}
				diam = max(diam, hops[a][b])
				if got := g.Dist(NodeID(a), NodeID(b)); got != want {
					t.Fatalf("%v: Dist(%d,%d) = %d, table %d", g, a, b, got, want)
				}
			}
		}
		if g.Connected() != connected {
			t.Fatalf("%v: Connected() = %v, table %v", g, g.Connected(), connected)
		}
		if g.DiameterHint() != diam+2 {
			t.Fatalf("%v: DiameterHint %d, exact diameter %d + 2", g, g.DiameterHint(), diam)
		}
		ecc, components := g.componentSweep()
		if bound := 2 * ecc; bound < diam {
			t.Fatalf("%v: 2·ecc=%d below exact diameter %d", g, bound, diam)
		}
		if (components == 1) != connected {
			t.Fatalf("%v: sweep counts %d components, table connected=%v", g, components, connected)
		}
	}
	if sparse.Connected() {
		t.Fatal("the sparse case must have isolated nodes")
	}
}

// TestRGGLargeTier builds a graph just above the exact-diameter threshold
// and checks the structural invariants the simulation engines rely on:
// connectivity, symmetric ascending rows, a collision-free coloring and
// BFS distances on two-hop paths.
func TestRGGLargeTier(t *testing.T) {
	if testing.Short() {
		t.Skip("large RGG tier")
	}
	n := exactDiameterMaxNodes + 500
	g, err := NewConnectedRGG(n, 3)
	if err != nil {
		t.Fatal(err)
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
	// On a sample: every node within two hops has another color and a
	// BFS distance of one or two.
	colors, period, err := g.Coloring()
	if err != nil {
		t.Fatal(err)
	}
	if period < 1 {
		t.Fatalf("period %d", period)
	}
	for i := 0; i < n; i += 97 {
		for _, v := range g.neighbors(NodeID(i)) {
			if d := g.Dist(NodeID(i), v); d != 1 {
				t.Fatalf("Dist(%d,%d)=%d between neighbors", i, v, d)
			}
			for _, w := range g.neighbors(v) {
				if w == NodeID(i) {
					continue
				}
				if colors[w] == colors[i] || colors[v] == colors[i] {
					t.Fatalf("distance-2 color clash around %d (color %d)", i, colors[i])
				}
				if d := g.Dist(NodeID(i), w); d < 1 || d > 2 {
					t.Fatalf("Dist(%d,%d)=%d on a two-hop path", i, w, d)
				}
			}
		}
	}
}
