// Package topotest is a shared conformance suite for topo.Topology
// implementations. Every topology the engine accepts must pass Run: the
// engine's correctness (collision-freedom of the TDMA schedule, supply
// accounting, adversary validation) rests exactly on these properties.
package topotest

import (
	"testing"

	"bftbcast/internal/topo"
)

// Run asserts the Topology contract on tp: symmetric, self-free,
// duplicate-free neighborhoods consistent with Dist and Range; degrees
// consistent with Degree/MaxDegree; ForEachWithin consistent with Dist;
// and a valid distance-2 coloring (same color ⇒ no common receiver).
func Run(t *testing.T, tp topo.Topology) {
	t.Helper()
	n := tp.Size()
	if n <= 0 {
		t.Fatalf("%v: Size() = %d, want > 0", tp, n)
	}
	r := tp.Range()
	if r < 1 {
		t.Fatalf("%v: Range() = %d, want >= 1", tp, r)
	}

	neighbors := make([][]topo.NodeID, n)
	maxDeg := 0
	for i := 0; i < n; i++ {
		id := topo.NodeID(i)
		neighbors[i] = tp.AppendNeighbors(nil, id)
		if d := len(neighbors[i]); d > maxDeg {
			maxDeg = d
		}

		// ForEachNeighbor agrees with AppendNeighbors, in order.
		var fromIter []topo.NodeID
		tp.ForEachNeighbor(id, func(nb topo.NodeID) { fromIter = append(fromIter, nb) })
		if len(fromIter) != len(neighbors[i]) {
			t.Fatalf("%v: node %d: ForEachNeighbor yields %d nodes, AppendNeighbors %d",
				tp, id, len(fromIter), len(neighbors[i]))
		}
		for j := range fromIter {
			if fromIter[j] != neighbors[i][j] {
				t.Fatalf("%v: node %d: neighbor iteration order mismatch at %d", tp, id, j)
			}
		}

		if got, want := tp.Degree(id), len(neighbors[i]); got != want {
			t.Errorf("%v: Degree(%d) = %d, want %d", tp, id, got, want)
		}

		seen := make(map[topo.NodeID]bool, len(neighbors[i]))
		for _, nb := range neighbors[i] {
			if nb == id {
				t.Errorf("%v: node %d lists itself as neighbor", tp, id)
			}
			if int(nb) < 0 || int(nb) >= n {
				t.Fatalf("%v: node %d has out-of-range neighbor %d", tp, id, nb)
			}
			if seen[nb] {
				t.Errorf("%v: node %d lists neighbor %d twice", tp, id, nb)
			}
			seen[nb] = true
			if d := tp.Dist(id, nb); d < 1 || d > r {
				t.Errorf("%v: neighbor %d of %d at distance %d, want 1..%d", tp, nb, id, d, r)
			}
		}
	}
	if got := tp.MaxDegree(); got != maxDeg {
		t.Errorf("%v: MaxDegree() = %d, observed max %d", tp, got, maxDeg)
	}

	// Symmetry: b in N(a) ⇔ a in N(b).
	for i := 0; i < n; i++ {
		for _, nb := range neighbors[i] {
			found := false
			for _, back := range neighbors[nb] {
				if int(back) == i {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("%v: asymmetric neighborhood: %d hears %d but not vice versa", tp, nb, i)
			}
		}
	}

	// Dist is a metric on the sampled pairs: zero on the diagonal,
	// symmetric, and <= r exactly on neighbor pairs.
	step := 1
	if n > 512 {
		step = n / 512
	}
	for i := 0; i < n; i += step {
		a := topo.NodeID(i)
		if d := tp.Dist(a, a); d != 0 {
			t.Errorf("%v: Dist(%d,%d) = %d, want 0", tp, a, a, d)
		}
		isNeighbor := make(map[topo.NodeID]bool, len(neighbors[i]))
		for _, nb := range neighbors[i] {
			isNeighbor[nb] = true
		}
		for j := 0; j < n; j += step {
			b := topo.NodeID(j)
			if d, back := tp.Dist(a, b), tp.Dist(b, a); d != back {
				t.Fatalf("%v: Dist(%d,%d)=%d but Dist(%d,%d)=%d", tp, a, b, d, b, a, back)
			}
			if a != b {
				if inRange := tp.Dist(a, b) <= r; inRange != isNeighbor[b] {
					t.Fatalf("%v: Dist(%d,%d)=%d disagrees with adjacency %v",
						tp, a, b, tp.Dist(a, b), isNeighbor[b])
				}
			}
		}

		// ForEachWithin(r) is exactly the neighborhood, and within(d)
		// matches a Dist scan for a larger radius.
		for _, d := range []int{r, 2 * r} {
			var got []topo.NodeID
			tp.ForEachWithin(a, d, func(nb topo.NodeID) { got = append(got, nb) })
			want := 0
			for j := 0; j < n; j++ {
				if topo.NodeID(j) != a && tp.Dist(a, topo.NodeID(j)) <= d {
					want++
				}
			}
			if len(got) != want {
				t.Fatalf("%v: ForEachWithin(%d, %d) yields %d nodes, Dist scan %d",
					tp, a, d, len(got), want)
			}
			dup := make(map[topo.NodeID]bool, len(got))
			for _, nb := range got {
				if nb == a || tp.Dist(a, nb) > d || dup[nb] {
					t.Fatalf("%v: ForEachWithin(%d, %d) yields invalid or duplicate node %d", tp, a, d, nb)
				}
				dup[nb] = true
			}
		}
	}

	// The coloring is a valid distance-2 coloring: two distinct nodes of
	// the same color sit at distance > 2r, so no receiver hears both and
	// the TDMA schedule is collision-free.
	colors, period, err := tp.Coloring()
	if err != nil {
		t.Fatalf("%v: Coloring() failed: %v", tp, err)
	}
	if len(colors) != n {
		t.Fatalf("%v: Coloring() returned %d colors for %d nodes", tp, len(colors), n)
	}
	if period < 1 {
		t.Fatalf("%v: Coloring() period %d", tp, period)
	}
	for i, c := range colors {
		if c < 0 || int(c) >= period {
			t.Fatalf("%v: node %d has color %d outside [0, %d)", tp, i, c, period)
		}
		id := topo.NodeID(i)
		tp.ForEachWithin(id, 2*r, func(nb topo.NodeID) {
			if nb > id && colors[nb] == c {
				t.Fatalf("%v: nodes %d and %d share color %d at distance %d <= 2r=%d (schedule collision)",
					tp, id, nb, c, tp.Dist(id, nb), 2*r)
			}
		})
	}

	// DiameterHint bounds the hop eccentricity of node 0: a greedy BFS
	// over the neighbor relation must terminate within the hint.
	hint := tp.DiameterHint()
	if hint < 1 {
		t.Fatalf("%v: DiameterHint() = %d", tp, hint)
	}
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[0] = 0
	queue := []topo.NodeID{0}
	far := 0
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range neighbors[u] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				if dist[v] > far {
					far = dist[v]
				}
				queue = append(queue, v)
			}
		}
	}
	for i, d := range dist {
		if d < 0 {
			t.Fatalf("%v: node %d unreachable from node 0", tp, i)
		}
	}
	if far > hint {
		t.Errorf("%v: eccentricity of node 0 is %d hops > DiameterHint %d", tp, far, hint)
	}
}

// Miscolored wraps tp in a topology that is tp in every respect except
// that its Coloring gives b the color of a — a broken TDMA schedule when
// the two share a receiver. Tests use it to hold engines to their
// behavior on a coloring that is not distance-2 (Run rejects it).
func Miscolored(tp topo.Topology, a, b topo.NodeID) topo.Topology {
	return &miscolored{Topology: tp, a: a, b: b}
}

type miscolored struct {
	topo.Topology
	a, b topo.NodeID
}

func (m *miscolored) Coloring() ([]int32, int, error) {
	colors, period, err := m.Topology.Coloring()
	if err != nil {
		return nil, 0, err
	}
	colors = append([]int32(nil), colors...)
	colors[m.b] = colors[m.a]
	return colors, period, nil
}
