package topo_test

import (
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"bftbcast/internal/grid"
	"bftbcast/internal/topo"
	"bftbcast/internal/topo/topotest"
)

// TestConformance runs the shared Topology conformance suite over every
// implementation: the canonical torus, the bounded grid, and connected
// RGGs of a few densities.
func TestConformance(t *testing.T) {
	cases := []struct {
		name  string
		build func(t *testing.T) topo.Topology
	}{
		{"torus-15x15-r1", func(t *testing.T) topo.Topology { return grid.MustNew(15, 15, 1) }},
		{"torus-20x20-r2", func(t *testing.T) topo.Topology { return grid.MustNew(20, 20, 2) }},
		{"torus-21x14-r3", func(t *testing.T) topo.Topology { return grid.MustNew(21, 14, 3) }},
		{"bounded-15x15-r1", func(t *testing.T) topo.Topology { return topo.MustNewBounded(15, 15, 1) }},
		{"bounded-20x20-r2", func(t *testing.T) topo.Topology { return topo.MustNewBounded(20, 20, 2) }},
		{"bounded-23x9-r3", func(t *testing.T) topo.Topology { return topo.MustNewBounded(23, 9, 3) }},
		{"rgg-60", func(t *testing.T) topo.Topology { return mustRGG(t, 60, 1) }},
		{"rgg-200", func(t *testing.T) topo.Topology { return mustRGG(t, 200, 7) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			topotest.Run(t, tc.build(t))
		})
	}
}

func mustRGG(t *testing.T, n int, seed uint64) *topo.RGG {
	t.Helper()
	g, err := topo.NewConnectedRGG(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestTorusBallSizes pins the paper's closed-form counts on the torus:
// degree (2r+1)²−1 everywhere and the distance-d ball (2d+1)²−1 for d
// below the wrap threshold.
func TestTorusBallSizes(t *testing.T) {
	for _, r := range []int{1, 2, 3} {
		tor := grid.MustNew(7*(2*r+1), 7*(2*r+1), r)
		side := 2*r + 1
		if got, want := tor.MaxDegree(), side*side-1; got != want {
			t.Errorf("r=%d: MaxDegree = %d, want (2r+1)²−1 = %d", r, got, want)
		}
		for _, d := range []int{r, 2 * r} {
			count := 0
			for i := 0; i < tor.Size(); i++ {
				if dist := tor.Dist(tor.ID(3, 3), grid.NodeID(i)); dist > 0 && dist <= d {
					count++
				}
			}
			if want := (2*d+1)*(2*d+1) - 1; count != want {
				t.Errorf("r=%d: ball(d=%d) has %d nodes, want (2d+1)²−1 = %d", r, d, count, want)
			}
		}
	}
}

// TestBoundedBorderDegrees pins the truncation pattern of the bounded
// grid: interior nodes keep the full (2r+1)²−1 neighborhood, corners
// drop to (r+1)²−1.
func TestBoundedBorderDegrees(t *testing.T) {
	b := topo.MustNewBounded(20, 20, 2)
	degree := func(x, y int) int { return len(b.AppendNeighbors(nil, b.ID(x, y))) }
	if got, want := degree(10, 10), 24; got != want {
		t.Errorf("interior degree = %d, want %d", got, want)
	}
	if got, want := degree(0, 0), 8; got != want {
		t.Errorf("corner degree = %d, want (r+1)²−1 = %d", got, want)
	}
	if got, want := degree(10, 0), 14; got != want {
		t.Errorf("edge degree = %d, want (2r+1)(r+1)−1 = %d", got, want)
	}
}

// TestConformanceRejectsMiscolored holds Run's coloring rule to its
// purpose: on each topology kind, giving one node the color of another
// that shares a receiver with it must fail the suite.
func TestConformanceRejectsMiscolored(t *testing.T) {
	tor := grid.MustNew(15, 15, 1)
	bounded := topo.MustNewBounded(15, 15, 1)
	rgg := mustRGG(t, 200, 7)
	// Two pairs of the RGG: one two hops apart, and an edge whose ends
	// share no neighbor, so only their own closed neighborhoods hold both.
	var twoHop, lonely []topo.NodeID
	for a := topo.NodeID(0); int(a) < rgg.Size(); a++ {
		na := rgg.AppendNeighbors(nil, a)
		for _, b := range na {
			shared := false
			for _, w := range rgg.AppendNeighbors(nil, b) {
				if slices.Contains(na, w) {
					shared = true
				} else if w != a && twoHop == nil {
					twoHop = []topo.NodeID{a, w}
				}
			}
			if !shared && lonely == nil {
				lonely = []topo.NodeID{a, b}
			}
		}
	}
	if twoHop == nil || lonely == nil {
		t.Fatalf("%v: no two-hop pair or no edge without a common neighbor", rgg)
	}
	for _, tc := range []struct {
		tp   topo.Topology
		a, b topo.NodeID
	}{
		{tor, tor.ID(0, 0), tor.ID(2, 0)},             // common receiver (1, 0)
		{tor, tor.ID(0, 0), tor.ID(14, 14)},           // adjacent across the wrap
		{bounded, bounded.ID(5, 5), bounded.ID(7, 7)}, // common receiver (6, 6)
		{bounded, bounded.ID(0, 0), bounded.ID(1, 0)}, // adjacent on the border
		{rgg, twoHop[0], twoHop[1]},                   // a common neighbor
		{rgg, lonely[0], lonely[1]},                   // adjacent, no common neighbor
	} {
		if failsConformance(t, tc.tp) {
			t.Fatalf("%v: the recorder fails the unmodified topology", tc.tp)
		}
		if !failsConformance(t, topotest.Miscolored(tc.tp, tc.a, tc.b)) {
			t.Errorf("%v: Run accepted nodes %d and %d sharing a color", tc.tp, tc.a, tc.b)
		}
	}
}

// failsConformance runs the suite on tp with a recorder in place of t and
// reports whether it failed. The recorder's Fatalf ends only the
// goroutine running the suite.
func failsConformance(t *testing.T, tp topo.Topology) bool {
	rec := &failRecorder{TB: t}
	done := make(chan struct{})
	go func() {
		defer close(done)
		topotest.Run(rec, tp)
	}()
	<-done
	return rec.failed
}

type failRecorder struct {
	testing.TB
	failed bool
}

func (r *failRecorder) Helper()               {}
func (r *failRecorder) Errorf(string, ...any) { r.failed = true }
func (r *failRecorder) Fatalf(string, ...any) {
	r.failed = true
	runtime.Goexit()
}

// TestRGGDeterminism: same (n, seed) must give the same graph.
func TestRGGDeterminism(t *testing.T) {
	a := mustRGG(t, 120, 3)
	b := mustRGG(t, 120, 3)
	if a.Radius() != b.Radius() || a.Size() != b.Size() || a.MaxDegree() != b.MaxDegree() {
		t.Fatalf("rgg not deterministic: %v vs %v", a, b)
	}
	for i := 0; i < a.Size(); i++ {
		if !slices.Equal(a.AppendNeighbors(nil, topo.NodeID(i)), b.AppendNeighbors(nil, topo.NodeID(i))) {
			t.Fatalf("rgg not deterministic at node %d", i)
		}
	}
	if c := mustRGG(t, 120, 4); c.MaxDegree() == a.MaxDegree() && c.Radius() == a.Radius() {
		t.Log("different seeds produced identical radius and max degree (unlikely but possible)")
	}
}

// TestFactory covers the -topology flag's kind dispatch.
func TestFactory(t *testing.T) {
	for _, tc := range []struct {
		spec topo.Spec
		want string
	}{
		{topo.Spec{Kind: "torus", W: 10, H: 10, R: 1}, "torus"},
		{topo.Spec{Kind: "", W: 10, H: 10, R: 1}, "torus"},
		{topo.Spec{Kind: "grid", W: 10, H: 10, R: 1}, "grid"},
		{topo.Spec{Kind: "rgg", W: 10, H: 10, Seed: 1}, "rgg n=100"},
		{topo.Spec{Kind: "rgg", Nodes: 64, Seed: 1}, "rgg n=64"},
	} {
		tp, err := topo.New(tc.spec)
		if err != nil {
			t.Fatalf("New(%+v): %v", tc.spec, err)
		}
		if !strings.HasPrefix(tp.String(), tc.want) {
			t.Errorf("New(%+v) = %v, want prefix %q", tc.spec, tp, tc.want)
		}
	}
	if _, err := topo.New(topo.Spec{Kind: "klein-bottle", W: 10, H: 10, R: 1}); err == nil {
		t.Fatal("unknown kind must fail")
	}
	// Grids too large to compile are refused before anything is built:
	// by node count, and by adjacency entries at a legal node count.
	for _, s := range []topo.Spec{
		{Kind: "torus", W: 3000000, H: 3000000, R: 1},
		{Kind: "grid", W: 2048, H: 1024, R: 1},
		{Kind: "torus", W: 1020, H: 1020, R: 127},
	} {
		if _, err := topo.New(s); err == nil {
			t.Errorf("New(%+v) accepted an oversized grid", s)
		}
	}
	if _, err := topo.New(topo.Spec{Kind: "torus", W: 1020, H: 1020, R: 2}); err != nil {
		t.Errorf("a 2^20-scale torus at r = 2 must stay admitted: %v", err)
	}
	if _, err := topo.NewBounded(4, 20, 2); err == nil {
		t.Fatal("bounded grid smaller than 2r+1 must fail")
	}
	if _, err := topo.NewBounded(5, 5, 1<<62); err == nil {
		t.Fatal("a range whose 2r+1 overflows must fail")
	}
	if _, err := topo.NewRGG(1, 0.1, 1); err == nil {
		t.Fatal("rgg with one node must fail")
	}
	if _, err := topo.NewRGG(10, -1, 1); err == nil {
		t.Fatal("rgg with negative radius must fail")
	}
	if _, err := topo.NewRGG(10, math.NaN(), 1); err == nil {
		t.Fatal("rgg with NaN radius must fail")
	}
}
