package topo

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"bftbcast/internal/stats"
)

// refRGG holds what the reference construction produces: the arrays the
// layers above the Topology seam consume.
type refRGG struct {
	off      []int32
	nbrs     []NodeID
	maxDeg   int
	colors   []int32
	period   int
	diamHint int
}

// refBuild is the construction the shipped one replaced, written the
// plain way: the O(n²) pair loop for the adjacency (which is ascending by
// construction), the id-stamped two-hop walk for the greedy distance-2
// coloring, and one BFS per node (up to exactDiameterMaxNodes) or per
// component (above it) for the diameter hint.
func refBuild(xs, ys []float64, radius float64) refRGG {
	n := len(xs)
	ref := refRGG{off: make([]int32, n+1)}
	r2 := radius * radius
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			ddx, ddy := xs[i]-xs[j], ys[i]-ys[j]
			if ddx*ddx+ddy*ddy <= r2 {
				ref.nbrs = append(ref.nbrs, NodeID(j))
			}
		}
		ref.off[i+1] = int32(len(ref.nbrs))
		if d := int(ref.off[i+1] - ref.off[i]); d > ref.maxDeg {
			ref.maxDeg = d
		}
	}
	row := func(i NodeID) []NodeID { return ref.nbrs[ref.off[i]:ref.off[i+1]] }

	ref.colors = make([]int32, n)
	for i := range ref.colors {
		ref.colors[i] = -1
	}
	var usedAt []int32
	for i := 0; i < n; i++ {
		stamp := int32(i) + 1
		mark := func(c int32) {
			if c < 0 {
				return
			}
			for int(c) >= len(usedAt) {
				usedAt = append(usedAt, 0)
			}
			usedAt[c] = stamp
		}
		for _, v := range row(NodeID(i)) {
			mark(ref.colors[v])
			for _, w := range row(v) {
				mark(ref.colors[w])
			}
		}
		var c int32
		for int(c) < len(usedAt) && usedAt[c] == stamp {
			c++
		}
		ref.colors[i] = c
		if int(c)+1 > ref.period {
			ref.period = int(c) + 1
		}
	}

	// ecc(src) within src's component, marking what it reached.
	depth := make([]int, n)
	bfs := func(src int, seen []bool) int {
		seen[src] = true
		depth[src] = 0
		ecc := 0
		for q := []NodeID{NodeID(src)}; len(q) > 0; q = q[1:] {
			ecc = max(ecc, depth[q[0]])
			for _, v := range row(q[0]) {
				if !seen[v] {
					seen[v] = true
					depth[v] = depth[q[0]] + 1
					q = append(q, v)
				}
			}
		}
		return ecc
	}
	if n <= exactDiameterMaxNodes {
		diam := 0
		for src := 0; src < n; src++ {
			diam = max(diam, bfs(src, make([]bool, n)))
		}
		ref.diamHint = diam + 2
	} else {
		seen := make([]bool, n)
		maxEcc := 0
		for src := 0; src < n; src++ {
			if !seen[src] {
				maxEcc = max(maxEcc, bfs(src, seen))
			}
		}
		ref.diamHint = 2*maxEcc + 2
	}
	return ref
}

func checkAgainstRef(t *testing.T, label string, g *RGG, ref refRGG) {
	t.Helper()
	switch {
	case !slices.Equal(g.off, ref.off):
		t.Fatalf("%s: CSR offsets differ from the reference", label)
	case !slices.Equal(g.nbrs, ref.nbrs):
		t.Fatalf("%s: CSR rows differ from the reference", label)
	case g.maxDeg != ref.maxDeg:
		t.Fatalf("%s: maxDeg %d, reference %d", label, g.maxDeg, ref.maxDeg)
	case !slices.Equal(g.colors, ref.colors):
		t.Fatalf("%s: coloring differs from the reference", label)
	case g.period != ref.period:
		t.Fatalf("%s: period %d, reference %d", label, g.period, ref.period)
	case g.diamHint != ref.diamHint:
		t.Fatalf("%s: DiameterHint %d, reference %d", label, g.diamHint, ref.diamHint)
	}
}

// TestRGGMatchesReference is the differential oracle for the linear-time
// construction: over randomised (n, radius, seed) the shipped constructor
// must reproduce the reference arrays exactly. The radius regimes cover
// disconnected graphs with isolated nodes, the connectivity threshold,
// one-cell grids (radius >= 1) and neighborhoods dense enough to need
// more than 64 and more than 128 colors (the bitset-widening path of the
// coloring); a share of the draws carries duplicate coordinates.
//
// The stream draws 120 cells and checks the kept ones (rggKeptDraws);
// the others are drawn and skipped, so every kept cell is the same graph
// it was when all 120 ran.
func TestRGGMatchesReference(t *testing.T) {
	const draws = 120
	rng := stats.NewRNG(15)
	maxPeriod, ran := 0, 0
	for d := 0; d < draws; d++ {
		n := 2 + rng.Intn(1499)
		threshold := math.Sqrt(math.Log(float64(n)+1) / (math.Pi * float64(n)))
		var radius float64
		switch d % 6 {
		case 0: // far below the threshold: mostly isolated nodes
			radius = threshold * (0.05 + 0.4*rng.Float64())
		case 1: // around the threshold
			radius = threshold * (0.7 + 0.8*rng.Float64())
		case 2: // comfortably connected
			radius = threshold * (1.5 + 2*rng.Float64())
		case 3: // dense: two-hop neighborhoods of hundreds of nodes
			radius = 0.12 + 0.25*rng.Float64()
		case 4: // one cell
			radius = 1 + rng.Float64()
		case 5: // cell side barely above the radius
			radius = 1 / (float64(2+rng.Intn(12)) + 1e-9)
		}
		if d%6 >= 3 && n > 600 {
			n = 2 + n%600 // keep the O(n²·deg) reference affordable
		}
		seed := rng.Uint64()
		xs, ys := rggPoints(n, seed)
		if d%4 == 3 {
			for k := 0; k < n/5; k++ {
				i, j := rng.Intn(n), rng.Intn(n)
				xs[i], ys[i] = xs[j], ys[j]
			}
		}
		if !slices.Contains(rggKeptDraws, d) {
			continue
		}
		t.Run(fmt.Sprintf("draw%03d", d), func(t *testing.T) {
			g, err := newRGGFromPoints(xs, ys, radius)
			if err != nil {
				t.Fatalf("draw %d (n=%d radius=%v): %v", d, n, radius, err)
			}
			checkAgainstRef(t, g.String(), g, refBuild(xs, ys, radius))
			maxPeriod, ran = max(maxPeriod, g.period), ran+1
		})
	}
	if ran == len(rggKeptDraws) && maxPeriod <= 128 { // a -run filter may leave the widest draw out
		t.Fatalf("widest coloring drawn has %d colors; the oracle must cross 128", maxPeriod)
	}
}

// rggKeptDraws are the cells of TestRGGMatchesReference that run. Draws
// 23 and 27 between them catch every mutant of mutants/table.txt that
// any of the 120 draws catches (DESIGN.md §7); the others keep each
// radius regime and the widest coloring exercised by its cheapest draw:
// 54 far below the connectivity threshold, 31 around it (with duplicate
// points), 14 comfortably connected, 28 one cell, 94 over 128 colors.
// 23 (cell side barely above the radius) and 27 (dense) carry duplicate
// points.
var rggKeptDraws = []int{14, 23, 27, 28, 31, 54, 94}

// rggFingerprint is FNV-64a over the little-endian int32 images of the
// CSR offsets, the CSR rows and the coloring, then period, maxDeg and
// DiameterHint.
func rggFingerprint(g *RGG) uint64 {
	h := fnv.New64a()
	var b [4]byte
	word := func(v int32) {
		binary.LittleEndian.PutUint32(b[:], uint32(v))
		h.Write(b[:])
	}
	for _, v := range g.off {
		word(v)
	}
	for _, v := range g.nbrs {
		word(int32(v))
	}
	for _, v := range g.colors {
		word(v)
	}
	word(int32(g.period))
	word(int32(g.maxDeg))
	word(int32(g.diamHint))
	return h.Sum64()
}

// TestRGGGoldenFingerprints pins the graphs the benchmark tiers run on to
// what the pre-rewrite constructor (commit 737be15) produced: the
// fingerprints and anchors below were recorded there, before rgg.go was
// touched.
func TestRGGGoldenFingerprints(t *testing.T) {
	for _, tc := range []struct {
		n                               int
		seed                            uint64
		edges, maxDeg, period, diamHint int
		want                            uint64
		large                           bool
	}{
		{n: 4097, seed: 5, edges: 97_430, maxDeg: 47, period: 57, diamHint: 52, want: 0xe435740b5629b970},
		{n: 25_600, seed: 7, edges: 311_672, maxDeg: 28, period: 35, diamHint: 206, want: 0x3d9bb42e18dd544a},
		{n: 100_000, seed: 7, edges: 1_382_462, maxDeg: 32, period: 38, diamHint: 368, want: 0x3fba2a5cfc1d0bb7},
		{n: 1 << 20, seed: 7, edges: 17_541_368, maxDeg: 41, period: 49, diamHint: 1054, want: 0x645313941be64f10, large: true},
	} {
		if tc.large && testing.Short() {
			continue
		}
		g, err := NewConnectedRGG(tc.n, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		if len(g.nbrs) != tc.edges || g.maxDeg != tc.maxDeg || g.period != tc.period || g.diamHint != tc.diamHint {
			t.Errorf("n=%d seed=%d: edges %d maxDeg %d period %d diamHint %d, recorded %d %d %d %d",
				tc.n, tc.seed, len(g.nbrs), g.maxDeg, g.period, g.diamHint, tc.edges, tc.maxDeg, tc.period, tc.diamHint)
		}
		if got := rggFingerprint(g); got != tc.want {
			t.Errorf("n=%d seed=%d: fingerprint %#x, recorded %#x", tc.n, tc.seed, got, tc.want)
		}
	}
}

// TestRGGConnectedEqualsFixedRadius: NewConnectedRGG finishes (diameter
// hint, coloring) only the radius it accepts, and what it returns is exactly
// NewRGG at that radius. The three cases each need at least one growth
// step ((4096, 5) needs two).
func TestRGGConnectedEqualsFixedRadius(t *testing.T) {
	for _, tc := range []struct {
		n     int
		seed  uint64
		large bool
	}{
		{300, 1, false},
		{4096, 5, true},
		{25_600, 3, true},
	} {
		if tc.large && testing.Short() {
			continue
		}
		g, err := NewConnectedRGG(tc.n, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		if start := 1.1 * math.Sqrt(math.Log(float64(tc.n))/(math.Pi*float64(tc.n))); g.radius <= start {
			t.Fatalf("n=%d seed=%d: connected at the starting radius, the case exercises no growth step", tc.n, tc.seed)
		}
		fixed, err := NewRGG(tc.n, g.Radius(), tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstRef(t, g.String(), g, refRGG{
			off: fixed.off, nbrs: fixed.nbrs, maxDeg: fixed.maxDeg,
			colors: fixed.colors, period: fixed.period, diamHint: fixed.diamHint,
		})
		if !slices.Equal(g.xs, fixed.xs) || !slices.Equal(g.ys, fixed.ys) {
			t.Fatalf("%v: layout differs from NewRGG at the accepted radius", g)
		}
		if !g.Connected() {
			t.Fatalf("%v: not connected", g)
		}
	}
}

// TestRGGEdgeCapRefusesBeforeAllocating: a radius that makes 2^16 nodes a
// complete graph asks for 2^32 directed edges, past the int32 CSR
// offsets. The degree pass must trip the cap before the rows exist; the
// old row-by-row check grew them to 8 GB first.
func TestRGGEdgeCapRefusesBeforeAllocating(t *testing.T) {
	if testing.Short() {
		t.Skip("counts 2^31 node pairs")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := NewRGG(1<<16, 1.5, 1)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "CSR offset limit") {
		t.Fatalf("NewRGG(1<<16, 1.5, 1) = %v, want the CSR-limit error", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Fatalf("refusal allocated %d MB, want under 64", grew>>20)
	}
}
