package grid_test

// The torus's t-local windows: topo.MaxWindowCount's per-node scan, the
// reference adversary.Validate is held to, checked on the canonical
// topology against a brute-force count over Dist.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bftbcast/internal/grid"
	"bftbcast/internal/stats"
	"bftbcast/internal/topo"
)

// bruteMaxWindow counts every closed window by scanning all nodes for
// those within L∞ distance r, so it shares no code with the neighbor rows.
func bruteMaxWindow(tor *grid.Torus, marked []bool) int {
	maxC := 0
	for i := 0; i < tor.Size(); i++ {
		n := 0
		for j := 0; j < tor.Size(); j++ {
			if marked[j] && tor.Dist(grid.NodeID(i), grid.NodeID(j)) <= tor.Range() {
				n++
			}
		}
		maxC = max(maxC, n)
	}
	return maxC
}

func TestWindowCountsMatchBruteForce(t *testing.T) {
	rng := stats.NewRNG(42)
	for _, dims := range []struct{ w, h, r int }{
		{5, 5, 1}, {10, 8, 2}, {15, 15, 3}, {9, 21, 4},
	} {
		tor := grid.MustNew(dims.w, dims.h, dims.r)
		for trial := 0; trial < 5; trial++ {
			marked := make([]bool, tor.Size())
			for i := range marked {
				marked[i] = rng.Bernoulli(0.2)
			}
			got, err := topo.MaxWindowCount(tor, marked)
			if err != nil {
				t.Fatal(err)
			}
			if want := bruteMaxWindow(tor, marked); got != want {
				t.Fatalf("%v trial %d: MaxWindowCount = %d, brute = %d", tor, trial, got, want)
			}
		}
	}
}

// TestWindowCountsProperty: every node lies in (2r+1)² windows, so the
// windows average total·(2r+1)²/n marked nodes, and the largest holds at
// least that and at most min(total, (2r+1)²).
func TestWindowCountsProperty(t *testing.T) {
	tor := grid.MustNew(12, 12, 2)
	f := func(seed uint64, density uint8) bool {
		rng := stats.NewRNG(seed)
		p := float64(density%90+5) / 100
		marked := make([]bool, tor.Size())
		total := 0
		for i := range marked {
			if rng.Bernoulli(p) {
				marked[i] = true
				total++
			}
		}
		got, err := topo.MaxWindowCount(tor, marked)
		if err != nil {
			return false
		}
		return got*tor.Size() >= total*25 && got <= min(total, 25)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestWindowCountSizeValidation(t *testing.T) {
	tor := grid.MustNew(5, 5, 1)
	if _, err := topo.MaxWindowCount(tor, make([]bool, 7)); err == nil {
		t.Fatal("wrong-size marked should error")
	}
}

func TestEmptyPlacementIsZero(t *testing.T) {
	tor := grid.MustNew(7, 7, 1)
	got, err := topo.MaxWindowCount(tor, make([]bool, tor.Size()))
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("MaxWindowCount(empty) = %d", got)
	}
}

func TestFullPlacement(t *testing.T) {
	tor := grid.MustNew(7, 7, 1)
	marked := make([]bool, tor.Size())
	for i := range marked {
		marked[i] = true
	}
	got, err := topo.MaxWindowCount(tor, marked)
	if err != nil {
		t.Fatal(err)
	}
	if got != 9 {
		t.Fatalf("MaxWindowCount(full) = %d, want 9", got)
	}
}
