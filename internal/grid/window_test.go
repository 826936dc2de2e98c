package grid

import (
	"testing"
	"testing/quick"

	"bftbcast/internal/stats"
)

func bruteMaxWindow(t *Torus, marked []bool) int {
	maxC := 0
	for i := 0; i < t.Size(); i++ {
		n := 0
		id := NodeID(i)
		if marked[id] {
			n++
		}
		t.ForEachNeighbor(id, func(nb NodeID) {
			if marked[nb] {
				n++
			}
		})
		if n > maxC {
			maxC = n
		}
	}
	return maxC
}

func TestWindowCountsMatchBruteForce(t *testing.T) {
	rng := stats.NewRNG(42)
	for _, dims := range []struct{ w, h, r int }{
		{5, 5, 1}, {10, 8, 2}, {15, 15, 3}, {9, 21, 4},
	} {
		tor := MustNew(dims.w, dims.h, dims.r)
		for trial := 0; trial < 5; trial++ {
			marked := make([]bool, tor.Size())
			for i := range marked {
				marked[i] = rng.Bernoulli(0.2)
			}
			got, err := tor.MaxWindowCount(marked)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteMaxWindow(tor, marked)
			if got != want {
				t.Fatalf("%v trial %d: MaxWindowCount = %d, brute = %d", tor, trial, got, want)
			}
			counts, err := tor.windowCounts(marked)
			if err != nil {
				t.Fatal(err)
			}
			for i := range counts {
				n, err := tor.WindowCount(marked, NodeID(i))
				if err != nil {
					t.Fatal(err)
				}
				if int(counts[i]) != n {
					t.Fatalf("windowCounts[%d] = %d, WindowCount = %d", i, counts[i], n)
				}
			}
		}
	}
}

func TestWindowCountsProperty(t *testing.T) {
	tor := MustNew(12, 12, 2)
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
		counts, err := tor.windowCounts(marked)
		if err != nil {
			return false
		}
		// Sum over all windows counts each marked node exactly
		// (2r+1)^2 times (every node belongs to that many windows).
		var sum int
		for _, c := range counts {
			sum += int(c)
		}
		return sum == total*25
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestWindowCountSizeValidation(t *testing.T) {
	tor := MustNew(5, 5, 1)
	if _, err := tor.MaxWindowCount(make([]bool, 7)); err == nil {
		t.Fatal("wrong-size marked should error")
	}
	if _, err := tor.WindowCount(make([]bool, 7), 0); err == nil {
		t.Fatal("wrong-size marked should error")
	}
	if _, err := tor.windowCounts(make([]bool, 7)); err == nil {
		t.Fatal("wrong-size marked should error")
	}
}

func TestEmptyPlacementIsZero(t *testing.T) {
	tor := MustNew(7, 7, 1)
	got, err := tor.MaxWindowCount(make([]bool, tor.Size()))
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("MaxWindowCount(empty) = %d", got)
	}
}

func TestFullPlacement(t *testing.T) {
	tor := MustNew(7, 7, 1)
	marked := make([]bool, tor.Size())
	for i := range marked {
		marked[i] = true
	}
	got, err := tor.MaxWindowCount(marked)
	if err != nil {
		t.Fatal(err)
	}
	if got != 9 {
		t.Fatalf("MaxWindowCount(full) = %d, want 9", got)
	}
}
