package grid

import "fmt"

// This file implements sliding-window counting of marked nodes over every
// closed neighborhood of the torus. It is used to validate that adversary
// placements respect the locally-bounded model (at most t bad nodes in any
// single neighborhood) and by the experiment harness to report the
// effective t of random placements.

// WindowCount returns the number of marked nodes inside the closed
// neighborhood (the (2r+1)² window, centre included) of id.
// len(marked) must equal t.Size().
func (t *Torus) WindowCount(marked []bool, id NodeID) (int, error) {
	if len(marked) != t.Size() {
		return 0, fmt.Errorf("grid: marked has %d entries, want %d", len(marked), t.Size())
	}
	n := 0
	if marked[id] {
		n++
	}
	t.ForEachNeighbor(id, func(nb NodeID) {
		if marked[nb] {
			n++
		}
	})
	return n, nil
}

// MaxWindowCount returns the maximum, over all nodes, of the number of
// marked nodes in the node's closed neighborhood. A placement is
// t-locally-bounded exactly when MaxWindowCount(marked) <= t.
//
// The implementation uses separable prefix sums (first horizontal strips,
// then vertical), so it runs in O(W·H) independent of r.
func (t *Torus) MaxWindowCount(marked []bool) (int, error) {
	counts, err := t.windowCounts(marked)
	if err != nil {
		return 0, err
	}
	maxC := 0
	for _, c := range counts {
		if int(c) > maxC {
			maxC = int(c)
		}
	}
	return maxC, nil
}

// windowCounts returns, for every node, the number of marked nodes in its
// closed neighborhood window. The result is indexed by NodeID.
func (t *Torus) windowCounts(marked []bool) ([]int32, error) {
	if len(marked) != t.Size() {
		return nil, fmt.Errorf("grid: marked has %d entries, want %d", len(marked), t.Size())
	}
	w, h, r := t.w, t.h, t.r

	// Horizontal pass: hsum[y*w+x] = number of marked cells in
	// row y, columns [x-r .. x+r] (wrapped).
	hsum := make([]int32, w*h)
	for y := 0; y < h; y++ {
		base := y * w
		var cur int32
		for dx := -r; dx <= r; dx++ {
			if marked[base+t.WrapX(dx)] {
				cur++
			}
		}
		for x := 0; x < w; x++ {
			hsum[base+x] = cur
			// Slide: drop column x-r, add column x+r+1.
			if marked[base+t.WrapX(x-r)] {
				cur--
			}
			if marked[base+t.WrapX(x+r+1)] {
				cur++
			}
		}
	}

	// Vertical pass over hsum.
	out := make([]int32, w*h)
	for x := 0; x < w; x++ {
		var cur int32
		for dy := -r; dy <= r; dy++ {
			cur += hsum[t.WrapY(dy)*w+x]
		}
		for y := 0; y < h; y++ {
			out[y*w+x] = cur
			cur -= hsum[t.WrapY(y-r)*w+x]
			cur += hsum[t.WrapY(y+r+1)*w+x]
		}
	}
	return out, nil
}
