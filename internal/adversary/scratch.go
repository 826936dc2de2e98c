package adversary

import (
	"fmt"

	"bftbcast/internal/grid"
	"bftbcast/internal/plan"
	"bftbcast/internal/radio"
	"bftbcast/internal/topo"
)

// Scratch is working memory an engine keeps across runs and lends to
// each run's adversary: Place and Validate draw the Random placement's
// permutation and the window counts from it, and View.Scratch hands it
// to the built-in strategies for their per-slot state. Placements and
// strategies are then stateless values that allocate nothing per run,
// and one of them may drive concurrent runs, each with its engine's
// Scratch. The zero value is ready to use; a Scratch serves one run at a
// time, and nothing a run returns aliases it.
type Scratch struct {
	perm   []int
	counts []int32
	deny   denyScratch
}

// Place returns p's mask on t. A Random placement takes its permutation
// and window counts from s, drawing the same mask as Random.Place; any
// other placement runs as is. The mask is the caller's.
func (s *Scratch) Place(p Placement, t topo.Topology, source grid.NodeID) ([]bool, error) {
	if rp, ok := p.(Random); ok {
		return rp.place(t, source, s)
	}
	return p.Place(t, source)
}

// Validate is the package-level Validate with its window counts in s.
func (s *Scratch) Validate(tor topo.Topology, bad []bool, source grid.NodeID, t int) (int, error) {
	if int(source) < len(bad) && bad[source] {
		return 0, ErrHitsSource
	}
	if len(bad) != tor.Size() {
		return 0, fmt.Errorf("adversary: placement has %d entries, want %d", len(bad), tor.Size())
	}
	adj := plan.For(tor).Adjacency()
	var counts []int32
	maxC := int32(0)
	for i, b := range bad {
		if !b {
			continue
		}
		if counts == nil { // fault-free runs touch no counts
			counts = s.countsFor(len(bad))
		}
		counts[i]++
		maxC = max(maxC, counts[i])
		for _, nb := range adj.Neighbors(grid.NodeID(i)) {
			counts[nb]++
			maxC = max(maxC, counts[nb])
		}
	}
	if int(maxC) > t {
		return int(maxC), fmt.Errorf("adversary: placement has %d bad nodes in some neighborhood, bound is %d", maxC, t)
	}
	return int(maxC), nil
}

// countsFor returns the scratch's window counts, zeroed at length n.
func (s *Scratch) countsFor(n int) []int32 {
	if cap(s.counts) < n {
		s.counts = make([]int32, n)
	} else {
		s.counts = s.counts[:n]
		clear(s.counts)
	}
	return s.counts
}

// denyScratch is the strategies' per-slot working memory: corruptorCore's
// denial entries and the emitted jams of every built-in strategy. Both
// buffers are truncated before they are written, so nothing one slot,
// run or topology leaves behind is ever read by the next.
type denyScratch struct {
	entries []denyEntry
	jamBuf  []radio.Tx // emitted jams; the engine consumes them before the next slot
}
