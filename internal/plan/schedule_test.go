package plan

// The TDMA schedule a Plan compiles for a torus: its period, its slot
// classes and the collision freedom of one color.

import (
	"errors"
	"testing"

	"bftbcast/internal/grid"
)

func TestNewRequiresDivisibleSides(t *testing.T) {
	if err := Compute(grid.MustNew(10, 10, 2)).ColoringErr(); err != nil { // 2r+1 = 5 divides 10
		t.Fatalf("unexpected error: %v", err)
	}
	for _, wh := range [][2]int{{11, 10}, {10, 12}} {
		err := Compute(grid.MustNew(wh[0], wh[1], 2)).ColoringErr()
		if !errors.Is(err, grid.ErrNotDivisible) {
			t.Fatalf("%dx%d with r=2: coloring error %v, want grid.ErrNotDivisible", wh[0], wh[1], err)
		}
	}
}

func TestPeriod(t *testing.T) {
	for _, r := range []int{1, 2, 3, 4} {
		side := 2*r + 1
		p := Compute(grid.MustNew(3*side, 3*side, r))
		if err := p.ColoringErr(); err != nil {
			t.Fatal(err)
		}
		if got := p.Period(); got != side*side {
			t.Fatalf("r=%d Period = %d, want %d", r, got, side*side)
		}
	}
}

func TestEveryNodeOwnsOneSlotPerPeriod(t *testing.T) {
	tor := grid.MustNew(15, 15, 2)
	p := Compute(tor)
	if err := p.ColoringErr(); err != nil {
		t.Fatal(err)
	}
	colors := p.Colors()
	for i := 0; i < tor.Size(); i++ {
		owned := 0
		for slot := 0; slot < p.Period(); slot++ {
			if p.SlotColor(slot) == int(colors[i]) {
				owned++
			}
		}
		if owned != 1 {
			t.Fatalf("node %d owns %d slots per period", i, owned)
		}
	}
}

func TestSameColorNodesNeverShareReceivers(t *testing.T) {
	// The collision-freedom invariant: two distinct nodes with the same
	// color must have no common node within range r of both.
	tor := grid.MustNew(15, 15, 2)
	p := Compute(tor)
	if err := p.ColoringErr(); err != nil {
		t.Fatal(err)
	}
	for c, class := range p.ColorClasses() {
		for i := range class {
			for _, other := range class[i+1:] {
				if tor.Dist(class[i], other) <= 2*tor.Range() {
					t.Fatalf("color %d nodes %v and %v are within 2r", c, class[i], other)
				}
			}
		}
	}
}

func TestSlotColorHandlesNegative(t *testing.T) {
	p := Compute(grid.MustNew(9, 9, 1))
	if err := p.ColoringErr(); err != nil {
		t.Fatal(err)
	}
	if got := p.SlotColor(-1); got != p.Period()-1 {
		t.Fatalf("SlotColor(-1) = %d, want %d", got, p.Period()-1)
	}
}
