package grid

import "testing"

func TestCrossMembershipAndSize(t *testing.T) {
	tor := MustNew(20, 20, 2)
	c := Cross{Center: tor.ID(0, 0), HalfWidth: 2}
	// Known members.
	for _, p := range [][2]int{{0, 0}, {5, 2}, {5, 18}, {2, 9}, {18, 1}} {
		if !tor.InCross(c, tor.ID(p[0], p[1])) {
			t.Errorf("(%d,%d) should be in cross", p[0], p[1])
		}
	}
	// Known non-members.
	for _, p := range [][2]int{{5, 5}, {10, 10}, {3, 16}} {
		if tor.InCross(c, tor.ID(p[0], p[1])) {
			t.Errorf("(%d,%d) should NOT be in cross", p[0], p[1])
		}
	}
	// CrossSize matches brute force count.
	count := 0
	for i := 0; i < tor.Size(); i++ {
		if tor.InCross(c, NodeID(i)) {
			count++
		}
	}
	if got := tor.CrossSize(c); got != count {
		t.Fatalf("CrossSize = %d, brute force = %d", got, count)
	}
}

func TestCrossCoversWholeTorusWhenWide(t *testing.T) {
	tor := MustNew(10, 10, 2)
	c := Cross{Center: tor.ID(5, 5), HalfWidth: 5}
	if got := tor.CrossSize(c); got != tor.Size() {
		t.Fatalf("CrossSize = %d, want %d", got, tor.Size())
	}
}
