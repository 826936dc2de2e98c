package grid

// Cross describes the cross-shaped region of Figure 5: all nodes within
// L∞ distance HalfWidth of either axis through Center. Protocol Bheter
// assigns the boosted budget m' to exactly these nodes.
type Cross struct {
	Center    NodeID
	HalfWidth int
}

// InCross reports whether id belongs to the cross c on t.
func (t *Torus) InCross(c Cross, id NodeID) bool {
	cx, cy := t.XY(c.Center)
	x, y := t.XY(id)
	return axisDist(x, cx, t.w) <= c.HalfWidth || axisDist(y, cy, t.h) <= c.HalfWidth
}

// CrossSize returns the number of nodes in the cross c.
func (t *Torus) CrossSize(c Cross) int {
	arm := 2*c.HalfWidth + 1
	if arm >= t.w || arm >= t.h {
		return t.Size()
	}
	// Two full strips minus the doubly counted central square.
	return arm*t.w + arm*t.h - arm*arm
}
