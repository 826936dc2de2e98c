package geometry

import (
	"fmt"
	"math"
)

// ExpandingLine is a segment with slope h ∈ (−1, 0) used by Lemma 9 as
// the local boundary of the grown circular region: E is its left
// endpoint, Length its Euclidean length.
type ExpandingLine struct {
	E      Point
	H      float64 // slope, in (−1, 0)
	R      int
	Length float64
}

// NewExpandingLine validates and builds an expanding line.
func NewExpandingLine(e Point, h float64, r int, length float64) (ExpandingLine, error) {
	if r < 1 {
		return ExpandingLine{}, ErrBadRadius
	}
	if h <= -1 || h >= 0 {
		return ExpandingLine{}, fmt.Errorf("geometry: slope h=%v outside (-1,0)", h)
	}
	if length <= 0 {
		return ExpandingLine{}, fmt.Errorf("%w (length %v)", ErrTooShort, length)
	}
	return ExpandingLine{E: e, H: h, R: r, Length: length}, nil
}

// endPoint returns E', the right endpoint.
func (el ExpandingLine) endPoint() Point {
	dx := el.Length / math.Hypot(1, el.H)
	return Point{el.E.X + dx, el.E.Y + el.H*dx}
}

// Rho returns the integer ρ with ρ/r <= h < (ρ+1)/r.
func (el ExpandingLine) Rho() int {
	return int(math.Floor(el.H * float64(el.R)))
}

// Clearance implements the Lemma 9 construction: draw the float committed
// line EE1 of length 37r with slope ρ/r from E, and E'E'1 of length 37r
// with slope (ρ+1)/r ending at E' (extending down-left), both beneath
// EE'. It returns the larger of the two frontiers' perpendicular
// clearances above EE' (Lemma 9 guarantees the maximum exceeds 1.25) and
// the frontier achieving it.
func (el ExpandingLine) Clearance() (d float64, frontier Point, err error) {
	r := el.R
	rho := el.Rho()
	if rho <= -r || rho >= 0 {
		// h in (−1, 0) keeps rho in [−r, −1]; rho = −r only when
		// h = −1 exactly, excluded by construction.
		if rho < -r || rho >= 0 {
			return 0, Point{}, fmt.Errorf("geometry: internal rho=%d for h=%v", rho, el.H)
		}
	}
	length := 37 * float64(r)

	// EE1: slope rho/r from E, extending right-down.
	lower, err := buildFloat(el.E, rho, r, length)
	if err != nil {
		return 0, Point{}, err
	}
	v1, _, _, err := lower.FloatFrontier()
	if err != nil {
		return 0, Point{}, err
	}

	// E'E'1: slope (rho+1)/r ending at E'. Its left endpoint lies
	// down-left of E'.
	rho2 := rho + 1
	seg2 := math.Hypot(float64(r), float64(rho2))
	dx2 := length / seg2 * float64(r)
	dy2 := length / seg2 * float64(rho2)
	ep := el.endPoint()
	start2 := Point{ep.X - dx2, ep.Y - dy2}
	upper, err := buildFloat(start2, rho2, r, length)
	if err != nil {
		return 0, Point{}, err
	}
	v2, _, _, err := upper.FloatFrontier()
	if err != nil {
		return 0, Point{}, err
	}

	d1 := PerpDistance(v1, el.E, el.H)
	d2 := PerpDistance(v2, el.E, el.H)
	if d1 >= d2 {
		return d1, v1, nil
	}
	return d2, v2, nil
}

// buildFloat constructs a float committed line without the l>3 node-count
// restriction check of NewCommittedLine (float lines measure length
// directly).
func buildFloat(p0 Point, rho, r int, length float64) (CommittedLine, error) {
	if rho < -r || rho > 0 {
		return CommittedLine{}, fmt.Errorf("%w (rho=%d)", ErrBadSlope, rho)
	}
	cl := CommittedLine{P0: p0, Rho: rho, R: r, Length: length}
	if length <= 6*cl.SegmentLength() {
		return CommittedLine{}, fmt.Errorf("%w (length %.2f)", ErrTooShort, length)
	}
	return cl, nil
}

// BeltExpansion reproduces the Lemma 10 arithmetic for the circle of
// radius R = 550r² and a chord of the given length (in units of r): the
// sagitta |HH1| = R − √(R² − L²/4) and the belt width δ = 1.25 − |HH1|
// swept by the Lemma 9 frontier.
//
// Reproduction note: the paper states |HH1| < 0.72 (hence δ > 0.53) for
// the 74r chord it constructs, but R − √(R² − (37r)²) ≈ 1369/1100 ≈
// 1.2445 for every r — the 0.72 figure actually corresponds to a 56r
// chord ((28r)²/(2·550r²) ≈ 0.713). The 74r chord still satisfies
// |HH1| < 1.25, so the belt width remains positive and the lemma's
// conclusion (the Vtrue region keeps expanding) survives, only with a
// thinner belt. Experiment E6 reports both variants.
func BeltExpansion(r int, chordUnits float64) (sagitta, delta float64) {
	radius := 550 * float64(r) * float64(r)
	chord := chordUnits * float64(r)
	sagitta = radius - math.Sqrt(radius*radius-chord*chord/4)
	return sagitta, 1.25 - sagitta
}
