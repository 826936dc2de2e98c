// Package geometry implements the continuous-domain machinery of
// Section 4 (protocol Bheter): committed lines, their shifted and float
// generalizations, frontier points, and expanding lines. The paper uses
// these to prove that a circular Vtrue-covered region keeps growing
// (Lemmas 5–11); this package reproduces the constructions numerically so
// the stated distance bounds can be validated over parameter sweeps
// (experiment E6).
//
// Conventions: a committed line L(ρ, P0, Pl) has slope ρ/r with integer
// ρ ∈ [−r, 0]; its left endpoint is P0 and its Euclidean length is
// l·√(r²+ρ²) for l segments of horizontal extent r. The frontier of a
// span [a, b] on a line of slope ρ/r is the intersection of the line of
// slope (ρ+1)/r through a with the line of slope (ρ−1)/r through b; it
// always lies above the span.
package geometry

import (
	"errors"
	"fmt"
	"math"
)

// Point is a point of the plane (the grid embeds at integer coordinates).
type Point struct {
	X, Y float64
}

// Sub returns p − q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Add returns p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Dist returns the Euclidean distance |p−q|.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// CommittedLine is the paper's L(ρ, P0, ·): a segment of slope ρ/r
// anchored at left endpoint P0 with Euclidean length Length. For the
// integer ("committed") variant P0 is a grid node and Length is a
// multiple of √(r²+ρ²); the shifted and float variants relax that, which
// changes nothing in the geometric constructions below.
type CommittedLine struct {
	P0     Point
	Rho    int
	R      int
	Length float64
}

// Common construction errors.
var (
	ErrBadSlope  = errors.New("geometry: rho must satisfy -r <= rho <= 0")
	ErrTooShort  = errors.New("geometry: line too short for the construction")
	ErrBadRadius = errors.New("geometry: r must be >= 1")
)

// NewCommittedLine validates and builds a committed line with l segments
// (length l·√(r²+ρ²)), l > 3 as the lemmas require.
func NewCommittedLine(p0 Point, rho, r, l int) (CommittedLine, error) {
	if r < 1 {
		return CommittedLine{}, ErrBadRadius
	}
	if rho < -r || rho > 0 {
		return CommittedLine{}, fmt.Errorf("%w (rho=%d, r=%d)", ErrBadSlope, rho, r)
	}
	if l <= 3 {
		return CommittedLine{}, fmt.Errorf("%w (l=%d)", ErrTooShort, l)
	}
	return CommittedLine{
		P0:     p0,
		Rho:    rho,
		R:      r,
		Length: float64(l) * math.Hypot(float64(r), float64(rho)),
	}, nil
}

// SegmentLength returns √(r²+ρ²), the length of one lattice step along
// the line.
func (cl CommittedLine) SegmentLength() float64 {
	return math.Hypot(float64(cl.R), float64(cl.Rho))
}

// slope returns ρ/r.
func (cl CommittedLine) slope() float64 { return float64(cl.Rho) / float64(cl.R) }

// dir returns the unit direction vector of the line (left to right).
func (cl CommittedLine) dir() Point {
	seg := cl.SegmentLength()
	return Point{float64(cl.R) / seg, float64(cl.Rho) / seg}
}

// At returns the point at arc distance s from P0 along the line.
func (cl CommittedLine) At(s float64) Point {
	d := cl.dir()
	return Point{cl.P0.X + d.X*s, cl.P0.Y + d.Y*s}
}

// end returns the right endpoint Pl.
func (cl CommittedLine) end() Point { return cl.At(cl.Length) }

// latticePoint returns P_i = (x0 + i·r, y0 + i·ρ), the i-th node on the
// line (meaningful for the integer variant).
func (cl CommittedLine) latticePoint(i int) Point {
	return Point{cl.P0.X + float64(i*cl.R), cl.P0.Y + float64(i*cl.Rho)}
}

// Segments returns l = Length/√(r²+ρ²), rounded to the nearest integer.
func (cl CommittedLine) Segments() int {
	return int(math.Round(cl.Length / cl.SegmentLength()))
}

// frontierOf intersects the line of slope (ρ+1)/r through a with the line
// of slope (ρ−1)/r through b, for a to the left of b on a line of slope
// ρ/r. The two slopes differ by 2/r, so the intersection is unique and
// lies above the span.
func frontierOf(a, b Point, rho, r int) Point {
	sa := float64(rho+1) / float64(r)
	sb := float64(rho-1) / float64(r)
	// y = a.Y + sa (x − a.X) = b.Y + sb (x − b.X)
	x := (b.Y - a.Y + sa*a.X - sb*b.X) / (sa - sb)
	y := a.Y + sa*(x-a.X)
	return Point{x, y}
}

// Frontier implements the Lemma 6 construction: the frontier v0 of the
// committed line, built over the span P1..P(l−1). Both |P1 v0| and
// |P(l−1) v0| are at least (⌊|L|/(2√2·r)⌋ − 1)·r.
func (cl CommittedLine) Frontier() (v Point, dLeft, dRight float64, err error) {
	l := cl.Segments()
	if l <= 3 {
		return Point{}, 0, 0, fmt.Errorf("%w (l=%d)", ErrTooShort, l)
	}
	a := cl.latticePoint(1)
	b := cl.latticePoint(l - 1)
	v = frontierOf(a, b, cl.Rho, cl.R)
	return v, a.Dist(v), b.Dist(v), nil
}

// ShiftedFrontier implements the Lemma 7 construction: anchors u0, u1 at
// arc distance 2√(r²+ρ²) from either end. Both frontier distances are at
// least (⌊|L|/(2√2·r)⌋ − 2)·r.
func (cl CommittedLine) ShiftedFrontier() (v Point, dLeft, dRight float64, err error) {
	margin := 2 * cl.SegmentLength()
	if cl.Length <= 2*margin {
		return Point{}, 0, 0, fmt.Errorf("%w (length %.2f)", ErrTooShort, cl.Length)
	}
	a := cl.At(margin)
	b := cl.At(cl.Length - margin)
	v = frontierOf(a, b, cl.Rho, cl.R)
	return v, a.Dist(v), b.Dist(v), nil
}

// FloatFrontier implements the Lemma 8 construction: anchors w0, w1 at
// arc distance 3√(r²+ρ²) from either end of a float committed line. Both
// frontier distances are at least (⌊|L|/(2√2·r)⌋ − 3)·r.
//
// The paper states the frontier slopes as (−ρ+1)/r and (−ρ−1)/r; the
// figures and the Lemma 9 proof use the same upward construction as
// Lemmas 6–7 (slopes (ρ+1)/r and (ρ−1)/r), which is what we implement —
// the sign in the lemma statement appears to be a typo, and the distance
// bounds below hold for this reading.
func (cl CommittedLine) FloatFrontier() (v Point, dLeft, dRight float64, err error) {
	margin := 3 * cl.SegmentLength()
	if cl.Length <= 2*margin {
		return Point{}, 0, 0, fmt.Errorf("%w (length %.2f)", ErrTooShort, cl.Length)
	}
	a := cl.At(margin)
	b := cl.At(cl.Length - margin)
	v = frontierOf(a, b, cl.Rho, cl.R)
	return v, a.Dist(v), b.Dist(v), nil
}

// FrontierDistanceBound returns the lemma bound (⌊len/(2√2·r)⌋ − c)·r,
// where c is 1, 2 or 3 for the committed, shifted and float variants.
func FrontierDistanceBound(length float64, r, c int) float64 {
	return (math.Floor(length/(2*math.Sqrt2*float64(r))) - float64(c)) * float64(r)
}

// aboveLine returns the signed vertical clearance of v above the infinite
// line through p with slope s (positive when v is strictly above).
func aboveLine(v, p Point, s float64) float64 {
	return v.Y - (p.Y + s*(v.X-p.X))
}

// PerpDistance returns the perpendicular distance from v to the infinite
// line through p with slope s, signed positive when v lies above.
func PerpDistance(v, p Point, s float64) float64 {
	return aboveLine(v, p, s) / math.Hypot(1, s)
}
