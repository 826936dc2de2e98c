package geometry

import (
	"math"
	"testing"
)

func TestNewCommittedLineValidation(t *testing.T) {
	if _, err := NewCommittedLine(Point{}, 0, 0, 5); err == nil {
		t.Fatal("r=0 accepted")
	}
	if _, err := NewCommittedLine(Point{}, 1, 2, 5); err == nil {
		t.Fatal("positive rho accepted")
	}
	if _, err := NewCommittedLine(Point{}, -3, 2, 5); err == nil {
		t.Fatal("rho < -r accepted")
	}
	if _, err := NewCommittedLine(Point{}, -1, 2, 3); err == nil {
		t.Fatal("l <= 3 accepted")
	}
	if _, err := NewCommittedLine(Point{}, -1, 2, 4); err != nil {
		t.Fatal(err)
	}
}

func TestLatticePointsLieOnLine(t *testing.T) {
	cl, err := NewCommittedLine(Point{3, 7}, -2, 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= 6; i++ {
		p := cl.latticePoint(i)
		want := Point{3 + float64(3*i), 7 + float64(-2*i)}
		if p != want {
			t.Fatalf("P%d = %v, want %v", i, p, want)
		}
		// On the line: (y - y0) = slope (x - x0).
		if got := aboveLine(p, cl.P0, cl.slope()); math.Abs(got) > 1e-9 {
			t.Fatalf("P%d off the line by %v", i, got)
		}
	}
	if got, want := cl.end(), cl.latticePoint(6); got.Dist(want) > 1e-9 {
		t.Fatalf("end = %v, want %v", got, want)
	}
	if got := cl.Segments(); got != 6 {
		t.Fatalf("Segments = %d, want 6", got)
	}
}

func TestFrontierAboveAndBounds(t *testing.T) {
	// Lemma 6: the frontier lies above the line and both distances meet
	// (⌊|L|/(2√2 r)⌋ − 1)·r, across all slopes and several lengths.
	for _, r := range []int{2, 3, 4, 5} {
		for rho := -r; rho <= 0; rho++ {
			for _, l := range []int{8, 16, 37, 64} {
				cl, err := NewCommittedLine(Point{0, 0}, rho, r, l)
				if err != nil {
					t.Fatal(err)
				}
				v, dl, dr, err := cl.Frontier()
				if err != nil {
					t.Fatal(err)
				}
				if above := aboveLine(v, cl.P0, cl.slope()); above <= 0 {
					t.Fatalf("r=%d rho=%d l=%d: frontier below line (%v)", r, rho, l, above)
				}
				bound := FrontierDistanceBound(cl.Length, r, 1)
				if dl < bound || dr < bound {
					t.Fatalf("r=%d rho=%d l=%d: distances %.2f/%.2f below bound %.2f",
						r, rho, l, dl, dr, bound)
				}
			}
		}
	}
}

func TestShiftedFrontierBounds(t *testing.T) {
	// Lemma 7 with the c=2 bound.
	for _, r := range []int{2, 3, 4} {
		for rho := -r; rho <= 0; rho++ {
			cl := CommittedLine{P0: Point{1.5, -0.25}, Rho: rho, R: r,
				Length: 37 * float64(r)}
			v, dl, dr, err := cl.ShiftedFrontier()
			if err != nil {
				t.Fatal(err)
			}
			if aboveLine(v, cl.P0, cl.slope()) <= 0 {
				t.Fatalf("r=%d rho=%d: shifted frontier not above", r, rho)
			}
			bound := FrontierDistanceBound(cl.Length, r, 2)
			if dl < bound || dr < bound {
				t.Fatalf("r=%d rho=%d: %.2f/%.2f below bound %.2f", r, rho, dl, dr, bound)
			}
		}
	}
}

func TestFloatFrontierBoundMatchesLemma9Usage(t *testing.T) {
	// The Lemma 9 proof uses |w0v2| >= (⌊37r/(2√2 r)⌋−3)r = 10r for a
	// 37r float line.
	for _, r := range []int{2, 3, 4, 5, 8} {
		for rho := -r; rho <= 0; rho++ {
			cl := CommittedLine{P0: Point{0, 0}, Rho: rho, R: r, Length: 37 * float64(r)}
			_, dl, dr, err := cl.FloatFrontier()
			if err != nil {
				t.Fatal(err)
			}
			want := 10 * float64(r)
			if dl < want || dr < want {
				t.Fatalf("r=%d rho=%d: float frontier distances %.2f/%.2f < 10r", r, rho, dl, dr)
			}
		}
	}
}

func TestFrontierTooShort(t *testing.T) {
	cl := CommittedLine{P0: Point{}, Rho: -1, R: 2, Length: 2}
	if _, _, _, err := cl.Frontier(); err == nil {
		t.Fatal("short line frontier accepted")
	}
	if _, _, _, err := cl.ShiftedFrontier(); err == nil {
		t.Fatal("short shifted frontier accepted")
	}
	if _, _, _, err := cl.FloatFrontier(); err == nil {
		t.Fatal("short float frontier accepted")
	}
}

func TestExpandingLineValidation(t *testing.T) {
	if _, err := NewExpandingLine(Point{}, -0.5, 0, 10); err == nil {
		t.Fatal("r=0 accepted")
	}
	if _, err := NewExpandingLine(Point{}, 0, 2, 10); err == nil {
		t.Fatal("h=0 accepted")
	}
	if _, err := NewExpandingLine(Point{}, -1, 2, 10); err == nil {
		t.Fatal("h=-1 accepted")
	}
	if _, err := NewExpandingLine(Point{}, -0.5, 2, 0); err == nil {
		t.Fatal("zero length accepted")
	}
}

func TestExpandingLineRho(t *testing.T) {
	el, err := NewExpandingLine(Point{}, -0.3, 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	// h = -0.3, r = 4: rho = floor(-1.2) = -2, and -2/4 <= -0.3 < -1/4.
	if got := el.Rho(); got != -2 {
		t.Fatalf("Rho = %d, want -2", got)
	}
}

// TestLemma9Clearance sweeps slopes and radii: the larger frontier of the
// two 37r support lines must clear the expanding line by more than 1.25.
func TestLemma9Clearance(t *testing.T) {
	for _, r := range []int{2, 3, 4, 5, 6} {
		for rho := -r; rho < 0; rho++ {
			lo := float64(rho) / float64(r)
			hi := float64(rho+1) / float64(r)
			for i := 0; i < 12; i++ {
				h := lo + (hi-lo)*(float64(i)+0.5)/12
				if h <= -1 || h >= 0 {
					continue
				}
				el, err := NewExpandingLine(Point{0, 0}, h, r, 74*float64(r))
				if err != nil {
					t.Fatal(err)
				}
				d, v, err := el.Clearance()
				if err != nil {
					t.Fatal(err)
				}
				if d <= 1.25 {
					t.Fatalf("r=%d rho=%d h=%.4f: clearance %.4f <= 1.25 (frontier %v)",
						r, rho, h, d, v)
				}
			}
		}
	}
}

// TestLemma10Belt checks the circle-expansion arithmetic. As documented
// on BeltExpansion, the paper's stated 74r chord gives a sagitta of
// ~1.2445 — below the 1.25 clearance (so the belt width stays positive,
// preserving the lemma), but not below the 0.72 the paper prints, which
// matches a 56r chord instead.
func TestLemma10Belt(t *testing.T) {
	for _, r := range []int{1, 2, 3, 4, 8, 16} {
		sagitta, delta := BeltExpansion(r, 74)
		if sagitta >= 1.25 {
			t.Errorf("r=%d: 74r chord sagitta %.4f >= 1.25, belt collapses", r, sagitta)
		}
		if delta <= 0 {
			t.Errorf("r=%d: 74r chord belt width %.4f <= 0", r, delta)
		}
		sagitta56, delta56 := BeltExpansion(r, 56)
		if sagitta56 >= 0.72 {
			t.Errorf("r=%d: 56r chord sagitta %.4f >= 0.72", r, sagitta56)
		}
		if delta56 <= 0.53 {
			t.Errorf("r=%d: 56r chord belt width %.4f <= 0.53", r, delta56)
		}
	}
}

func TestPointHelpers(t *testing.T) {
	a := Point{1, 2}
	b := Point{4, 6}
	if got := a.Dist(b); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Dist = %v", got)
	}
	if got := b.Sub(a); got != (Point{3, 4}) {
		t.Fatalf("Sub = %v", got)
	}
	if got := a.Add(Point{3, 4}); got != b {
		t.Fatalf("Add = %v", got)
	}
}

func TestPerpDistanceSign(t *testing.T) {
	// Point above a horizontal line.
	if d := PerpDistance(Point{0, 2}, Point{0, 0}, 0); math.Abs(d-2) > 1e-12 {
		t.Fatalf("PerpDistance above = %v", d)
	}
	if d := PerpDistance(Point{0, -2}, Point{0, 0}, 0); math.Abs(d+2) > 1e-12 {
		t.Fatalf("PerpDistance below = %v", d)
	}
	// Slope −1: vertical offset 1 → perpendicular 1/√2.
	if d := PerpDistance(Point{0, 1}, Point{0, 0}, -1); math.Abs(d-1/math.Sqrt2) > 1e-12 {
		t.Fatalf("PerpDistance slanted = %v", d)
	}
}
