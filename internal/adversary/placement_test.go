package adversary

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"bftbcast/internal/grid"
	"bftbcast/internal/stats"
	"bftbcast/internal/topo"
)

func TestNonePlacement(t *testing.T) {
	tor := grid.MustNew(10, 10, 2)
	bad, err := None{}.Place(tor, 0)
	if err != nil {
		t.Fatal(err)
	}
	if Count(bad) != 0 {
		t.Fatalf("Count = %d", Count(bad))
	}
	if _, err := Validate(tor, bad, 0, 0); err != nil {
		t.Fatal(err)
	}
}

func TestStripeExactlyTPerWindow(t *testing.T) {
	for _, tc := range []struct{ r, tt int }{
		{2, 1}, {2, 3}, {2, 5}, {2, 7}, {3, 4}, {3, 10},
	} {
		side := 2*tc.r + 1
		tor := grid.MustNew(4*side, 4*side, tc.r)
		src := tor.ID(0, 0)
		s := Stripe{Y0: 2 * tc.r, T: tc.tt}
		bad, err := s.Place(tor, src)
		if err != nil {
			t.Fatalf("r=%d t=%d: %v", tc.r, tc.tt, err)
		}
		maxC, err := Validate(tor, bad, src, tc.tt)
		if err != nil {
			t.Fatalf("r=%d t=%d: %v", tc.r, tc.tt, err)
		}
		if maxC != tc.tt {
			t.Fatalf("r=%d t=%d: max window count %d, want exactly %d", tc.r, tc.tt, maxC, tc.tt)
		}
		// All bad nodes inside the stripe rows.
		for i, b := range bad {
			if !b {
				continue
			}
			_, y := tor.XY(grid.NodeID(i))
			if y < 2*tc.r || y >= 3*tc.r {
				t.Fatalf("bad node at row %d outside stripe [%d,%d)", y, 2*tc.r, 3*tc.r)
			}
		}
	}
}

func TestStripeFacing(t *testing.T) {
	tor := grid.MustNew(10, 10, 2)
	up, err := Stripe{Y0: 4, T: 2}.Place(tor, 0)
	if err != nil {
		t.Fatal(err)
	}
	down, err := Stripe{Y0: 4, T: 2, Down: true}.Place(tor, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Facing up: bads at the top stripe row (y=5); facing down: y=4.
	for i := range up {
		if up[i] {
			if _, y := tor.XY(grid.NodeID(i)); y != 5 {
				t.Fatalf("up-facing bad at row %d, want 5", y)
			}
		}
		if down[i] {
			if _, y := tor.XY(grid.NodeID(i)); y != 4 {
				t.Fatalf("down-facing bad at row %d, want 4", y)
			}
		}
	}
}

func TestStripeRejectsBadDims(t *testing.T) {
	tor := grid.MustNew(12, 10, 2) // width not divisible by 5
	if _, err := (Stripe{Y0: 4, T: 1}).Place(tor, 0); !errors.Is(err, ErrNotDivisible) {
		t.Fatalf("err = %v, want ErrNotDivisible", err)
	}
	tor2 := grid.MustNew(10, 10, 2)
	if _, err := (Stripe{Y0: 4, T: 11}).Place(tor2, 0); err == nil {
		t.Fatal("t too large for stripe accepted")
	}
}

func TestStripeRefusesToMarkSource(t *testing.T) {
	tor := grid.MustNew(10, 10, 2)
	src := tor.ID(0, 5) // inside the stripe's bad rows
	if _, err := (Stripe{Y0: 4, T: 3}).Place(tor, src); !errors.Is(err, ErrHitsSource) {
		t.Fatalf("err = %v, want ErrHitsSource", err)
	}
}

func TestLatticeExactlyOnePerWindow(t *testing.T) {
	tor := grid.MustNew(45, 45, 4)
	src := tor.ID(0, 0)
	bad, err := Figure2Lattice(4).Place(tor, src)
	if err != nil {
		t.Fatal(err)
	}
	if got := Count(bad); got != 25 {
		t.Fatalf("Count = %d, want 25", got)
	}
	for i := 0; i < tor.Size(); i++ {
		c, err := tor.WindowCount(bad, grid.NodeID(i))
		if err != nil {
			t.Fatal(err)
		}
		if c != 1 {
			t.Fatalf("window of node %d has %d bad nodes, want exactly 1", i, c)
		}
	}
}

func TestLatticeMultipleOffsets(t *testing.T) {
	tor := grid.MustNew(15, 15, 2)
	l := Lattice{Offsets: [][2]int{{1, 1}, {3, 3}}}
	bad, err := l.Place(tor, 0)
	if err != nil {
		t.Fatal(err)
	}
	maxC, err := Validate(tor, bad, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if maxC != 2 {
		t.Fatalf("max window count %d, want 2", maxC)
	}
}

func TestLatticeRejectsDuplicateOffsets(t *testing.T) {
	tor := grid.MustNew(15, 15, 2)
	l := Lattice{Offsets: [][2]int{{1, 1}, {6, 6}}} // same modulo 5
	if _, err := l.Place(tor, 0); err == nil {
		t.Fatal("duplicate offsets accepted")
	}
}

func TestLatticeRejectsSourceHit(t *testing.T) {
	tor := grid.MustNew(15, 15, 2)
	l := Lattice{Offsets: [][2]int{{0, 0}}}
	if _, err := l.Place(tor, tor.ID(5, 5)); !errors.Is(err, ErrHitsSource) {
		t.Fatal("lattice through source accepted")
	}
}

func TestLatticeEmpty(t *testing.T) {
	tor := grid.MustNew(15, 15, 2)
	if _, err := (Lattice{}).Place(tor, 0); err == nil {
		t.Fatal("empty lattice accepted")
	}
}

func TestSandwichIsolatesBand(t *testing.T) {
	tor := grid.MustNew(20, 20, 2)
	s := Sandwich{YLow: 6, YHigh: 13, T: 3}
	bad, err := s.Place(tor, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Validate(tor, bad, 0, 3); err != nil {
		t.Fatal(err)
	}
	victims := s.VictimBand(tor)
	// Band rows are 8..12; no bad nodes inside the band.
	for i := range victims {
		_, y := tor.XY(grid.NodeID(i))
		if victims[i] != (y >= 8 && y <= 12) {
			t.Fatalf("victim mask wrong at row %d", y)
		}
		if victims[i] && bad[i] {
			t.Fatalf("bad node inside victim band at %d", i)
		}
	}
}

func TestSandwichRejectsCloseStripes(t *testing.T) {
	tor := grid.MustNew(20, 20, 2)
	if _, err := (Sandwich{YLow: 6, YHigh: 11, T: 3}).Place(tor, 0); err == nil {
		t.Fatal("stripes closer than 3r accepted")
	}
}

func TestUnionName(t *testing.T) {
	u := Union{Parts: []Placement{None{}, None{}}}
	if got := u.Name(); !strings.Contains(got, "none+none") {
		t.Fatalf("Name = %q", got)
	}
	tor := grid.MustNew(10, 10, 2)
	if _, err := (Union{}).Place(tor, 0); err == nil {
		t.Fatal("empty union accepted")
	}
}

func TestRandomPlacementRespectsBound(t *testing.T) {
	tor := grid.MustNew(30, 30, 2)
	for _, tt := range []int{1, 2, 5} {
		rp := Random{T: tt, Density: 0.3, Seed: 7}
		bad, err := rp.Place(tor, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Validate(tor, bad, 0, tt); err != nil {
			t.Fatalf("t=%d: %v", tt, err)
		}
		if Count(bad) == 0 {
			t.Fatalf("t=%d: no bad nodes placed", tt)
		}
	}
}

func TestRandomPlacementDeterministic(t *testing.T) {
	tor := grid.MustNew(20, 20, 2)
	a, err := Random{T: 2, Density: 0.2, Seed: 42}.Place(tor, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Random{T: 2, Density: 0.2, Seed: 42}.Place(tor, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different placements")
		}
	}
}

func TestRandomPlacementValidation(t *testing.T) {
	tor := grid.MustNew(20, 20, 2)
	if _, err := (Random{T: 1, Density: 0}).Place(tor, 0); err == nil {
		t.Fatal("zero density accepted")
	}
	if _, err := (Random{T: -1, Density: 0.1}).Place(tor, 0); err == nil {
		t.Fatal("negative t accepted")
	}
	bad, err := Random{T: 0, Density: 0.5, Seed: 1}.Place(tor, 0)
	if err != nil {
		t.Fatal(err)
	}
	if Count(bad) != 0 {
		t.Fatal("t=0 should place nothing")
	}
}

func TestRandomNeverMarksSource(t *testing.T) {
	tor := grid.MustNew(15, 15, 1)
	src := tor.ID(7, 7)
	for seed := uint64(0); seed < 20; seed++ {
		bad, err := Random{T: 3, Density: 1, Seed: seed}.Place(tor, src)
		if err != nil {
			t.Fatal(err)
		}
		if bad[src] {
			t.Fatalf("seed %d marked the source", seed)
		}
	}
}

func TestValidateDetectsViolations(t *testing.T) {
	tor := grid.MustNew(10, 10, 2)
	bad := make([]bool, tor.Size())
	bad[tor.ID(4, 4)] = true
	bad[tor.ID(5, 5)] = true
	if _, err := Validate(tor, bad, 0, 1); err == nil {
		t.Fatal("2 bads in one window passed t=1 validation")
	}
	if _, err := Validate(tor, bad, 0, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := Validate(tor, bad, tor.ID(4, 4), 2); !errors.Is(err, ErrHitsSource) {
		t.Fatal("bad source not detected")
	}
}

// TestValidateMatchesMaxWindowCount pins Validate's bad-side count to
// topo.MaxWindowCount's per-node scan on random markings of a torus, a
// bounded grid and an RGG: the same maximum, and a refusal with the same
// text exactly when the maximum exceeds t.
func TestValidateMatchesMaxWindowCount(t *testing.T) {
	rgg, err := topo.NewConnectedRGG(400, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(17)
	for _, tp := range []topo.Topology{grid.MustNew(15, 15, 2), topo.MustNewBounded(13, 9, 2), rgg} {
		for trial := 0; trial < 50; trial++ {
			density := rng.Float64() * 0.3
			bad := make([]bool, tp.Size())
			for i := range bad {
				bad[i] = rng.Bernoulli(density)
			}
			source := grid.NodeID(rng.Intn(tp.Size()))
			bad[source] = false
			want, err := topo.MaxWindowCount(tp, bad)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Validate(tp, bad, source, want)
			if err != nil || got != want {
				t.Fatalf("%v trial %d: Validate = %d, %v; MaxWindowCount = %d", tp, trial, got, err, want)
			}
			if want == 0 {
				continue
			}
			got, err = Validate(tp, bad, source, want-1)
			wantErr := fmt.Sprintf("adversary: placement has %d bad nodes in some neighborhood, bound is %d", want, want-1)
			if got != want || err == nil || err.Error() != wantErr {
				t.Fatalf("%v trial %d: Validate at t=%d = %d, %v; want %d, %q", tp, trial, want-1, got, err, want, wantErr)
			}
		}
	}
}
