package grid

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name    string
		w, h, r int
		wantErr bool
	}{
		{"minimal r=1", 3, 3, 1, false},
		{"square r=2", 5, 5, 2, false},
		{"rectangular", 10, 7, 2, false},
		{"zero range", 5, 5, 0, true},
		{"negative range", 5, 5, -1, true},
		{"width too small", 4, 10, 2, true},
		{"height too small", 10, 4, 2, true},
		{"large grid r=4", 45, 45, 4, false},
		{"huge r", 300, 300, 128, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.w, tc.h, tc.r)
			if gotErr := err != nil; gotErr != tc.wantErr {
				t.Fatalf("New(%d,%d,%d) error = %v, wantErr %v", tc.w, tc.h, tc.r, err, tc.wantErr)
			}
		})
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew(1,1,1) should panic")
		}
	}()
	MustNew(1, 1, 1)
}

func TestIDXYRoundTrip(t *testing.T) {
	tor := MustNew(11, 7, 2)
	for y := 0; y < 7; y++ {
		for x := 0; x < 11; x++ {
			id := tor.ID(x, y)
			gx, gy := tor.XY(id)
			if gx != x || gy != y {
				t.Fatalf("XY(ID(%d,%d)) = (%d,%d)", x, y, gx, gy)
			}
		}
	}
}

func TestIDWraps(t *testing.T) {
	tor := MustNew(10, 8, 2)
	tests := []struct {
		x, y   int
		ex, ey int
	}{
		{-1, 0, 9, 0},
		{10, 0, 0, 0},
		{0, -1, 0, 7},
		{0, 8, 0, 0},
		{-11, -9, 9, 7},
		{25, 17, 5, 1},
	}
	for _, tc := range tests {
		id := tor.ID(tc.x, tc.y)
		gx, gy := tor.XY(id)
		if gx != tc.ex || gy != tc.ey {
			t.Errorf("ID(%d,%d) -> (%d,%d), want (%d,%d)", tc.x, tc.y, gx, gy, tc.ex, tc.ey)
		}
	}
}

func TestDistSymmetricAndBounded(t *testing.T) {
	tor := MustNew(12, 9, 2)
	f := func(a, b uint16) bool {
		ai := NodeID(int(a) % tor.Size())
		bi := NodeID(int(b) % tor.Size())
		d1 := tor.Dist(ai, bi)
		d2 := tor.Dist(bi, ai)
		return d1 == d2 && d1 >= 0 && d1 <= 6 && (d1 == 0) == (ai == bi)
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestDistTriangleInequality(t *testing.T) {
	tor := MustNew(9, 9, 2)
	f := func(a, b, c uint16) bool {
		ai := NodeID(int(a) % tor.Size())
		bi := NodeID(int(b) % tor.Size())
		ci := NodeID(int(c) % tor.Size())
		return tor.Dist(ai, ci) <= tor.Dist(ai, bi)+tor.Dist(bi, ci)
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestDistKnownValues(t *testing.T) {
	tor := MustNew(10, 10, 3)
	tests := []struct {
		ax, ay, bx, by int
		want           int
	}{
		{0, 0, 0, 0, 0},
		{0, 0, 1, 0, 1},
		{0, 0, 3, 3, 3},
		{0, 0, 9, 0, 1}, // wraps
		{0, 0, 5, 5, 5}, // mid-torus
		{1, 1, 9, 9, 2}, // wraps both axes
		{2, 2, 7, 2, 5}, // exactly half width
		{0, 0, 4, 1, 4}, // L-infinity takes the max axis
	}
	for _, tc := range tests {
		got := tor.Dist(tor.ID(tc.ax, tc.ay), tor.ID(tc.bx, tc.by))
		if got != tc.want {
			t.Errorf("Dist((%d,%d),(%d,%d)) = %d, want %d", tc.ax, tc.ay, tc.bx, tc.by, got, tc.want)
		}
	}
}

func TestNeighborhoodSizeExact(t *testing.T) {
	for _, r := range []int{1, 2, 3, 4, 5} {
		side := 2*r + 1
		tor := MustNew(side*3, side*3, r)
		want := side*side - 1
		if got := tor.MaxDegree(); got != want {
			t.Fatalf("r=%d MaxDegree = %d, want %d", r, got, want)
		}
		nbrs := tor.AppendNeighbors(nil, tor.ID(0, 0))
		if len(nbrs) != want {
			t.Fatalf("r=%d len(AppendNeighbors) = %d, want %d", r, len(nbrs), want)
		}
		// All distinct, all within range, none equal to self.
		seen := make(map[NodeID]bool, len(nbrs))
		self := tor.ID(0, 0)
		for _, nb := range nbrs {
			if nb == self {
				t.Fatalf("r=%d neighborhood contains self", r)
			}
			if seen[nb] {
				t.Fatalf("r=%d duplicate neighbor %d", r, nb)
			}
			seen[nb] = true
			if tor.Dist(self, nb) > r {
				t.Fatalf("r=%d neighbor %d at distance %d", r, nb, tor.Dist(self, nb))
			}
		}
	}
}

func TestNeighborSymmetry(t *testing.T) {
	tor := MustNew(9, 9, 2)
	// b in N(a) iff a in N(b): follows from metric symmetry, check anyway
	// over the full torus.
	for a := NodeID(0); int(a) < tor.Size(); a++ {
		for _, b := range tor.AppendNeighbors(nil, a) {
			if tor.Dist(b, a) > tor.Range() {
				t.Fatalf("asymmetric neighborhood: %d->%d", a, b)
			}
		}
	}
}

func TestAppendNeighborsReusesCapacity(t *testing.T) {
	tor := MustNew(9, 9, 1)
	buf := make([]NodeID, 0, 8)
	got := tor.AppendNeighbors(buf, tor.ID(4, 4))
	if len(got) != 8 {
		t.Fatalf("len = %d, want 8", len(got))
	}
	if cap(got) != 8 {
		t.Fatalf("AppendNeighbors reallocated: cap = %d", cap(got))
	}
}

func TestStringer(t *testing.T) {
	tor := MustNew(9, 7, 2)
	if got, want := tor.String(), "torus 9x7 r=2"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
