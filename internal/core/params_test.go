package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestValidate(t *testing.T) {
	tests := []struct {
		name    string
		p       Params
		wantErr bool
	}{
		{"typical", Params{R: 2, T: 3, MF: 5}, false},
		{"paper figure 2", Params{R: 4, T: 1, MF: 1000}, false},
		{"t zero", Params{R: 2, T: 0, MF: 5}, false},
		{"mf zero", Params{R: 2, T: 1, MF: 0}, false},
		{"r zero", Params{R: 0, T: 0, MF: 1}, true},
		{"t at bound", Params{R: 2, T: 10, MF: 1}, true}, // t must be < r(2r+1)=10
		{"t just below bound", Params{R: 2, T: 9, MF: 1}, false},
		{"negative t", Params{R: 2, T: -1, MF: 1}, true},
		{"negative mf", Params{R: 2, T: 1, MF: -1}, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.p.Validate()
			if gotErr := err != nil; gotErr != tc.wantErr {
				t.Fatalf("Validate(%+v) error = %v, wantErr = %v", tc.p, err, tc.wantErr)
			}
		})
	}
}

func TestPaperFigure2Numbers(t *testing.T) {
	// Figure 2: r=4, t=1, mf=1000 gives m0 = ceil(2001/36-1=35) = 58.
	p := Params{R: 4, T: 1, MF: 1000}
	if got := p.HalfNeighborhood(); got != 36 {
		t.Errorf("r(2r+1) = %d, want 36", got)
	}
	if got := p.G(); got != 35 {
		t.Errorf("g = %d, want 35", got)
	}
	if got := p.SourceRepeats(); got != 2001 {
		t.Errorf("SourceRepeats = %d, want 2001", got)
	}
	if got := p.Threshold(); got != 1001 {
		t.Errorf("Threshold = %d, want 1001", got)
	}
	if got := p.M0(); got != 58 {
		t.Errorf("m0 = %d, want 58", got)
	}
	// m' = ceil(2001 / ceil(35/2)=18) = ceil(111.17) = 112.
	if got := p.RelaySends(); got != 112 {
		t.Errorf("m' = %d, want 112", got)
	}
	if got := p.HomogeneousBudget(); got != 116 {
		t.Errorf("2*m0 = %d, want 116", got)
	}
	if got := p.KooBudget(); got != 2001 {
		t.Errorf("KooBudget = %d, want 2001", got)
	}
}

func TestRelaySendsAtMostTwiceM0(t *testing.T) {
	// Section 3: m' <= 2*m0 always, which is what makes m >= 2m0 enough.
	f := func(r8, t16, mf16 uint16) bool {
		r := int(r8%6) + 1
		half := r * (2*r + 1)
		tt := int(t16) % half
		mf := int(mf16 % 5000)
		p := Params{R: r, T: tt, MF: mf}
		if p.Validate() != nil {
			return true
		}
		return p.RelaySends() <= 2*p.M0()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestM0MonotoneInT(t *testing.T) {
	// More bad nodes per neighborhood can only increase the required
	// budget.
	prev := 0
	for tt := 0; tt < 36; tt++ {
		p := Params{R: 4, T: tt, MF: 100}
		if m0 := p.M0(); m0 < prev {
			t.Fatalf("m0 not monotone at t=%d: %d < %d", tt, m0, prev)
		} else {
			prev = m0
		}
	}
}

func TestSavingsFactorMatchesPaper(t *testing.T) {
	// The paper states the Koo scheme requires ½[r(2r+1)−t] times the
	// budget of protocol B. The exact ratio is KooBudget / RelaySends =
	// (2tmf+1) / ceil((2tmf+1)/ceil(g/2)), which approaches ceil(g/2)
	// from below as mf grows.
	p := Params{R: 4, T: 1, MF: 1000}
	got := float64(p.KooBudget()) / float64(p.RelaySends())
	want := float64(p.G()) / 2 // 17.5
	if got < want*0.95 || got > want*1.1 {
		t.Fatalf("KooBudget/RelaySends = %v, want about %v", got, want)
	}
}

func TestCorollary1Bounds(t *testing.T) {
	// The sufficient bound never exceeds the necessary bound.
	f := func(m16, mf16, r8 uint16) bool {
		m := int(m16%1000) + 1
		mf := int(mf16 % 1000)
		r := int(r8%6) + 1
		return TolerableT(m, mf, r) <= BreakableT(m, mf, r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestCorollary1ConsistentWithTheorems(t *testing.T) {
	// For m = 2*m0(t) the sufficient bound must admit t back (Theorem 2
	// says 2*m0 is enough to tolerate t).
	for _, tc := range []Params{
		{R: 2, T: 3, MF: 10},
		{R: 3, T: 5, MF: 50},
		{R: 4, T: 1, MF: 1000},
		{R: 4, T: 17, MF: 7},
	} {
		if err := tc.Validate(); err != nil {
			t.Fatal(err)
		}
		m := 2 * tc.M0()
		if got := TolerableT(m, tc.MF, tc.R); got < tc.T {
			// TolerableT uses the closed-form (m·r(2r+1)−2)/(4mf+m)
			// which is slightly conservative due to ceilings in m0;
			// allow a slack of 1.
			if got < tc.T-1 {
				t.Errorf("%+v: TolerableT(2m0=%d) = %d, want >= %d", tc, m, got, tc.T-1)
			}
		}
		// For m = m0(t)-1 the necessary bound must not claim more
		// than t is fine: broadcast with m < m0 is breakable at t.
		if tc.M0() >= 2 {
			mm := tc.M0() - 1
			if got := BreakableT(mm, tc.MF, tc.R); got >= tc.T {
				// t > BreakableT means breakable; m < m0 should be
				// breakable at t, so BreakableT < t.
				t.Errorf("%+v: BreakableT(m0-1=%d) = %d, want < %d", tc, mm, got, tc.T)
			}
		}
	}
}

func TestSubBitLength(t *testing.T) {
	tests := []struct {
		n, tt, mmax int
		want        int
	}{
		{1024, 4, 4096, 2*10 + 2 + 12},
		{1, 1, 1, 1}, // floors to the minimum of 1
		{2, 1, 1, 2}, // 2*1 + 0 + 0
		{1000, 2, 100, 2*10 + 1 + 7},
	}
	for _, tc := range tests {
		if got := SubBitLength(tc.n, tc.tt, tc.mmax); got != tc.want {
			t.Errorf("SubBitLength(%d,%d,%d) = %d, want %d", tc.n, tc.tt, tc.mmax, got, tc.want)
		}
	}
}

func TestTheorem4Budget(t *testing.T) {
	// Spot check: n=1024, t=4, mf=10, mmax=4096, k=64.
	// L = 20+2+12 = 34; k-term = 64 + 2*6 + 2 = 78; 2*(41)*34*78.
	want := 2 * 41 * 34 * 78
	if got := Theorem4Budget(1024, 4, 10, 4096, 64); got != want {
		t.Fatalf("Theorem4Budget = %d, want %d", got, want)
	}
	// The budget grows with every parameter.
	base := Theorem4Budget(1024, 4, 10, 4096, 64)
	if Theorem4Budget(2048, 4, 10, 4096, 64) <= base {
		t.Error("budget should grow with n")
	}
	if Theorem4Budget(1024, 8, 10, 4096, 64) <= base {
		t.Error("budget should grow with t")
	}
	if Theorem4Budget(1024, 4, 20, 4096, 64) <= base {
		t.Error("budget should grow with mf")
	}
	if Theorem4Budget(1024, 4, 10, 4096, 128) <= base {
		t.Error("budget should grow with k")
	}
}
