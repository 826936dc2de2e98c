package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(12345)
	b := NewRNG(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at draw %d", i)
		}
	}
}

func TestRNGSeedSensitivity(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical draws", same)
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(7)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestIntnRoughlyUniform(t *testing.T) {
	r := NewRNG(99)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := draws / n
	for i, c := range counts {
		if c < want*8/10 || c > want*12/10 {
			t.Fatalf("bucket %d has %d draws, expected about %d", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

func TestBernoulliExtremes(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliFrequency(t *testing.T) {
	r := NewRNG(11)
	const draws = 200000
	hits := 0
	for i := 0; i < draws; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	got := float64(hits) / draws
	if math.Abs(got-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) frequency = %v", got)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(17)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) len = %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestSummarize(t *testing.T) {
	s, err := summarize([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 {
		t.Fatalf("unexpected summary %+v", s)
	}
	if math.Abs(s.StdDev-math.Sqrt(2.5)) > 1e-12 {
		t.Fatalf("stddev = %v", s.StdDev)
	}
	if s.P50 != 3 {
		t.Fatalf("p50 = %v", s.P50)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := summarize(nil); err != ErrNoSamples {
		t.Fatalf("err = %v, want ErrNoSamples", err)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	xs := []float64{5, 1, 3}
	if _, err := summarize(xs); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestPercentile(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 10}, {1, 40}, {0.5, 25}, {-1, 10}, {2, 40},
	}
	for _, tc := range tests {
		if got := Percentile(sorted, tc.p); got != tc.want {
			t.Errorf("Percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 0.5)) {
		t.Error("Percentile(empty) should be NaN")
	}
}

func TestWilsonInterval(t *testing.T) {
	lo, hi, err := WilsonInterval(50, 100)
	if err != nil {
		t.Fatal(err)
	}
	if lo >= 0.5 || hi <= 0.5 {
		t.Fatalf("interval [%v,%v] should contain 0.5", lo, hi)
	}
	if lo < 0.38 || hi > 0.62 {
		t.Fatalf("interval [%v,%v] too wide for n=100", lo, hi)
	}
	if _, _, err := WilsonInterval(0, 0); err != ErrNoSamples {
		t.Fatalf("err = %v, want ErrNoSamples", err)
	}
	lo, hi, err = WilsonInterval(0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if lo > 1e-9 || hi > 0.01 {
		t.Fatalf("zero-success interval [%v,%v]", lo, hi)
	}
}

func TestLog2(t *testing.T) {
	tests := []struct{ x, ceil, floor int }{
		{1, 0, 0}, {2, 1, 1}, {3, 2, 1}, {4, 2, 2}, {5, 3, 2},
		{8, 3, 3}, {9, 4, 3}, {1024, 10, 10}, {1025, 11, 10},
	}
	for _, tc := range tests {
		if got := Log2Ceil(tc.x); got != tc.ceil {
			t.Errorf("Log2Ceil(%d) = %d, want %d", tc.x, got, tc.ceil)
		}
		if got := Log2Floor(tc.x); got != tc.floor {
			t.Errorf("Log2Floor(%d) = %d, want %d", tc.x, got, tc.floor)
		}
	}
	if got := Log2Ceil(0); got != 0 {
		t.Errorf("Log2Ceil(0) = %d, want 0", got)
	}
}

func TestLog2FloorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Log2Floor(0) should panic")
		}
	}()
	Log2Floor(0)
}

func TestCeilDiv(t *testing.T) {
	tests := []struct{ a, b, want int }{
		{0, 5, 0}, {1, 5, 1}, {5, 5, 1}, {6, 5, 2}, {10, 3, 4}, {-3, 5, 0},
	}
	for _, tc := range tests {
		if got := CeilDiv(tc.a, tc.b); got != tc.want {
			t.Errorf("CeilDiv(%d,%d) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestCeilDivPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CeilDiv(1,0) should panic")
		}
	}()
	CeilDiv(1, 0)
}

// TestLowBitsMatchesUint64 pins LowBits to its definition: the low bits
// of n Uint64 draws, draw k in bit k, leaving the generator where those
// n calls leave it (checked by one further draw from each).
func TestLowBitsMatchesUint64(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		for n := 0; n <= 64; n++ {
			a, b := NewRNG(seed), NewRNG(seed)
			var want uint64
			for k := 0; k < n; k++ {
				want |= (a.Uint64() & 1) << uint(k)
			}
			if got := b.LowBits(n); got != want {
				t.Fatalf("seed %d n %d: LowBits = %#x, want %#x", seed, n, got, want)
			}
			if a.Uint64() != b.Uint64() {
				t.Fatalf("seed %d n %d: generators diverge after LowBits", seed, n)
			}
		}
	}
}

// intnTwoDivisions is Intn as it was before it skipped the threshold
// division: the threshold 2^64 mod n computed up front for every call.
func intnTwoDivisions(r *RNG, n int) int {
	bound := uint64(n)
	threshold := -bound % bound
	for {
		v := r.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// TestIntnMatchesTwoDivisionForm holds Intn's outputs and stream to the
// two-division form. The bounds include some with 2^64 mod n near 2^62 or
// above, so a quarter to a third of their draws is rejected, and small
// ones, where a draw below n is the rare case.
func TestIntnMatchesTwoDivisionForm(t *testing.T) {
	bounds := []uint64{1, 2, 3, 22, 225, 1000, 1 << 32, 1<<32 + 1, 1<<62 + 1, 3 << 61, 1<<64/3 + 1, 1<<63 - 25}
	for _, b := range bounds {
		if int(b) <= 0 {
			continue // not an int on this platform
		}
		a, c := NewRNG(b), NewRNG(b)
		for i := 0; i < 20000; i++ {
			if got, want := a.Intn(int(b)), intnTwoDivisions(c, int(b)); got != want {
				t.Fatalf("bound %d draw %d: Intn = %d, want %d", b, i, got, want)
			}
		}
		if a.Uint64() != c.Uint64() {
			t.Fatalf("bound %d: generators diverge", b)
		}
	}
	// Every bound below 300, a shorter stream each.
	for n := 1; n < 300; n++ {
		a, c := NewRNG(uint64(n)), NewRNG(uint64(n))
		for i := 0; i < 200; i++ {
			if a.Intn(n) != intnTwoDivisions(c, n) {
				t.Fatalf("bound %d draw %d differs", n, i)
			}
		}
		if a.Uint64() != c.Uint64() {
			t.Fatalf("bound %d: generators diverge", n)
		}
	}
}
