package auedcode

import (
	"errors"
	"math"
	"testing"

	"bftbcast/internal/stats"
)

func TestSubBitRoundTrip(t *testing.T) {
	rng := stats.NewRNG(3)
	c := mustCode(t, 16)
	for trial := 0; trial < 20; trial++ {
		payload := randomPayload(16, rng)
		cw, err := c.Encode(payload, rng)
		if err != nil {
			t.Fatal(err)
		}
		if cw.Sub.Len() != c.CodewordBits()*c.SubBitLength() {
			t.Fatalf("sub length %d", cw.Sub.Len())
		}
		got, err := c.ReceiveSub(cw.Sub)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(payload) {
			t.Fatal("sub-bit round trip mismatch")
		}
	}
}

func TestOneBitsHaveNonZeroPatterns(t *testing.T) {
	rng := stats.NewRNG(5)
	c := mustCode(t, 8)
	payload := randomPayload(8, rng)
	cw, err := c.Encode(payload, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.CodewordBits(); i++ {
		any := false
		for j := 0; j < c.SubBitLength(); j++ {
			if cw.Sub.Get(i*c.SubBitLength()+j) == 1 {
				any = true
			}
		}
		if any != (cw.Bits.Get(i) == 1) {
			t.Fatalf("bit %d: pattern presence %v, bit %d", i, any, cw.Bits.Get(i))
		}
	}
}

func TestPatternsAreRandomized(t *testing.T) {
	rng := stats.NewRNG(9)
	c := mustCode(t, 8)
	payload, err := ParseBits("11111111")
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.Encode(payload, rng)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Encode(payload, rng)
	if err != nil {
		t.Fatal(err)
	}
	if a.Sub.Equal(b.Sub) {
		t.Fatal("two encodings share identical sub-bit patterns")
	}
	if !a.Bits.Equal(b.Bits) {
		t.Fatal("bit-level codewords should be identical")
	}
}

func TestAttackFlipUpAlwaysDetected(t *testing.T) {
	rng := stats.NewRNG(11)
	c := mustCode(t, 16)
	payload := randomPayload(16, rng)
	cw, err := c.Encode(payload, rng)
	if err != nil {
		t.Fatal(err)
	}
	detected := 0
	attacks := 0
	for bit := 0; bit < c.CodewordBits(); bit++ {
		if cw.Bits.Get(bit) == 1 {
			continue // flipping an already-1 bit changes nothing
		}
		attacks++
		sub, err := cw.AttackFlipUp(bit)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.ReceiveSub(sub); errors.Is(err, ErrIntegrity) {
			detected++
		}
	}
	if attacks == 0 || detected != attacks {
		t.Fatalf("flip-up attacks detected %d/%d", detected, attacks)
	}
}

func TestAttackCancelExactGuessErases(t *testing.T) {
	rng := stats.NewRNG(13)
	c := mustCode(t, 8)
	payload, err := ParseBits("10110100")
	if err != nil {
		t.Fatal(err)
	}
	cw, err := c.Encode(payload, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Perfect knowledge: copy the true pattern of a 1-bit as the guess.
	bit := 1 // first payload bit (it is 1)
	if cw.Bits.Get(bit) != 1 {
		t.Fatal("setup: expected a 1-bit")
	}
	guess := NewBitString(c.SubBitLength())
	for j := 0; j < c.SubBitLength(); j++ {
		guess.Set(j, cw.Sub.Get(bit*c.SubBitLength()+j))
	}
	sub, err := cw.attackCancel(bit, guess)
	if err != nil {
		t.Fatal(err)
	}
	bitsW, err := c.decodeSub(sub)
	if err != nil {
		t.Fatal(err)
	}
	if bitsW.Get(bit) != 0 {
		t.Fatal("exact-guess cancel failed to erase the bit")
	}
	// The erased bit breaks the count chain, so verification still
	// catches THIS single erasure; a full forgery must fix the counts.
	if err := c.Verify(bitsW); err == nil {
		t.Fatal("single erasure should break the count chain")
	}
}

func TestAttackCancelWrongGuessLeavesOne(t *testing.T) {
	rng := stats.NewRNG(17)
	c := mustCode(t, 8)
	payload, err := ParseBits("10000000")
	if err != nil {
		t.Fatal(err)
	}
	cw, err := c.Encode(payload, rng)
	if err != nil {
		t.Fatal(err)
	}
	bit := 1
	// A wrong guess: invert the true pattern's first sub-bit.
	guess := NewBitString(c.SubBitLength())
	for j := 0; j < c.SubBitLength(); j++ {
		guess.Set(j, cw.Sub.Get(bit*c.SubBitLength()+j))
	}
	guess.Set(0, 1-guess.Get(0))
	sub, err := cw.attackCancel(bit, guess)
	if err != nil {
		t.Fatal(err)
	}
	bitsW, err := c.decodeSub(sub)
	if err != nil {
		t.Fatal(err)
	}
	if bitsW.Get(bit) != 1 {
		t.Fatal("wrong guess should leave the bit readable as 1")
	}
}

func TestRandomCancelSuccessRate(t *testing.T) {
	// Use a deliberately tiny L so the 1/(2^L - 1) rate is measurable.
	c, err := NewCode(4, 2, 1, 2) // L = 2*1 + 0 + 1 = 3
	if err != nil {
		t.Fatal(err)
	}
	if c.SubBitLength() != 3 {
		t.Fatalf("L = %d, want 3", c.SubBitLength())
	}
	rng := stats.NewRNG(19)
	payload, err := ParseBits("1000")
	if err != nil {
		t.Fatal(err)
	}
	const trials = 20000
	hits := 0
	for i := 0; i < trials; i++ {
		cw, err := c.Encode(payload, rng)
		if err != nil {
			t.Fatal(err)
		}
		_, erased, err := cw.AttackCancelRandom(1, rng)
		if err != nil {
			t.Fatal(err)
		}
		if erased {
			hits++
		}
	}
	want := c.ForgeProbability() // 1/7
	got := float64(hits) / trials
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("random cancel success rate %v, want about %v", got, want)
	}
}

func TestForgeProbabilityBounds(t *testing.T) {
	c, err := NewCode(8, 1024, 4, 4096) // L = 34
	if err != nil {
		t.Fatal(err)
	}
	p := c.ForgeProbability()
	want := 1.0 / float64((uint64(1)<<34)-1)
	if math.Abs(p-want) > want/100 {
		t.Fatalf("ForgeProbability = %v, want %v", p, want)
	}
	// Paper: p = 1/(n^2 * t * mmax) when all logs are exact powers.
	wantPaper := 1.0 / (1024.0 * 1024.0 * 4.0 * 4096.0)
	if math.Abs(p-wantPaper) > wantPaper/100 {
		t.Fatalf("ForgeProbability = %v, paper formula %v", p, wantPaper)
	}
	// Very large L must not overflow.
	big, err := NewCode(8, 1<<20, 1<<10, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if bp := big.ForgeProbability(); bp <= 0 || bp > 1e-15 {
		t.Fatalf("large-L ForgeProbability = %v", bp)
	}
}

func TestAttackValidation(t *testing.T) {
	rng := stats.NewRNG(23)
	c := mustCode(t, 8)
	cw, err := c.Encode(randomPayload(8, rng), rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cw.AttackFlipUp(-1); err == nil {
		t.Fatal("negative bit accepted")
	}
	if _, err := cw.AttackFlipUp(c.CodewordBits()); err == nil {
		t.Fatal("out-of-range bit accepted")
	}
	if _, err := cw.attackCancel(0, NewBitString(1)); err == nil {
		t.Fatal("short guess accepted")
	}
}
