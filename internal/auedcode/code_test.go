package auedcode

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"bftbcast/internal/stats"
)

func mustCode(t *testing.T, k int) *Code {
	t.Helper()
	c, err := NewCode(k, 1024, 4, 1024)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func randomPayload(k int, rng *stats.RNG) BitString {
	p := NewBitString(k)
	for i := 0; i < k; i++ {
		if rng.Bool() {
			p.Set(i, 1)
		}
	}
	return p
}

func TestNewCodeValidation(t *testing.T) {
	if _, err := NewCode(0, 10, 1, 10); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := NewCode(8, 0, 1, 10); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := NewCode(8, 10, 0, 10); err == nil {
		t.Fatal("t=0 accepted")
	}
	if _, err := NewCode(8, 10, 1, 0); err == nil {
		t.Fatal("mmax=0 accepted")
	}
	if _, err := NewCode(1<<21, 10, 1, 10); err == nil {
		t.Fatal("huge k accepted")
	}
}

func TestSegmentChain(t *testing.T) {
	// k=8 -> k0=9(guard), k1=floor(log2 9)+1=4, k2=3, k3=2, k4=2.
	c := mustCode(t, 8)
	got := c.Segments()
	want := []int{9, 4, 3, 2, 2}
	if len(got) != len(want) {
		t.Fatalf("segments = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("segments = %v, want %v", got, want)
		}
	}
	// The last two segments are always 2 bits (paper's structure).
	for _, k := range []int{1, 2, 3, 7, 16, 63, 64, 100, 1024} {
		segs := mustCode(t, k).Segments()
		if len(segs) < 2 {
			t.Fatalf("k=%d: only %d segments", k, len(segs))
		}
		if segs[len(segs)-1] != 2 || segs[len(segs)-2] != 2 {
			t.Fatalf("k=%d: last segments %v, want 2,2", k, segs)
		}
	}
}

func TestSubBitLengthMatchesPaper(t *testing.T) {
	c, err := NewCode(8, 1024, 4, 4096)
	if err != nil {
		t.Fatal(err)
	}
	// L = 2*10 + 2 + 12 = 34.
	if got := c.SubBitLength(); got != 34 {
		t.Fatalf("L = %d, want 34", got)
	}
	if got := c.TransmissionSlots(); got != c.CodewordBits()*34 {
		t.Fatalf("TransmissionSlots = %d", got)
	}
}

func TestOverheadWithinPaperBound(t *testing.T) {
	// K <= k + 2 log k + 2 (+1 guard bit), and far below the I-code's 2k
	// for any realistic message.
	for _, k := range []int{4, 8, 16, 64, 256, 1024, 4096} {
		c := mustCode(t, k)
		if got, bound := c.CodewordBits(), PaperOverheadBound(k); got > bound {
			t.Errorf("k=%d: codeword %d bits exceeds paper bound %d", k, got, bound)
		}
		if k >= 16 && c.CodewordBits() >= iCodeLength(k) {
			t.Errorf("k=%d: codeword %d not shorter than I-code %d", k, c.CodewordBits(), iCodeLength(k))
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := stats.NewRNG(1)
	for _, k := range []int{1, 2, 8, 33, 128} {
		c := mustCode(t, k)
		for trial := 0; trial < 20; trial++ {
			payload := randomPayload(k, rng)
			w, err := c.EncodeBits(payload)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Verify(w); err != nil {
				t.Fatalf("k=%d: fresh codeword fails verification: %v", k, err)
			}
			got, err := c.DecodeBits(w)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(payload) {
				t.Fatalf("k=%d: round trip mismatch", k)
			}
		}
	}
}

func TestEncodeRejectsWrongSize(t *testing.T) {
	c := mustCode(t, 8)
	if _, err := c.EncodeBits(NewBitString(7)); err == nil {
		t.Fatal("wrong payload size accepted")
	}
}

func TestAllZeroPayloadIsProtectedByGuard(t *testing.T) {
	// Without the guard bit, the all-zero payload would be forgeable by
	// consistent 0->1 flips down the chain. With it, the single-bit
	// cascade attack is detected.
	c := mustCode(t, 8)
	w, err := c.EncodeBits(NewBitString(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Verify(w); err != nil {
		t.Fatal(err)
	}
	// Cascading attack: add one 1-bit to S0 and increment every count
	// segment by one via 0->1 flips where binary allows.
	attacked := w.Clone()
	attacked.Set(1, 1) // first payload bit 0->1
	// S1 currently holds 1 (the guard); 1->2 means 0001->0010, which
	// needs a 1->0 flip and is impossible; any up-flip of S1 yields an
	// inconsistent count. Try all single up-flips of the rest of the
	// word and require detection.
	detected := 0
	tried := 0
	for i := 9; i < attacked.Len(); i++ {
		if attacked.Get(i) == 1 {
			continue
		}
		trial := attacked.Clone()
		trial.Set(i, 1)
		tried++
		if err := c.Verify(trial); err != nil {
			detected++
		}
	}
	if tried == 0 || detected != tried {
		t.Fatalf("cascade attack: %d/%d detected", detected, tried)
	}
}

func TestVerifyDetectsAllUpFlipSets(t *testing.T) {
	// Property: any non-empty set of 0->1 flips on a valid codeword is
	// detected. This is the AUED guarantee.
	rng := stats.NewRNG(7)
	c := mustCode(t, 16)
	f := func(seed uint64, nflips uint8) bool {
		r := stats.NewRNG(seed)
		payload := randomPayload(16, r)
		w, err := c.EncodeBits(payload)
		if err != nil {
			return false
		}
		// Collect zero positions.
		var zeros []int
		for i := 0; i < w.Len(); i++ {
			if w.Get(i) == 0 {
				zeros = append(zeros, i)
			}
		}
		if len(zeros) == 0 {
			return true
		}
		n := int(nflips)%len(zeros) + 1
		attacked := w.Clone()
		for _, idx := range rng.Perm(len(zeros))[:n] {
			attacked.Set(zeros[idx], 1)
		}
		return c.Verify(attacked) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyDetectsTruncation(t *testing.T) {
	c := mustCode(t, 8)
	w, err := c.EncodeBits(NewBitString(8))
	if err != nil {
		t.Fatal(err)
	}
	short := NewBitString(w.Len() - 1)
	if err := c.Verify(short); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("truncated word: err = %v", err)
	}
}

func TestSingleSegmentCodeIsForgeable(t *testing.T) {
	// Ablation (DESIGN.md #3): with only one count segment, an adversary
	// can keep counts consistent using only 0->1 flips, e.g. when the
	// count's binary increment happens to be an up-flip (01->11). The
	// full chain forces a contradiction at the 2-bit tail instead.
	//
	// Payload 10000000 with guard: S0 popcount = 2, S1 = 0010. Flipping
	// payload bit 2 makes popcount 3; S1 0010->0011 is NOT an up-flip
	// (bit 3 goes 1->... it is: 0010 -> 0011 sets the last bit only).
	// So the single-segment check passes while the real chain fails.
	c := mustCode(t, 8)
	payload, err := ParseBits("10000000")
	if err != nil {
		t.Fatal(err)
	}
	w, err := c.EncodeBits(payload)
	if err != nil {
		t.Fatal(err)
	}
	attacked := w.Clone()
	attacked.Set(2, 1) // add a payload 1-bit: S0 popcount 2 -> 3
	// Fix S1 (segment at offset 9, width 4): 0010 -> 0011 via up-flip.
	attacked.Set(9+3, 1)
	// Single-segment verification (S1 only) would accept:
	s1 := attacked.ReadUint(9, 4)
	if got := uint(attacked.PopCountRange(0, 9)); s1 != got {
		t.Fatalf("setup broken: single-segment check should pass (s1=%d, popcount=%d)", s1, got)
	}
	// The full chain still catches it: S2 must count S1's ones, which
	// changed from 1 to 2, requiring 01->10 (impossible up-flip).
	if err := c.Verify(attacked); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("full chain missed the forgery: %v", err)
	}
}
