package auedcode

// The oracle for the word-parallel coder: the per-bit implementations the
// package shipped before it went word-wise live on here as references, and
// every word-wise routine must reproduce their bits — and, where an RNG is
// involved, leave the generator in the same state, checked by drawing one
// more Uint64 from each side.

import (
	"errors"
	"testing"

	"bftbcast/internal/stats"
)

func refRandomPattern(c *Code, sub BitString, bit int, rng *stats.RNG) {
	base := bit * c.l
	for {
		nonzero := false
		for j := 0; j < c.l; j++ {
			v := 0
			if rng.Bool() {
				v = 1
				nonzero = true
			}
			sub.Set(base+j, v)
		}
		if nonzero {
			return
		}
	}
}

func refEncodeSub(c *Code, bitsW BitString, rng *stats.RNG) BitString {
	sub := NewBitString(c.n * c.l)
	for i := 0; i < c.n; i++ {
		if bitsW.Get(i) == 1 {
			refRandomPattern(c, sub, i, rng)
		}
	}
	return sub
}

func refDecodeSub(c *Code, sub BitString) BitString {
	out := NewBitString(c.n)
	for i := 0; i < c.n; i++ {
		for j := 0; j < c.l; j++ {
			if sub.Get(i*c.l+j) == 1 {
				out.Set(i, 1)
				break
			}
		}
	}
	return out
}

func refPopCountRange(b BitString, from, to int) int {
	total := 0
	for i := from; i < to; i++ {
		total += b.Get(i)
	}
	return total
}

func refWriteUint(b BitString, v uint, at, width int) {
	for i := 0; i < width; i++ {
		b.Set(at+i, int(v>>(uint(width-1-i)))&1)
	}
}

func refReadUint(b BitString, at, width int) uint {
	var v uint
	for i := 0; i < width; i++ {
		v = v<<1 | uint(b.Get(at+i))
	}
	return v
}

func refAttackCancel(cw *Codeword, bit int, guess BitString) BitString {
	out := cw.Sub.Clone()
	base := bit * cw.code.l
	for j := 0; j < cw.code.l; j++ {
		out.Set(base+j, out.Get(base+j)^guess.Get(j))
	}
	return out
}

func refRandomGuess(l int, rng *stats.RNG) BitString {
	guess := NewBitString(l)
	for guess.IsZero() {
		for j := 0; j < l; j++ {
			v := 0
			if rng.Bool() {
				v = 1
			}
			guess.Set(j, v)
		}
	}
	return guess
}

// sameStream fails unless both generators produce the same next value.
func sameStream(t *testing.T, what string, a, b *stats.RNG) {
	t.Helper()
	if x, y := a.Uint64(), b.Uint64(); x != y {
		t.Fatalf("%s: RNG streams diverged (next draw %#x vs %#x)", what, x, y)
	}
}

func TestWordwisePatternsMatchPerBitReference(t *testing.T) {
	for _, l := range []int{1, 7, 22, 63, 64, 65, 130} {
		// k = 16 is the reactive workload's payload (K = 29, one word at
		// bit level); k = 70 puts 1-bits on both sides of the bit-level
		// word boundary. Either way the K·L sub-bit runs start at every
		// residue mod 64 and many straddle a word.
		for _, k := range []int{16, 70} {
			c, err := NewCode(k, 2, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			c.l = l
			seedRNG := stats.NewRNG(uint64(1000*l + k))
			for trial := 0; trial < 8; trial++ {
				payload := randomPayload(k, seedRNG)
				seed := seedRNG.Uint64()
				bitsW, err := c.EncodeBits(payload)
				if err != nil {
					t.Fatal(err)
				}

				// Encode and a redraw over dirty storage both consume what
				// the per-bit encoder consumes.
				ref, got := stats.NewRNG(seed), stats.NewRNG(seed)
				want := refEncodeSub(c, bitsW, ref)
				cw, err := c.Encode(payload, got)
				if err != nil {
					t.Fatal(err)
				}
				if !cw.Sub.Equal(want) {
					t.Fatalf("L=%d k=%d: Encode sub-bits differ from the per-bit reference\n got %s\nwant %s", l, k, cw.Sub, want)
				}
				want = refEncodeSub(c, bitsW, ref)
				for i := range cw.Sub.words {
					cw.Sub.words[i] = ^uint64(0) // junk the redraw must not keep
				}
				cw.Redraw(got)
				if !cw.Sub.Equal(want) {
					t.Fatalf("L=%d k=%d: Redraw sub-bits differ from the per-bit reference", l, k)
				}
				sameStream(t, "Encode/Redraw", got, ref)

				// Decoding, clean and with a flipped-up silent bit.
				if d, err := c.decodeSub(cw.Sub); err != nil || !d.Equal(refDecodeSub(c, cw.Sub)) || !d.Equal(bitsW) {
					t.Fatalf("L=%d k=%d: decodeSub differs from the per-bit reference (err %v)", l, k, err)
				}
				for bit := 0; bit < c.n; bit++ {
					up, err := cw.AttackFlipUp(bit)
					if err != nil {
						t.Fatal(err)
					}
					if d, _ := c.decodeSub(up); !d.Equal(refDecodeSub(c, up)) {
						t.Fatalf("L=%d k=%d bit %d: decodeSub of a flip-up differs", l, k, bit)
					}
				}

				// Cancel attacks on every bit, with a chosen and a drawn guess.
				for bit := 0; bit < c.n; bit++ {
					guess := refRandomGuess(l, seedRNG)
					out, err := cw.attackCancel(bit, guess)
					if err != nil {
						t.Fatal(err)
					}
					if !out.Equal(refAttackCancel(cw, bit, guess)) {
						t.Fatalf("L=%d k=%d bit %d: attackCancel differs from the per-bit reference", l, k, bit)
					}
					wantOut := refAttackCancel(cw, bit, refRandomGuess(l, ref))
					out, erased, err := cw.AttackCancelRandom(bit, got)
					if err != nil {
						t.Fatal(err)
					}
					if !out.Equal(wantOut) {
						t.Fatalf("L=%d k=%d bit %d: AttackCancelRandom differs from the per-bit reference", l, k, bit)
					}
					if wantErased := refPopCountRange(wantOut, bit*l, (bit+1)*l) == 0; erased != wantErased {
						t.Fatalf("L=%d k=%d bit %d: erased=%v, reference %v", l, k, bit, erased, wantErased)
					}
				}
				sameStream(t, "AttackCancelRandom", got, ref)
			}
		}
	}
}

// TestWordwiseFieldsMatchPerBitReference drives the range primitives over
// every alignment around the first two word boundaries.
func TestWordwiseFieldsMatchPerBitReference(t *testing.T) {
	rng := stats.NewRNG(7)
	b := randomPayload(200, rng)
	for from := 0; from <= b.Len(); from++ {
		for _, n := range []int{0, 1, 2, 5, 21, 63, 64, 65, 130} {
			to := from + n
			if to > b.Len() {
				continue
			}
			if got, want := b.PopCountRange(from, to), refPopCountRange(b, from, to); got != want {
				t.Fatalf("PopCountRange(%d,%d) = %d, reference %d", from, to, got, want)
			}
			if got, want := b.anyRange(from, to), refPopCountRange(b, from, to) != 0; got != want {
				t.Fatalf("anyRange(%d,%d) = %v, reference %v", from, to, got, want)
			}
			if n > 64 {
				continue // a uint field is at most a word wide
			}
			if got, want := b.ReadUint(from, n), refReadUint(b, from, n); got != want {
				t.Fatalf("ReadUint(%d,%d) = %#x, reference %#x", from, n, got, want)
			}
			v := uint(rng.Uint64())
			x, y := b.Clone(), b.Clone()
			x.WriteUint(v, from, n)
			refWriteUint(y, v, from, n)
			if !x.Equal(y) {
				t.Fatalf("WriteUint(%#x,%d,%d) differs from the per-bit reference\n got %s\nwant %s", v, from, n, x, y)
			}
		}
	}
}

// TestIntegrityErrorMessages pins the lazily formatted verification
// errors to the messages Verify has always returned.
func TestIntegrityErrorMessages(t *testing.T) {
	c := mustCode(t, 8)
	w, err := c.EncodeBits(NewBitString(8))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		bit, v int
		want   string
	}{
		{0, 0, "auedcode: integrity check failed: guard bit cleared"},
		{3, 1, "auedcode: integrity check failed: segment S1 holds 1, expected 2"},
	} {
		attacked := w.Clone()
		attacked.Set(tc.bit, tc.v)
		err := c.Verify(attacked)
		if !errors.Is(err, ErrIntegrity) || err.Error() != tc.want {
			t.Fatalf("bit %d := %d: Verify = %v, want %q wrapping ErrIntegrity", tc.bit, tc.v, err, tc.want)
		}
		if _, derr := c.DecodeBits(attacked); derr == nil || derr.Error() != tc.want {
			t.Fatalf("bit %d := %d: DecodeBits = %v, want %q", tc.bit, tc.v, derr, tc.want)
		}
	}
}
