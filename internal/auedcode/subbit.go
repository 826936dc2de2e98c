package auedcode

import (
	"fmt"
	"math/bits"

	"bftbcast/internal/stats"
)

// Codeword is a fully encoded message: the bit-level codeword plus its
// sub-bit expansion, where bit i occupies sub-slots [i·L, (i+1)·L).
// A sub-bit 1 means signal present ("u"), 0 means silence ("−").
type Codeword struct {
	code *Code
	Bits BitString // bit-level codeword (K bits)
	Sub  BitString // sub-bit expansion (K·L bits)
}

// Encode produces a transmittable codeword: every 0-bit becomes L
// silences, every 1-bit a uniformly random non-zero pattern of L
// sub-bits. rng drives the pattern choice; two encodings of the same
// payload differ, which is what makes 1→0 erasure a guessing game.
func (c *Code) Encode(payload BitString, rng *stats.RNG) (*Codeword, error) {
	bitsW, err := c.EncodeBits(payload)
	if err != nil {
		return nil, err
	}
	cw := &Codeword{code: c, Bits: bitsW, Sub: NewBitString(c.n * c.l)}
	cw.drawPatterns(rng)
	return cw, nil
}

// Redraw re-randomises the sub-bit patterns in place for the next
// transmission of the same bit-level word: Sub and rng end up exactly as
// a fresh Encode of the payload would leave them, with no allocation.
func (cw *Codeword) Redraw(rng *stats.RNG) {
	// The draws overwrite only the 1-bits' runs; the 0-bits' sub-slots
	// must read silent whatever was done to the exported Sub since.
	clear(cw.Sub.words)
	cw.drawPatterns(rng)
}

// drawPatterns draws a pattern into Sub for every 1-bit of the bit-level
// word, in ascending bit order.
func (cw *Codeword) drawPatterns(rng *stats.RNG) {
	l := cw.code.l
	for wi, w := range cw.Bits.words {
		for ; w != 0; w &= w - 1 {
			bit := wi*64 + bits.TrailingZeros64(w)
			drawPattern(rng, l, cw.Sub, bit*l)
		}
	}
}

// drawPattern is the one pattern-draw kernel: sub[at, at+l) becomes a
// uniformly random non-zero pattern, redrawn whole while all-zero. The
// stream invariant every caller relies on is one generator step per
// sub-bit, its low bit the signal, sub-bit j before sub-bit j+1 — what
// one rng.Uint64() per sub-bit would give. Each chunk of up to 64
// sub-bits is one rng.LowBits call and overwrites sub[at+j, …) in one
// masked write.
func drawPattern(rng *stats.RNG, l int, sub BitString, at int) {
	for {
		var signal uint64
		for j := 0; j < l; j += 64 {
			n := min(64, l-j)
			p := rng.LowBits(n)
			sub.storeBits(at+j, n, p)
			signal |= p
		}
		if signal != 0 {
			return
		}
	}
}

// decodeSub collapses a received sub-bit string to bit level: a bit is 1
// when any of its sub-slots carries signal.
func (c *Code) decodeSub(sub BitString) (BitString, error) {
	if sub.Len() != c.n*c.l {
		return BitString{}, fmt.Errorf("auedcode: sub-bit string has %d bits, want %d", sub.Len(), c.n*c.l)
	}
	out := NewBitString(c.n)
	for i := 0; i < c.n; i++ {
		if sub.anyRange(i*c.l, (i+1)*c.l) {
			out.Set(i, 1)
		}
	}
	return out, nil
}

// ReceiveSub decodes and verifies a received sub-bit string, returning
// the payload or ErrIntegrity.
func (c *Code) ReceiveSub(sub BitString) (BitString, error) {
	bitsW, err := c.decodeSub(sub)
	if err != nil {
		return BitString{}, err
	}
	return c.DecodeBits(bitsW)
}

// The attack primitives below mutate a copy of the transmitted sub-bits,
// modelling what a receiver inside the attacker's range observes.

// AttackFlipUp emits signal into one sub-slot of the given bit, turning a
// 0-bit into a 1 at the receiver. It always succeeds (energy cannot be
// removed by adding energy) and returns the attacked sub-bit string.
func (cw *Codeword) AttackFlipUp(bit int) (BitString, error) {
	if bit < 0 || bit >= cw.code.n {
		return BitString{}, fmt.Errorf("auedcode: bit %d out of range", bit)
	}
	out := cw.Sub.Clone()
	out.Set(bit*cw.code.l, 1)
	return out, nil
}

// attackCancel attempts to erase the given bit by transmitting the
// inverse of a guessed pattern: sub-slots where the guess matches the
// transmitted signal are cancelled, sub-slots where it does not acquire
// new signal. The result at the receiver is transmitted XOR guess, so the
// erasure succeeds only when the guess equals the pattern exactly.
func (cw *Codeword) attackCancel(bit int, guess BitString) (BitString, error) {
	if bit < 0 || bit >= cw.code.n {
		return BitString{}, fmt.Errorf("auedcode: bit %d out of range", bit)
	}
	if guess.Len() != cw.code.l {
		return BitString{}, fmt.Errorf("auedcode: guess has %d sub-bits, want %d", guess.Len(), cw.code.l)
	}
	out := cw.Sub.Clone()
	base := bit * cw.code.l
	for j := 0; j < cw.code.l; j += 64 {
		n := min(64, cw.code.l-j)
		out.storeBits(base+j, n, out.loadBits(base+j, n)^guess.loadBits(j, n))
	}
	return out, nil
}

// AttackCancelRandom attempts a cancel with a uniformly random non-zero
// guess, the best an adversary without pattern knowledge can do. It
// returns the attacked sub-bits and whether the erasure succeeded
// (probability 1/(2^L − 1) against a transmitted 1-bit).
func (cw *Codeword) AttackCancelRandom(bit int, rng *stats.RNG) (BitString, bool, error) {
	guess := NewBitString(cw.code.l)
	drawPattern(rng, cw.code.l, guess, 0)
	out, err := cw.attackCancel(bit, guess)
	if err != nil {
		return BitString{}, false, err
	}
	base := bit * cw.code.l
	return out, !out.anyRange(base, base+cw.code.l), nil
}

// ForgeProbability returns the design bound on an undetectable
// alteration: the adversary must erase at least one 1-bit, succeeding
// with probability 1/(2^L − 1) per attempt.
func (c *Code) ForgeProbability() float64 {
	if c.l >= 63 {
		return 1.0 / float64(uint64(1)<<62) // effectively zero; avoid overflow
	}
	return 1.0 / float64((uint64(1)<<uint(c.l))-1)
}
