// Package auedcode implements the paper's Section 5 two-level coding
// scheme: an All-Unidirectional Error-Detecting (AUED) code that lets a
// receiver verify message integrity without cryptography, under a channel
// where the adversary can freely flip 0→1 (by emitting a signal into a
// silent sub-slot) but can flip 1→0 only by guessing the transmitter's
// random sub-bit pattern exactly.
//
// Bit level: the codeword is the payload S0 followed by count segments
// S1..Sl, where segment Si stores the number of 1-bits of S(i-1) in
// binary, |Si| = floor(log2|S(i-1)|)+1, and the last two segments are two
// bits each. Any non-empty set of 0→1 flips breaks a count somewhere and
// cascades to Sl, whose only consistent up-change (to "11" = 3) exceeds
// the two 1-bits its predecessor can hold — so all unidirectional attacks
// are detected.
//
// Implementation note: the encoder prepends a guard 1-bit to the payload.
// The paper asserts "the last segment Sl can only be 01 or 10", which
// requires every segment to contain at least one 1-bit; an all-zero
// payload would otherwise produce the all-zero codeword whose counts an
// adversary can consistently increment (0→1 at every level). The guard
// bit makes every popcount at least 1, securing the property the paper's
// argument uses, at a cost of one bit.
//
// Sub-bit level: each bit is transmitted as L sub-slots, with 0 encoded
// as L silences and 1 as a uniformly random non-zero pattern of
// signal/silence, L = 2·log2 n + log2 t + log2 mmax. Energy in any
// sub-slot makes the receiver read 1, so erasing a 1 requires an exact
// pattern guess: probability 1/(2^L - 1).
//
// Word layout: a BitString stores bit i in bit i%64 of word i/64, and
// bits past the length stay zero. Everything that touches a run of bits —
// the count of a segment, a count field, one bit's L sub-slots, the
// payload copy — goes through loadBits/storeBits, which move up to 64
// bits with two shifts and a mask even when the run straddles a word
// boundary; runs longer than a word (L may exceed 64) go chunk by chunk.
// Bit i's sub-slots are the run [i·L, (i+1)·L), generally unaligned.
package auedcode

import (
	"fmt"
	"math/bits"
	"strings"
)

// BitString is a fixed-length bit vector with MSB-first indexing.
// The zero value is an empty string; use NewBitString for a sized one.
type BitString struct {
	words []uint64
	n     int
}

// NewBitString returns an all-zero bit string of length n.
func NewBitString(n int) BitString {
	if n < 0 {
		n = 0
	}
	return BitString{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the number of bits.
func (b BitString) Len() int { return b.n }

// Get returns bit i (0 or 1). It panics when i is out of range, matching
// slice semantics.
func (b BitString) Get(i int) int {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("auedcode: bit index %d out of range [0,%d)", i, b.n))
	}
	return int(b.words[i/64]>>(uint(i)%64)) & 1
}

// Set writes bit i.
func (b BitString) Set(i, v int) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("auedcode: bit index %d out of range [0,%d)", i, b.n))
	}
	if v != 0 {
		b.words[i/64] |= 1 << (uint(i) % 64)
	} else {
		b.words[i/64] &^= 1 << (uint(i) % 64)
	}
}

// checkRange panics unless [from, to) lies inside the string, as indexing
// each bit of the run would.
func (b BitString) checkRange(from, to int) {
	if from < 0 || to > b.n {
		panic(fmt.Sprintf("auedcode: bit range [%d,%d) out of range [0,%d)", from, to, b.n))
	}
}

// loadBits returns the n bits (1 <= n <= 64) at [at, at+n), bit at+j in
// bit j of the result. The range must lie inside the string.
func (b BitString) loadBits(at, n int) uint64 {
	wi, sh := at/64, uint(at)%64
	v := b.words[wi] >> sh
	if int(sh)+n > 64 {
		v |= b.words[wi+1] << (64 - sh)
	}
	return v & (^uint64(0) >> uint(64-n))
}

// storeBits overwrites the n bits (1 <= n <= 64) at [at, at+n) with the
// low n bits of v, leaving every other bit alone: one masked write, or
// two when the run straddles a word boundary.
func (b BitString) storeBits(at, n int, v uint64) {
	mask := ^uint64(0) >> uint(64-n)
	v &= mask
	wi, sh := at/64, uint(at)%64
	b.words[wi] = b.words[wi]&^(mask<<sh) | v<<sh
	if int(sh)+n > 64 {
		b.words[wi+1] = b.words[wi+1]&^(mask>>(64-sh)) | v>>(64-sh)
	}
}

// copyBits overwrites dst[dstAt, dstAt+n) with src[srcAt, srcAt+n).
func copyBits(dst BitString, dstAt int, src BitString, srcAt, n int) {
	for j := 0; j < n; j += 64 {
		m := min(64, n-j)
		dst.storeBits(dstAt+j, m, src.loadBits(srcAt+j, m))
	}
}

// PopCountRange returns the number of 1-bits in [from, to).
func (b BitString) PopCountRange(from, to int) int {
	if from >= to {
		return 0
	}
	b.checkRange(from, to)
	total := 0
	for at := from; at < to; at += 64 {
		total += bits.OnesCount64(b.loadBits(at, min(64, to-at)))
	}
	return total
}

// anyRange reports whether any bit of [from, to) is set.
func (b BitString) anyRange(from, to int) bool {
	for at := from; at < to; at += 64 {
		if b.loadBits(at, min(64, to-at)) != 0 {
			return true
		}
	}
	return false
}

// Clone returns an independent copy.
func (b BitString) Clone() BitString {
	c := NewBitString(b.n)
	copy(c.words, b.words)
	return c
}

// Equal reports whether two bit strings have identical length and content.
func (b BitString) Equal(o BitString) bool {
	if b.n != o.n {
		return false
	}
	for i := range b.words {
		if b.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// IsZero reports whether all bits are zero.
func (b BitString) IsZero() bool {
	for _, w := range b.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// checkField panics unless [at, at+width) lies inside the string and fits
// a uint.
func (b BitString) checkField(at, width int) {
	if width > 64 {
		panic(fmt.Sprintf("auedcode: field width %d exceeds 64", width))
	}
	b.checkRange(at, at+width)
}

// WriteUint stores the width lowest bits of v at [at, at+width), MSB
// first; width is at most 64.
func (b BitString) WriteUint(v uint, at, width int) {
	if width <= 0 {
		return
	}
	b.checkField(at, width)
	// MSB first: position at+i takes bit width-1-i of v, the bit reversal
	// of the field.
	b.storeBits(at, width, bits.Reverse64(uint64(v))>>uint(64-width))
}

// ReadUint reads width bits at [at, at+width) as an MSB-first unsigned
// integer; width is at most 64.
func (b BitString) ReadUint(at, width int) uint {
	if width <= 0 {
		return 0
	}
	b.checkField(at, width)
	return uint(bits.Reverse64(b.loadBits(at, width)) >> uint(64-width))
}

// String renders the bits as a 0/1 string (diagnostics and tests).
func (b BitString) String() string {
	var sb strings.Builder
	sb.Grow(b.n)
	for i := 0; i < b.n; i++ {
		if b.Get(i) == 1 {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// ParseBits builds a BitString from a 0/1 string.
func ParseBits(s string) (BitString, error) {
	b := NewBitString(len(s))
	for i, c := range s {
		switch c {
		case '0':
		case '1':
			b.Set(i, 1)
		default:
			return BitString{}, fmt.Errorf("auedcode: invalid bit character %q", c)
		}
	}
	return b, nil
}
