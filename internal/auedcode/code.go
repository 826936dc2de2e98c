package auedcode

import (
	"errors"
	"fmt"

	"bftbcast/internal/stats"
)

// ErrIntegrity is returned when a received codeword fails verification:
// some count segment disagrees with the 1-bits of its predecessor, or the
// structural invariants (guard bit, final segment value) are violated.
var ErrIntegrity = errors.New("auedcode: integrity check failed")

// Code is the bit-level layout for payloads of a fixed size K. Construct
// with NewCode; the zero value is unusable.
type Code struct {
	k    int   // payload bits
	segs []int // segment lengths k0..kl, k0 = k+1 (guard bit included)
	n    int   // total codeword bits
	l    int   // sub-bits per bit
}

// MaxPayloadBits is the largest payload NewCode lays out.
const MaxPayloadBits = 1 << 20

// NewCode builds the layout for k-bit payloads on a network of n nodes
// with at most t bad nodes per neighborhood and a loose adversary budget
// bound mmax. The sub-bit length is L = 2·log2 n + log2 t + log2 mmax
// (at least 1).
func NewCode(k, n, t, mmax int) (*Code, error) {
	if k < 1 {
		return nil, fmt.Errorf("auedcode: payload must have at least 1 bit, got %d", k)
	}
	if k > MaxPayloadBits {
		return nil, fmt.Errorf("auedcode: payload of %d bits is unreasonably large", k)
	}
	if n < 1 || t < 1 || mmax < 1 {
		return nil, fmt.Errorf("auedcode: n, t, mmax must be >= 1 (got %d, %d, %d)", n, t, mmax)
	}
	l := 2*stats.Log2Ceil(n) + stats.Log2Ceil(t) + stats.Log2Ceil(mmax)
	if l < 1 {
		l = 1
	}
	c := &Code{k: k, l: l}
	// Segment chain: k0 = k+1 (guard bit), then ki = floor(log2 k(i-1))+1
	// until two consecutive 2-bit segments have been emitted.
	c.segs = append(c.segs, k+1)
	for {
		prev := c.segs[len(c.segs)-1]
		if prev == 2 && len(c.segs) >= 2 && c.segs[len(c.segs)-2] == 2 {
			break
		}
		next := stats.Log2Floor(prev) + 1
		c.segs = append(c.segs, next)
	}
	for _, s := range c.segs {
		c.n += s
	}
	return c, nil
}

// PayloadBits returns k, the payload size.
func (c *Code) PayloadBits() int { return c.k }

// CodewordBits returns K, the total bit-level codeword length
// (k + 1 guard + count segments). The paper bounds it by k + 2·log k + 2
// (plus our one guard bit).
func (c *Code) CodewordBits() int { return c.n }

// SubBitLength returns L, the number of sub-slots per bit.
func (c *Code) SubBitLength() int { return c.l }

// TransmissionSlots returns K·L, the sub-slot cost of one message round.
func (c *Code) TransmissionSlots() int { return c.n * c.l }

// Segments returns a copy of the segment lengths k0..kl.
func (c *Code) Segments() []int {
	out := make([]int, len(c.segs))
	copy(out, c.segs)
	return out
}

// EncodeBits produces the bit-level codeword for the payload: guard bit,
// payload, then the count-segment chain.
func (c *Code) EncodeBits(payload BitString) (BitString, error) {
	if payload.Len() != c.k {
		return BitString{}, fmt.Errorf("auedcode: payload has %d bits, code wants %d", payload.Len(), c.k)
	}
	w := NewBitString(c.n)
	w.Set(0, 1) // guard bit
	copyBits(w, 1, payload, 0, c.k)
	at := c.segs[0]
	prevStart, prevLen := 0, c.segs[0]
	for _, segLen := range c.segs[1:] {
		count := w.PopCountRange(prevStart, prevStart+prevLen)
		w.WriteUint(uint(count), at, segLen)
		prevStart, prevLen = at, segLen
		at += segLen
	}
	return w, nil
}

// Verify checks a received bit-level codeword. A nil return means the
// word is a valid codeword; ErrIntegrity (wrapped with the failing
// segment) otherwise.
func (c *Code) Verify(w BitString) error {
	if w.Len() != c.n {
		return fmt.Errorf("%w: length %d, want %d", ErrIntegrity, w.Len(), c.n)
	}
	if w.Get(0) != 1 {
		return &integrityError{}
	}
	at := c.segs[0]
	prevStart, prevLen := 0, c.segs[0]
	for i, segLen := range c.segs[1:] {
		want := uint(w.PopCountRange(prevStart, prevStart+prevLen))
		got := w.ReadUint(at, segLen)
		if got != want {
			return &integrityError{seg: i + 1, got: got, want: want}
		}
		prevStart, prevLen = at, segLen
		at += segLen
	}
	return nil
}

// integrityError is the invariant a K-bit word violates: seg 0 is the
// guard bit, seg i > 0 the count segment Si, which holds got where its
// predecessor has want 1-bits. It wraps ErrIntegrity and formats its
// message only when asked, so a receiver that just tests for nil (every
// attacked round of the reactive machine) never builds the string.
type integrityError struct {
	seg       int
	got, want uint
}

func (e *integrityError) Error() string {
	if e.seg == 0 {
		return fmt.Sprintf("%v: guard bit cleared", ErrIntegrity)
	}
	return fmt.Sprintf("%v: segment S%d holds %d, expected %d", ErrIntegrity, e.seg, e.got, e.want)
}

func (e *integrityError) Unwrap() error { return ErrIntegrity }

// DecodeBits verifies w and extracts the payload.
func (c *Code) DecodeBits(w BitString) (BitString, error) {
	if err := c.Verify(w); err != nil {
		return BitString{}, err
	}
	payload := NewBitString(c.k)
	copyBits(payload, 0, w, 1, c.k)
	return payload, nil
}

// PaperOverheadBound returns a firm bound on the codeword length for a
// k-bit message: k + 2·⌈log2 k⌉ + 9. The paper states K ≤ k + 2·log k + 2
// with real-valued logarithms; the integer segment chain
// (⌊log2⌋+1 widths, terminated by two 2-bit segments) plus this
// implementation's guard bit costs a few additive bits more, still
// k + O(log k) and far below the I-code's 2k.
func PaperOverheadBound(k int) int {
	return k + 2*stats.Log2Ceil(k) + 9
}

// iCodeLength returns the length of the I-code alternative the paper
// compares against, which doubles the message: 2k.
func iCodeLength(k int) int { return 2 * k }
