// Package core implements the paper's primary contribution: the message
// budget bounds for Byzantine fault-tolerant broadcast in a
// message-bounded radio grid, and the broadcast protocols B (homogeneous
// budgets, Section 3) and Bheter (heterogeneous budgets, Section 4).
//
// Notation follows the paper: r is the radio range, t the maximum number
// of bad nodes per neighborhood, mf the message budget of a bad node, m
// the budget of a good node, and
//
//	g  = r(2r+1) − t
//	m0 = ⌈(2·t·mf + 1) / g⌉
//	m' = ⌈(2·t·mf + 1) / ⌈g/2⌉⌉ ≈ 2·m0.
package core

import (
	"errors"
	"fmt"

	"bftbcast/internal/stats"
)

// Params is the fault model: radio range, local fault bound and the bad
// nodes' message budget.
type Params struct {
	R  int // radio range, >= 1
	T  int // max bad nodes per neighborhood, 0 <= T < R(2R+1)
	MF int // message budget of each bad node, >= 0
}

// Validation errors.
var (
	ErrBadR  = errors.New("core: r must be >= 1")
	ErrBadT  = errors.New("core: t must satisfy 0 <= t < r(2r+1)")
	ErrBadMF = errors.New("core: mf must be >= 0")
)

// Validate checks the model constraints. The locally-bounded adversarial
// model requires t < r(2r+1) (Section 1.2, footnote 1).
func (p Params) Validate() error {
	if p.R < 1 {
		return fmt.Errorf("%w (got %d)", ErrBadR, p.R)
	}
	if p.T < 0 || p.T >= p.HalfNeighborhood() {
		return fmt.Errorf("%w (got t=%d, r(2r+1)=%d)", ErrBadT, p.T, p.HalfNeighborhood())
	}
	if p.MF < 0 {
		return fmt.Errorf("%w (got %d)", ErrBadMF, p.MF)
	}
	return nil
}

// HalfNeighborhood returns r(2r+1), the number of neighborhood nodes
// strictly on one side of an axis-aligned line through the centre.
func (p Params) HalfNeighborhood() int { return p.R * (2*p.R + 1) }

// G returns g = r(2r+1) − t, the minimum number of good nodes in any
// half-neighborhood.
func (p Params) G() int { return p.HalfNeighborhood() - p.T }

// SourceRepeats returns 2·t·mf + 1, the number of times the (unbounded)
// base station repeats the initial local broadcast. It is also the total
// number of correct copies that must reach a receiver's neighborhood for
// the receiver to out-count a worst-case attack.
func (p Params) SourceRepeats() int { return 2*p.T*p.MF + 1 }

// Threshold returns t·mf + 1: a node accepts a value once it has received
// it this many times. At most t·mf wrong copies can ever reach a single
// node (Lemma 1), so only Vtrue can meet the threshold.
func (p Params) Threshold() int { return p.T*p.MF + 1 }

// M0 returns the lower bound m0 = ⌈(2·t·mf+1)/g⌉ of Theorem 1: reliable
// broadcast is impossible when every good node has m < m0.
func (p Params) M0() int {
	return stats.CeilDiv(p.SourceRepeats(), p.G())
}

// RelaySends returns m' = ⌈(2·t·mf+1)/⌈g/2⌉⌉, the per-node relay count of
// protocol B (Section 3.1, step 2). It never exceeds 2·m0, which is why
// m >= 2·m0 suffices (Theorem 2).
func (p Params) RelaySends() int {
	return stats.CeilDiv(p.SourceRepeats(), stats.CeilDiv(p.G(), 2))
}

// HomogeneousBudget returns 2·m0, the good-node budget that protocol B is
// proven to work with (Theorem 2).
func (p Params) HomogeneousBudget() int { return 2 * p.M0() }

// KooBudget returns 2·t·mf + 1, the per-node budget required by the
// repetition scheme suggested in Koo et al. (PODC'06), against which the
// paper compares: it is ½(r(2r+1)−t) times larger than protocol B's.
func (p Params) KooBudget() int { return p.SourceRepeats() }

// BreakableT returns the Corollary 1 necessary bound: given m and mf, any
// t strictly greater than (m·r(2r+1) − 1)/(2·mf + m) allows the adversary
// to defeat every broadcast protocol. The returned value is the largest
// safe-side integer, i.e. broadcast MAY fail for any t > BreakableT.
func BreakableT(m, mf, r int) int {
	return (m*r*(2*r+1) - 1) / (2*mf + m)
}

// TolerableT returns the Corollary 1 sufficient bound: any
// t <= (m·r(2r+1) − 2)/(4·mf + m) can be tolerated by some protocol
// (protocol B with the given budgets). Integer floor of the bound.
func TolerableT(m, mf, r int) int {
	return (m*r*(2*r+1) - 2) / (4*mf + m)
}

// SubBitLength returns L = 2·log₂n + log₂t + log₂mmax, the sub-bit
// sequence length of the Section 5 coding scheme, using integer ceilings.
// The result is at least 1.
func SubBitLength(n, t, mmax int) int {
	l := 2*stats.Log2Ceil(n) + stats.Log2Ceil(t) + stats.Log2Ceil(mmax)
	if l < 1 {
		l = 1
	}
	return l
}

// Theorem4Budget returns the Theorem 4 worst-case number of sub-bit slot
// transmissions a good node needs in protocol Breactive:
//
//	m = 2(t·mf+1) · (2·log n + log t + log mmax) · (k + 2·log k + 2).
func Theorem4Budget(n, t, mf, mmax, k int) int {
	return 2 * (t*mf + 1) * SubBitLength(n, t, mmax) * (k + 2*stats.Log2Ceil(k) + 2)
}
