package protocol

import "fmt"

// AttackPolicy selects how the reactive adversary's bad nodes spend
// their (unknown to the protocol) budget.
type AttackPolicy int

// Attack policies.
const (
	// PolicyDisrupt flips a silent sub-slot in every data round within
	// range until the budget runs out, forcing detection and
	// retransmission — the worst case for message cost.
	PolicyDisrupt AttackPolicy = iota + 1
	// PolicyForge attempts a random-guess cancellation of a 1-bit each
	// round: success (probability ≈ 2^-L) plants an undetected wrong
	// value, failure is detected like a disruption.
	PolicyForge
	// PolicyNackSpam spends the budget broadcasting fake NACKs, forcing
	// pointless retransmissions without touching payloads.
	PolicyNackSpam
	// PolicyMixed rotates the payload attack through
	// disrupt/forge/nackspam keyed on attacks spent so far, while ALSO
	// spamming a NACK every round it can — so an attacked round may
	// spend two budget units, and because the spam spend advances the
	// same rotation, runs with ample budget mostly interleave
	// disruption and spam (forging lands only when a spend fails at
	// budget exhaustion). Use PolicyForge for a forgery-focused
	// adversary.
	PolicyMixed
)

// String implements fmt.Stringer.
func (p AttackPolicy) String() string {
	switch p {
	case PolicyDisrupt:
		return "disrupt"
	case PolicyForge:
		return "forge"
	case PolicyNackSpam:
		return "nackspam"
	case PolicyMixed:
		return "mixed"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}
