package protocol

import "testing"

func TestPolicyString(t *testing.T) {
	for p, want := range map[AttackPolicy]string{
		PolicyDisrupt:    "disrupt",
		PolicyForge:      "forge",
		PolicyNackSpam:   "nackspam",
		PolicyMixed:      "mixed",
		AttackPolicy(99): "policy(99)",
	} {
		if got := p.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", int(p), got, want)
		}
	}
}
