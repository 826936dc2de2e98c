package protocol_test

import (
	"testing"

	"bftbcast/internal/grid"
	"bftbcast/internal/protocol"
	"bftbcast/internal/radio"
)

// certified builds the certified-propagation acceptance the reactive
// machine attaches: t+1 distinct in-window relayers, source direct.
func certified(tb testing.TB, tor *grid.Torus, t int) *protocol.Acceptance {
	tb.Helper()
	acc, err := protocol.NewAcceptance(protocol.AcceptConfig{
		Topo: tor, Source: 0, Threshold: t + 1, Distinct: true, SourceDirect: true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return acc
}

// TestDeliverAllocs guards the flat relay storage: a duplicate relay —
// every retransmission round of the reactive machine delivers one per
// receiver — must not allocate at all.
func TestDeliverAllocs(t *testing.T) {
	tor := grid.MustNew(15, 15, 2)
	acc := certified(t, tor, 2)
	to := tor.ID(7, 7)
	from := tor.ID(7, 8)
	if acc.Deliver(to, from, radio.ValueTrue) {
		t.Fatal("single relay must not certify with t=2")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if acc.Deliver(to, from, radio.ValueTrue) {
			t.Fatal("duplicate relay must not certify")
		}
	}); allocs != 0 {
		t.Fatalf("duplicate Deliver allocated %.1f times per call, want 0", allocs)
	}
}
