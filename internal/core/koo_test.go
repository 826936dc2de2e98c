package core_test

import (
	"context"
	"testing"

	"bftbcast/internal/adversary"
	"bftbcast/internal/core"
	"bftbcast/internal/grid"
	"bftbcast/internal/sim"
)

func TestNewKooBaselineNumbers(t *testing.T) {
	p := core.Params{R: 4, T: 1, MF: 1000}
	spec, err := core.NewKooBaseline(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := spec.Sends(0); got != 2001 {
		t.Fatalf("Sends = %d, want 2tmf+1 = 2001", got)
	}
	if spec.Threshold != 1001 || spec.SourceRepeats != 2001 {
		t.Fatalf("spec = %+v", spec)
	}
}

func TestNewKooBaselineRejectsBadParams(t *testing.T) {
	if _, err := core.NewKooBaseline(core.Params{R: 0}); err == nil {
		t.Fatal("invalid params accepted")
	}
}

func TestKooBaselineCompletesUnderAttack(t *testing.T) {
	// The baseline is message-hungry but correct: it completes under the
	// same adversary protocol B handles.
	tor := grid.MustNew(20, 20, 2)
	p := core.Params{R: 2, T: 3, MF: 2}
	spec, err := core.NewKooBaseline(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunContext(context.Background(), sim.Config{
		Topo: tor, Params: p, Spec: spec, Source: tor.ID(0, 0),
		Placement: adversary.Random{T: 3, Density: 0.1, Seed: 3},
		Strategy:  adversary.NewCorruptor(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.WrongDecisions != 0 {
		t.Fatalf("baseline failed: %+v", res)
	}
	// Message cost comparison (the paper's headline): baseline relays
	// 2tmf+1 = 13 per node vs protocol B's m' = 4.
	bspec, err := core.NewProtocolB(p)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Sends(0) <= bspec.Sends(0) {
		t.Fatal("baseline should cost more than protocol B")
	}
	wantRatio := float64(p.G()) / 2
	ratio := float64(spec.Sends(0)) / float64(bspec.Sends(0))
	if ratio < wantRatio*0.8 {
		t.Fatalf("cost ratio %.2f too far below g/2 = %.2f", ratio, wantRatio)
	}
}
