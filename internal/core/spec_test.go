package core

import (
	"strings"
	"testing"

	"bftbcast/internal/grid"
)

func TestNewProtocolB(t *testing.T) {
	p := Params{R: 4, T: 1, MF: 1000}
	spec, err := NewProtocolB(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if spec.SourceRepeats != 2001 || spec.Threshold != 1001 {
		t.Fatalf("spec = %+v", spec)
	}
	if got := spec.Sends(0); got != 112 {
		t.Fatalf("Sends = %d, want 112", got)
	}
	if got := spec.Budget(0); got != 116 {
		t.Fatalf("Budget = %d, want 116", got)
	}
	if spec.Sends(0) > spec.Budget(0) {
		t.Fatal("protocol sends more than its budget")
	}
}

func TestNewProtocolBRejectsBadParams(t *testing.T) {
	if _, err := NewProtocolB(Params{R: 0, T: 0, MF: 1}); err == nil {
		t.Fatal("invalid params accepted")
	}
}

func TestNewBheterBudgetMap(t *testing.T) {
	p := Params{R: 2, T: 2, MF: 10}
	tor := grid.MustNew(20, 20, 2)
	cross := grid.Cross{Center: tor.ID(0, 0), HalfWidth: 2}
	spec, err := NewBheter(p, tor, cross)
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	inCross := tor.ID(7, 1)  // on the horizontal arm
	offCross := tor.ID(7, 7) // far from both axes
	if got := spec.Sends(inCross); got != p.RelaySends() {
		t.Fatalf("cross node sends %d, want m'=%d", got, p.RelaySends())
	}
	if got := spec.Sends(offCross); got != p.M0() {
		t.Fatalf("non-cross node sends %d, want m0=%d", got, p.M0())
	}
}

func TestNewBheterRequiresTorus(t *testing.T) {
	if _, err := NewBheter(Params{R: 2, T: 1, MF: 1}, nil, grid.Cross{}); err == nil {
		t.Fatal("nil torus accepted")
	}
}

func TestAverageBudgetBheterBelowHomogeneous(t *testing.T) {
	// Theorem 3's point: Bheter's average budget is much lower than 2m0.
	p := Params{R: 2, T: 2, MF: 50}
	tor := grid.MustNew(40, 40, 2)
	cross := grid.Cross{Center: tor.ID(0, 0), HalfWidth: 2}
	heter, err := NewBheter(p, tor, cross)
	if err != nil {
		t.Fatal(err)
	}
	homog, err := NewProtocolB(p)
	if err != nil {
		t.Fatal(err)
	}
	src := tor.ID(0, 0)
	ha := heter.AverageBudget(tor, src)
	ba := homog.AverageBudget(tor, src)
	if ha >= ba {
		t.Fatalf("heterogeneous average %v not below homogeneous %v", ha, ba)
	}
	if ha < float64(p.M0()) {
		t.Fatalf("heterogeneous average %v below m0=%d", ha, p.M0())
	}
}

func TestNewFullBudget(t *testing.T) {
	p := Params{R: 2, T: 1, MF: 5}
	spec, err := NewFullBudget(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Sends(0) != 3 || spec.Budget(0) != 3 {
		t.Fatalf("spec = %+v", spec)
	}
	if !strings.Contains(spec.Name, "m=3") {
		t.Fatalf("name %q should mention the budget", spec.Name)
	}
	if _, err := NewFullBudget(p, 0); err == nil {
		t.Fatal("m=0 accepted")
	}
}

// TestConstSends: the shared funcs and the closures above the table
// return their constant, and a constant inside the table allocates
// nothing.
func TestConstSends(t *testing.T) {
	for _, n := range []int{0, 1, 17, len(constFuncs) - 1, len(constFuncs), 1000} {
		if got := constSends(n)(grid.NodeID(3)); got != n {
			t.Errorf("constSends(%d) returned %d", n, got)
		}
	}
	if a := testing.AllocsPerRun(10, func() { constSends(9) }); a != 0 {
		t.Errorf("constSends(9) allocates %.0f times, want 0", a)
	}
}

func TestSpecValidate(t *testing.T) {
	ok := Spec{Name: "x", SourceRepeats: 1, Threshold: 1,
		Sends: constSends(1), Budget: constSends(1)}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Spec{
		{},
		{Name: "x", SourceRepeats: 0, Threshold: 1, Sends: constSends(1), Budget: constSends(1)},
		{Name: "x", SourceRepeats: 1, Threshold: 0, Sends: constSends(1), Budget: constSends(1)},
		{Name: "x", SourceRepeats: 1, Threshold: 1},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid spec accepted", i)
		}
	}
}
