package sim

import (
	"testing"

	"bftbcast/internal/adversary"
	"bftbcast/internal/core"
	"bftbcast/internal/grid"
)

// figure2Params are the exact parameters of the paper's Figure 2:
// r=4, t=1, mf=1000, so m0 = ceil(2001/35) = 58 and m = m0+1 = 59.
var figure2Params = core.Params{R: 4, T: 1, MF: 1000}

// TestFigure2Stall reproduces Figure 2 end to end: with m = m0+1 = 59 the
// broadcast reaches exactly the source's neighborhood plus the four gray
// nodes at (±(r+1),0),(0,±(r+1)) and then stalls, with the frontier node
// p = (r+1,1) pinned at threshold−1 correct copies.
func TestFigure2Stall(t *testing.T) {
	tor := grid.MustNew(45, 45, 4)
	p := figure2Params
	if p.M0() != 58 {
		t.Fatalf("m0 = %d, want 58", p.M0())
	}
	spec, err := core.NewFullBudget(p, p.M0()+1)
	if err != nil {
		t.Fatal(err)
	}
	src := tor.ID(0, 0)
	res := run(t, Config{
		Topo: tor, Params: p, Spec: spec, Source: src,
		Placement: adversary.Figure2Lattice(4),
		Strategy:  adversary.NewTargeted(adversary.Figure2Victims(tor)),
	})
	checkInvariants(t, res)
	if !res.Stalled {
		t.Fatalf("run did not stall: completed=%v decided=%d/%d",
			res.Completed, res.DecidedGood, res.TotalGood)
	}

	// The paper's decided set: the 81-node closed source neighborhood
	// contains one bad node (the lattice point at (4,-4)), so 80 good
	// nodes decide there, plus the 4 gray nodes.
	if res.DecidedGood != 84 {
		t.Fatalf("DecidedGood = %d, want 84", res.DecidedGood)
	}
	for _, g := range [][2]int{{5, 0}, {-5, 0}, {0, 5}, {0, -5}} {
		id := tor.ID(g[0], g[1])
		if !res.Decided[id] {
			t.Errorf("gray node (%d,%d) failed to decide", g[0], g[1])
		}
		// Each gray can receive (r(2r+1)-t)*m = 2065 copies; the paper
		// requires at least 2tmf+1 = 2001 to guarantee acceptance, and
		// collateral jamming must still leave >= threshold.
		if res.Correct[id] < int32(p.Threshold()) {
			t.Errorf("gray (%d,%d) decided with %d < threshold copies", g[0], g[1], res.Correct[id])
		}
	}

	// The example node p of the figure: 33 decided neighbors supply at
	// most 33*59 = 1947 copies, and the bad node in p's window denies
	// everything beyond threshold-1.
	pn := tor.ID(5, 1)
	if res.Decided[pn] {
		t.Fatal("p = (5,1) decided; the construction must block it")
	}
	if got, want := res.Correct[pn], int32(p.Threshold()-1); got != want {
		t.Errorf("p's correct copies = %d, want exactly threshold-1 = %d", got, want)
	}
	// Lemma 1 accounting: wrong copies at p never exceed t*mf.
	if res.Wrong[pn] > int32(p.T*p.MF) {
		t.Errorf("p received %d wrong copies > t*mf = %d", res.Wrong[pn], p.T*p.MF)
	}
}

// TestFigure2StallAtM0 repeats the construction at m = m0 = 58 exactly:
// the grays still clear the 2tmf+1 bar (35*58 = 2030 > 2001) and the
// frontier still starves, showing m >= m0 alone is not sufficient (the
// point of Figure 2).
func TestFigure2StallAtM0(t *testing.T) {
	tor := grid.MustNew(45, 45, 4)
	spec, err := core.NewFullBudget(figure2Params, figure2Params.M0())
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, Config{
		Topo: tor, Params: figure2Params, Spec: spec, Source: tor.ID(0, 0),
		Placement: adversary.Figure2Lattice(4),
		Strategy:  adversary.NewTargeted(adversary.Figure2Victims(tor)),
	})
	checkInvariants(t, res)
	if !res.Stalled || res.DecidedGood != 84 {
		t.Fatalf("m=m0 run: stalled=%v decided=%d, want stall at 84", res.Stalled, res.DecidedGood)
	}
}

// TestFigure2ProtocolBCompletes is the counterpart: with m = 2m0 (protocol
// B proper) the same placement and strategy cannot hold the frontier and
// broadcast completes (Theorem 2 at Figure 2's parameters).
func TestFigure2ProtocolBCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second full-budget run")
	}
	tor := grid.MustNew(45, 45, 4)
	spec, err := core.NewProtocolB(figure2Params)
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, Config{
		Topo: tor, Params: figure2Params, Spec: spec, Source: tor.ID(0, 0),
		Placement: adversary.Figure2Lattice(4),
		Strategy:  adversary.NewTargeted(adversary.Figure2Victims(tor)),
	})
	checkInvariants(t, res)
	if !res.Completed {
		t.Fatalf("protocol B failed at Figure 2 parameters: %d/%d decided",
			res.DecidedGood, res.TotalGood)
	}
}

// TestFigure2SupplierCounts verifies the static arithmetic of the figure
// caption directly from the placement geometry: the gray node (r+1,0) has
// r(2r+1)-t = 35 good suppliers in the decided square, giving
// 35*59 = 2065 > 2001 = 2tmf+1 potential copies, while p = (r+1,1) has
// only 33 decided good neighbors, giving 1947 potential copies of which
// the bad node can deny all but 1000 < 1001.
func TestFigure2SupplierCounts(t *testing.T) {
	tor := grid.MustNew(45, 45, 4)
	bad, err := adversary.Figure2Lattice(4).Place(tor, tor.ID(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	// decided = closed source neighborhood plus the four grays.
	decided := make([]bool, tor.Size())
	src := tor.ID(0, 0)
	decided[src] = true
	tor.ForEachNeighbor(src, func(nb grid.NodeID) { decided[nb] = true })
	grays := []grid.NodeID{tor.ID(5, 0), tor.ID(-5, 0), tor.ID(0, 5), tor.ID(0, -5)}

	countSuppliers := func(u grid.NodeID) int {
		n := 0
		tor.ForEachNeighbor(u, func(nb grid.NodeID) {
			if decided[nb] && !bad[nb] {
				n++
			}
		})
		return n
	}

	// Before the grays decide: each gray must be able to receive at
	// least 2tmf+1 copies.
	m := figure2Params.M0() + 1
	for _, g := range grays {
		suppliers := countSuppliers(g)
		if suppliers < 35 {
			x, y := tor.XY(g)
			t.Errorf("gray (%d,%d) has %d suppliers, want >= 35", x, y, suppliers)
		}
		if suppliers*m < figure2Params.SourceRepeats() {
			t.Errorf("gray potential %d < 2tmf+1 = %d", suppliers*m, figure2Params.SourceRepeats())
		}
	}

	// After the grays decide: p has exactly 33 suppliers, and
	// 33*59 - mf = 947 < 1001.
	for _, g := range grays {
		decided[g] = true
	}
	p := tor.ID(5, 1)
	suppliers := countSuppliers(p)
	if suppliers != 33 {
		t.Fatalf("p has %d suppliers, paper says 33", suppliers)
	}
	potential := suppliers * m
	if potential != 1947 {
		t.Fatalf("p's potential = %d, paper says 1947", potential)
	}
	if got := potential - figure2Params.MF; got != 947 {
		t.Fatalf("survivable copies = %d, paper says 947", got)
	}
	if potential-figure2Params.MF >= figure2Params.Threshold() {
		t.Fatal("p should not be able to reach the threshold")
	}
}
