package bftbcast_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"bftbcast"
)

// TestGridSpecDecodeValidate pins the decoder's typed-error contract:
// malformed documents are rejected with ErrBadSpec at decode time, and
// scenario-level contradictions surface the scenario's typed error too.
func TestGridSpecDecodeValidate(t *testing.T) {
	good := []byte(`{
		"base": {"topology": {"Kind": "torus", "W": 15, "H": 15, "R": 2}, "t": 1, "mf": 2,
		          "adversary": "random", "density": 0.1, "seed": 7},
		"seeds": 3, "mf": [1, 2]
	}`)
	g, err := bftbcast.DecodeGridSpec(good)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.NPoints(); got != 6 {
		t.Fatalf("NPoints = %d, want 6 (3 seeds x 2 mf)", got)
	}

	bad := []struct {
		name string
		doc  string
		want error
	}{
		{"not json", `{`, bftbcast.ErrBadSpec},
		{"unknown field", `{"base": {"topology": {"Kind": "torus", "W": 15, "H": 15, "R": 2}}, "densty": [0.1]}`, bftbcast.ErrBadSpec},
		{"unknown topology", `{"base": {"topology": {"Kind": "hypercube"}}}`, bftbcast.ErrBadSpec},
		{"unknown protocol", `{"base": {"topology": {"Kind": "torus", "W": 15, "H": 15, "R": 2}, "protocol": "warp"}}`, bftbcast.ErrBadSpec},
		{"unknown adversary", `{"base": {"topology": {"Kind": "torus", "W": 15, "H": 15, "R": 2}, "adversary": "stripe"}}`, bftbcast.ErrBadSpec},
		{"unknown policy", `{"base": {"topology": {"Kind": "torus", "W": 15, "H": 15, "R": 2}, "protocol": "reactive", "policy": "nuke"}}`, bftbcast.ErrBadSpec},
		{"full without m", `{"base": {"topology": {"Kind": "torus", "W": 15, "H": 15, "R": 2}, "protocol": "full"}}`, bftbcast.ErrBadSpec},
		{"bheter off torus", `{"base": {"topology": {"Kind": "rgg", "Nodes": 100, "Seed": 1}, "t": 1, "protocol": "bheter"}}`, bftbcast.ErrBadSpec},
		{"negative seeds", `{"base": {"topology": {"Kind": "torus", "W": 15, "H": 15, "R": 2}}, "seeds": -1}`, bftbcast.ErrBadSpec},
		{"negative mf axis", `{"base": {"topology": {"Kind": "torus", "W": 15, "H": 15, "R": 2}, "t": 1}, "mf": [-3]}`, bftbcast.ErrBadParams},
		{"t axis too large", `{"base": {"topology": {"Kind": "torus", "W": 15, "H": 15, "R": 2}, "mf": 1}, "t": [99]}`, bftbcast.ErrBadParams},
		{"reactive x broadcasts", `{"base": {"topology": {"Kind": "torus", "W": 15, "H": 15, "R": 2}, "t": 1, "mf": 2, "protocol": "reactive"}, "broadcasts": [4]}`, bftbcast.ErrBadBroadcasts},
		// Corners the reactive protocol cannot run (r = 2: t at most 4),
		// refused at decode time and not at the first such point.
		{"reactive t axis above the certified-propagation threshold", `{"base": {"topology": {"Kind": "torus", "W": 15, "H": 15, "R": 2}, "mf": 2, "protocol": "reactive"}, "t": [1, 2, 3, 4, 5]}`, bftbcast.ErrBadParams},
		{"reactive mmax below mf", `{"base": {"topology": {"Kind": "torus", "W": 15, "H": 15, "R": 2}, "t": 1, "mf": 100, "mmax": 10, "protocol": "reactive"}}`, bftbcast.ErrBadParams},
		{"reactive negative payload", `{"base": {"topology": {"Kind": "torus", "W": 15, "H": 15, "R": 2}, "t": 1, "mf": 2, "payload_bits": -3, "protocol": "reactive"}}`, bftbcast.ErrBadParams},
		// Small bodies that used to be accepted and then exhausted the
		// daemon's memory at the first range: the torus in its adjacency,
		// the seeds in the replica-seed slice.
		{"torus beyond the node bound", `{"base": {"topology": {"Kind": "torus", "W": 3000000, "H": 3000000, "R": 1}, "t": 1, "mf": 1}}`, bftbcast.ErrBadSpec},
		{"seeds beyond the point bound", `{"base": {"topology": {"Kind": "torus", "W": 15, "H": 15, "R": 2}, "t": 1, "mf": 1}, "seeds": 100000000000}`, bftbcast.ErrBadSpec},
	}
	for _, tc := range bad {
		_, err := bftbcast.DecodeGridSpec([]byte(tc.doc))
		if !errors.Is(err, tc.want) || !errors.Is(err, bftbcast.ErrBadSpec) {
			t.Errorf("%s: error = %v, want errors.Is(%v) and ErrBadSpec", tc.name, err, tc.want)
		}
	}
}

// TestGridSpecRoundTrip requires Encode/Decode be lossless.
func TestGridSpecRoundTrip(t *testing.T) {
	g := &bftbcast.GridSpec{
		Base: bftbcast.ScenarioSpec{
			Topology: bftbcast.TopologySpec{Kind: "grid", W: 16, H: 16, R: 2},
			T:        1, MF: 2, Protocol: "koo", Adversary: "random", Density: 0.08, Seed: 42,
		},
		Seeds: 4,
		T:     []int{1, 2},
	}
	data, err := g.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := bftbcast.DecodeGridSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g, back) {
		t.Fatalf("round trip changed the spec:\n%+v\nvs\n%+v", g, back)
	}
}

// TestGridSpecExpansion pins the deterministic expansion contract: the
// point order is fixed, replica 0 keeps the base seed, replicas get
// distinct derived seeds that also drive the adversary placement, all
// points share one topology, and re-expanding yields identical points.
func TestGridSpecExpansion(t *testing.T) {
	doc := []byte(`{
		"base": {"topology": {"Kind": "torus", "W": 15, "H": 15, "R": 2}, "t": 1, "mf": 2,
		          "adversary": "random", "density": 0.1, "seed": 9},
		"seeds": 3, "mf": [2, 5]
	}`)
	g, err := bftbcast.DecodeGridSpec(doc)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := g.Scenarios(0, g.NPoints())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != g.NPoints() || len(pts) != 6 {
		t.Fatalf("expanded %d points, want %d", len(pts), g.NPoints())
	}
	if pts[0].Seed != 9 {
		t.Fatalf("replica 0 seed = %d, want the base seed 9", pts[0].Seed)
	}
	// Fixed order: seeds outermost, MF innermost.
	if pts[0].Params.MF != 2 || pts[1].Params.MF != 5 {
		t.Fatalf("axis order: got MF %d, %d, want 2, 5", pts[0].Params.MF, pts[1].Params.MF)
	}
	if pts[0].Seed == pts[2].Seed || pts[2].Seed == pts[4].Seed {
		t.Fatal("replica seeds are not distinct")
	}
	if pts[2].Seed != pts[3].Seed {
		t.Fatal("points of one replica must share its derived seed")
	}
	for i, pt := range pts {
		if pt.Topo != pts[0].Topo {
			t.Fatalf("point %d does not share the grid's topology instance", i)
		}
		placement, ok := pt.Placement.(bftbcast.RandomPlacement)
		if !ok {
			t.Fatalf("point %d placement %T, want RandomPlacement", i, pt.Placement)
		}
		if placement.Seed != pt.Seed {
			t.Fatalf("point %d placement seed %d != scenario seed %d", i, placement.Seed, pt.Seed)
		}
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Strategy == pts[i-1].Strategy {
			t.Fatalf("points %d and %d share a strategy; strategies are single-run", i-1, i)
		}
	}

	again, err := g.Scenarios(0, g.NPoints())
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		if pts[i].Seed != again[i].Seed || pts[i].Params != again[i].Params {
			t.Fatalf("re-expansion diverged at point %d", i)
		}
	}
}

// TestGridSpecRunsDeterministically runs a small expanded grid through a
// Sweep twice and requires identical reports — the idempotence that
// makes checkpointed points safe to skip on resume.
func TestGridSpecRunsDeterministically(t *testing.T) {
	doc := []byte(`{
		"base": {"topology": {"Kind": "torus", "W": 15, "H": 15, "R": 2}, "t": 1, "mf": 2,
		          "adversary": "random", "density": 0.08, "seed": 3},
		"seeds": 2, "t": [1, 2]
	}`)
	g, err := bftbcast.DecodeGridSpec(doc)
	if err != nil {
		t.Fatal(err)
	}
	run := func() []bftbcast.SweepPoint {
		scenarios, err := g.Scenarios(0, g.NPoints())
		if err != nil {
			t.Fatal(err)
		}
		pts, err := (&bftbcast.Sweep{Workers: 2, Scenarios: scenarios}).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
	a, b := run(), run()
	for i := range a {
		if !reflect.DeepEqual(a[i].Report, b[i].Report) {
			t.Fatalf("point %d not reproducible across expansions", i)
		}
	}
}

// TestScenarioSpecReactive checks the reactive leg of the codec builds
// a runnable scenario (placement without strategy, policy resolved).
func TestScenarioSpecReactive(t *testing.T) {
	spec := &bftbcast.ScenarioSpec{
		Topology: bftbcast.TopologySpec{Kind: "torus", W: 15, H: 15, R: 2},
		T:        1, MF: 3, Protocol: "reactive", Policy: "forge",
		Adversary: "random", Density: 0.05, Seed: 2,
	}
	sc, err := spec.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if sc.Protocol != bftbcast.ProtocolReactive || sc.Strategy != nil {
		t.Fatalf("reactive scenario misbuilt: protocol %q, strategy %v", sc.Protocol, sc.Strategy)
	}
	rep, err := bftbcast.EngineFast.Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reactive == nil {
		t.Fatal("reactive run lost its Report extension")
	}
}

// TestScenariosRange pins the range-expansion contract the sharded
// lease protocol leans on: Scenarios(lo, hi) equals the [lo, hi) slice
// of the full expansion for every cut, range expansion on a shared
// topology reuses that topology across calls, and out-of-range windows
// are rejected with the typed spec error.
func TestScenariosRange(t *testing.T) {
	doc := []byte(`{
		"base": {"topology": {"Kind": "torus", "W": 15, "H": 15, "R": 2}, "t": 1, "mf": 2,
		          "adversary": "random", "density": 0.1, "seed": 13},
		"seeds": 3, "t": [1, 2], "mf": [2, 4]
	}`)
	g, err := bftbcast.DecodeGridSpec(doc)
	if err != nil {
		t.Fatal(err)
	}
	total := g.NPoints() // 12
	full, err := g.Scenarios(0, total)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != total {
		t.Fatalf("full expansion has %d points, want %d", len(full), total)
	}
	tp, err := bftbcast.NewTopology(g.Base.Topology)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo <= total; lo++ {
		for hi := lo; hi <= total; hi++ {
			window, err := g.ScenariosOn(tp, lo, hi)
			if err != nil {
				t.Fatalf("ScenariosOn(%d, %d): %v", lo, hi, err)
			}
			if len(window) != hi-lo {
				t.Fatalf("ScenariosOn(%d, %d) built %d points", lo, hi, len(window))
			}
			for i, sc := range window {
				want := full[lo+i]
				if sc.Seed != want.Seed || sc.Params != want.Params || sc.Broadcasts != want.Broadcasts {
					t.Fatalf("window [%d,%d) point %d diverges from full expansion: seed %d/%d params %+v/%+v",
						lo, hi, i, sc.Seed, want.Seed, sc.Params, want.Params)
				}
				if sc.Topo != tp {
					t.Fatalf("window point %d does not share the provided topology", i)
				}
			}
		}
	}
	for _, bad := range [][2]int{{-1, 2}, {0, total + 1}, {5, 4}} {
		if _, err := g.Scenarios(bad[0], bad[1]); !errors.Is(err, bftbcast.ErrBadSpec) {
			t.Fatalf("Scenarios(%d, %d): err = %v, want ErrBadSpec", bad[0], bad[1], err)
		}
	}
}

// TestScenarioSpecTorusConstructions covers the two adversary names that
// are the paper's torus constructions: accepted on a torus, rejected
// with ErrBadSpec on every other topology and with the policy-driven
// reactive protocol, lossless through the grid codec, and — for figure2
// at the paper's parameters — the same 84-node stall the engine-level
// TestFigure2Stall reproduces from hand-built parts.
func TestScenarioSpecTorusConstructions(t *testing.T) {
	torus := bftbcast.TopologySpec{Kind: "torus", W: 20, H: 20, R: 2}
	for _, adv := range []string{"sandwich", "figure2"} {
		ok := &bftbcast.ScenarioSpec{Topology: torus, T: 1, MF: 2, Adversary: adv}
		sc, err := ok.Scenario()
		if err != nil {
			t.Fatalf("%s on a torus: %v", adv, err)
		}
		if sc.Placement == nil || sc.Strategy == nil || sc.Strategy.Name() != "targeted" {
			t.Fatalf("%s: placement %v, strategy %v, want a placement with the targeted strategy", adv, sc.Placement, sc.Strategy)
		}
		rejected := map[string]*bftbcast.ScenarioSpec{
			"grid":     {Topology: bftbcast.TopologySpec{Kind: "grid", W: 20, H: 20, R: 2}, T: 1, MF: 2, Adversary: adv},
			"rgg":      {Topology: bftbcast.TopologySpec{Kind: "rgg", Nodes: 100, Seed: 1}, T: 1, MF: 2, Adversary: adv},
			"reactive": {Topology: torus, T: 1, MF: 2, Adversary: adv, Protocol: "reactive"},
		}
		for name, spec := range rejected {
			if _, err := spec.Scenario(); !errors.Is(err, bftbcast.ErrBadSpec) {
				t.Errorf("%s with %s: err = %v, want ErrBadSpec", adv, name, err)
			}
		}

		g := &bftbcast.GridSpec{Base: *ok, Seeds: 2, T: []int{1, 2}}
		data, err := g.Encode()
		if err != nil {
			t.Fatal(err)
		}
		back, err := bftbcast.DecodeGridSpec(data)
		if err != nil {
			t.Fatalf("%s grid did not decode: %v", adv, err)
		}
		if !reflect.DeepEqual(g, back) {
			t.Fatalf("%s grid changed in the round trip:\n%+v\nvs\n%+v", adv, g, back)
		}
	}

	// Figure 2 as a document: r=4, t=1, mf=1000, every node spending
	// m = m0+1 = 59.
	fig := &bftbcast.ScenarioSpec{
		Topology: bftbcast.TopologySpec{Kind: "torus", W: 45, H: 45, R: 4},
		T:        1, MF: 1000, Protocol: "full", M: bftbcast.M0(4, 1, 1000) + 1, Adversary: "figure2",
	}
	sc, err := fig.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := bftbcast.EngineFast.Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Stalled || rep.DecidedGood != 84 || rep.WrongDecisions != 0 {
		t.Fatalf("figure2 spec: stalled=%v decided=%d wrong=%d, want the 84-node stall",
			rep.Stalled, rep.DecidedGood, rep.WrongDecisions)
	}
	tor := sc.Topo.(*bftbcast.Torus)
	p := tor.ID(5, 1) // the figure's example node, held one copy short
	if rep.Decided[p] || rep.Sim.Correct[p] != int32(sc.Params.Threshold()-1) {
		t.Fatalf("p=(5,1): decided=%v correct=%d, want undecided at threshold-1=%d",
			rep.Decided[p], rep.Sim.Correct[p], sc.Params.Threshold()-1)
	}
}
