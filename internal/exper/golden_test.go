package exper

// Seed-pinned golden-trace regression tests for E1 and E2. Each test
// replays the experiment's central simulation with an acceptance
// recorder attached and compares the JSONL event stream byte for byte
// against the committed trace under testdata/. Engine refactors that
// change ANY observable behavior — an acceptance happening one slot
// earlier, a different decided set, a different stall shape — fail
// loudly here even if the experiment's aggregate verdict still passes.
//
// Regenerate after an intentional behavior change with:
//
//	go test ./internal/exper -run TestGoldenTrace -update-golden

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"bftbcast"
	"bftbcast/internal/adversary"
	"bftbcast/internal/core"
	"bftbcast/internal/grid"
	"bftbcast/internal/radio"
	"bftbcast/internal/sim"
	"bftbcast/internal/trace"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden files under testdata/")

// goldenE1Config is the E1 run traced: the stripe construction at the
// impossibility boundary m = m0 − 4, the sweep's canonical failing point
// (see runStripe).
func goldenE1Config(t *testing.T) sim.Config {
	t.Helper()
	p := e1Params
	tor, err := grid.New(20, 20, p.R)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := core.NewFullBudget(p, p.M0()-4)
	if err != nil {
		t.Fatal(err)
	}
	sw := adversary.Sandwich{YLow: 7, YHigh: 13, T: p.T}
	return sim.Config{
		Topo: tor, Params: p, Spec: spec, Source: tor.ID(0, 0),
		Placement: sw,
		Strategy:  adversary.NewTargeted(sw.VictimBand(tor)),
	}
}

// goldenE2Config is the exact Figure 2 run of E2 (r=4, t=1, mf=1000,
// m=m0+1): the 84-node stall.
func goldenE2Config(t *testing.T) sim.Config {
	t.Helper()
	p := core.Params{R: 4, T: 1, MF: 1000}
	tor, err := grid.New(45, 45, 4)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := core.NewFullBudget(p, p.M0()+1)
	if err != nil {
		t.Fatal(err)
	}
	return sim.Config{
		Topo: tor, Params: p, Spec: spec, Source: tor.ID(0, 0),
		Placement: adversary.Figure2Lattice(4),
		Strategy:  adversary.NewTargeted(adversary.Figure2Victims(tor)),
	}
}

// recordTrace runs cfg with a JSONL recorder on every acceptance and a
// terminal done/stall event carrying the final decided count.
func recordTrace(t *testing.T, cfg sim.Config) []byte {
	t.Helper()
	var buf bytes.Buffer
	rec := trace.NewJSONL(&buf)
	cfg.OnAccept = func(slot int, id grid.NodeID, v radio.Value) {
		if err := rec.Record(trace.Event{Slot: slot, Node: int32(id), Kind: trace.KindAccept, Value: int32(v)}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	kind := trace.KindDone
	if res.Stalled {
		kind = trace.KindStall
	}
	if err := rec.Record(trace.Event{Slot: res.Slots, Kind: kind, Value: int32(res.DecidedGood)}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update-golden): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	// Point at the first diverging line to make the failure actionable.
	gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Fatalf("output diverges from %s at line %d:\n got: %s\nwant: %s",
				path, i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("output length differs from %s: got %d lines, want %d lines%s",
		path, len(gotLines), len(wantLines),
		fmt.Sprintf(" (first extra: %.120s)", firstExtra(gotLines, wantLines)))
}

func firstExtra(got, want [][]byte) []byte {
	if len(got) > len(want) {
		return got[len(want)]
	}
	return want[len(got)]
}

func TestGoldenTraceE1(t *testing.T) {
	checkGolden(t, "e1_trace.jsonl", recordTrace(t, goldenE1Config(t)))
}

func TestGoldenTraceE2(t *testing.T) {
	checkGolden(t, "e2_trace.jsonl", recordTrace(t, goldenE2Config(t)))
}

// recordObserverTrace replays cfg through the public Scenario/Engine
// API with a bftbcast.TraceObserver attached: the facade's streaming
// hook path must reproduce the checked-in traces of the hand-rolled
// OnAccept tracer byte for byte.
func recordObserverTrace(t *testing.T, cfg sim.Config) []byte {
	t.Helper()
	var buf bytes.Buffer
	obs := bftbcast.NewTraceObserver(&buf)
	sc, err := bftbcast.NewScenario(
		bftbcast.WithTopology(cfg.Topo),
		bftbcast.WithParams(cfg.Params),
		bftbcast.WithSpec(cfg.Spec),
		bftbcast.WithSource(cfg.Source),
		bftbcast.WithAdversary(cfg.Placement, cfg.Strategy),
		bftbcast.WithObserver(obs),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := bftbcast.EngineFast.Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.Finish(rep); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The Observer variants never regenerate the goldens (-update-golden is
// handled by the OnAccept tests above); they prove the public hook API
// reproduces the same bytes.
func TestGoldenTraceE1Observer(t *testing.T) {
	if *updateGolden {
		t.Skip("goldens regenerated by TestGoldenTraceE1")
	}
	checkGolden(t, "e1_trace.jsonl", recordObserverTrace(t, goldenE1Config(t)))
}

func TestGoldenTraceE2Observer(t *testing.T) {
	if *updateGolden {
		t.Skip("goldens regenerated by TestGoldenTraceE2")
	}
	checkGolden(t, "e2_trace.jsonl", recordObserverTrace(t, goldenE2Config(t)))
}
