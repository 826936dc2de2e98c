package exper

// Seed-pinned golden-trace regression tests for E1 and E2. Each test
// replays the experiment's central Scenario through the public
// Scenario/Engine API with a bftbcast.TraceObserver attached and
// compares the JSONL acceptance stream byte for byte against the
// committed trace under testdata/. Engine refactors that change ANY
// observable behavior — an acceptance happening one slot earlier, a
// different decided set, a different stall shape — fail loudly here even
// if the experiment's aggregate verdict still passes. The facade lowers
// Observer.Decide onto the engines' acceptance hook, so these traces pin
// that hook too, on both the lightest slot bodies and the full one.
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
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden files under testdata/")

// recordTrace builds a Scenario and runs it on the fast engine with a
// TraceObserver attached: one line per acceptance and a terminal
// done/stall line carrying the final decided count. The tracer watches
// decisions alone, so the run takes the engine's lightest slot bodies;
// the trace is taken again with a no-op Deliver watcher beside it, which
// resolves every slot in full, and the two must be byte-equal.
func recordTrace(t *testing.T, build func() (*bftbcast.Scenario, error)) []byte {
	t.Helper()
	var traces [2][]byte
	for i := range traces {
		sc, err := build()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		tracer := bftbcast.NewTraceObserver(&buf)
		var obs bftbcast.Observer = tracer
		if i == 1 {
			obs = deliverWatcher{tracer}
		}
		if sc, err = sc.With(bftbcast.WithObserver(obs)); err != nil {
			t.Fatal(err)
		}
		rep, err := bftbcast.EngineFast.Run(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
		if err := tracer.Finish(rep); err != nil {
			t.Fatal(err)
		}
		traces[i] = buf.Bytes()
	}
	if !bytes.Equal(traces[0], traces[1]) {
		t.Fatalf("the trace differs when every slot resolves in full:\n decide-only %d bytes\n full body   %d bytes", len(traces[0]), len(traces[1]))
	}
	return traces[0]
}

// deliverWatcher adds a no-op Deliver watcher to an Observer, which
// turns the fast engine's frontier, retired and booked slot bodies off.
type deliverWatcher struct{ bftbcast.Observer }

func (deliverWatcher) Deliver(int, bftbcast.NodeID, bftbcast.NodeID, bftbcast.Value) {}

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

// TestGoldenTraceE1Observer traces E1 at the impossibility boundary
// m = m0 − 4, the sweep's canonical failing point.
func TestGoldenTraceE1Observer(t *testing.T) {
	checkGolden(t, "e1_trace.jsonl", recordTrace(t, func() (*bftbcast.Scenario, error) {
		return stripeScenario(e1Params, e1Params.M0()-4, true)
	}))
}

// TestGoldenTraceE2Observer traces the Figure 2 run of E2 and E9: the
// 84-node stall.
func TestGoldenTraceE2Observer(t *testing.T) {
	checkGolden(t, "e2_trace.jsonl", recordTrace(t, figure2Scenario))
}
