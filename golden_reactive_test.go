package bftbcast_test

// Seed-pinned golden-trace regression test for the reactive protocol,
// through the Observer path on the fast engine. The trace pins the
// Section 5 machine's observable behavior on the shared engine stack:
// local broadcasts proceed concurrently in TDMA slot order, so every
// acceptance carries a slot timestamp (DESIGN.md §10). Any engine or
// machine refactor that shifts an acceptance by one slot fails here
// byte for byte.
//
// Regenerate after an intentional behavior change with:
//
//	go test -run TestGoldenReactiveTrace -update-reactive-golden .

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"bftbcast"
)

var updateReactiveGolden = flag.Bool("update-reactive-golden", false,
	"rewrite the golden reactive trace under testdata/")

// goldenReactiveScenario is the pinned run: a 15×15 torus, t=1, mf=3,
// random placement, the disruption policy — the cancelScenario shape at
// a fixed seed.
func goldenReactiveScenario(t *testing.T, obs bftbcast.Observer) *bftbcast.Scenario {
	t.Helper()
	tor, err := bftbcast.NewTorus(15, 15, 2)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := bftbcast.NewScenario(
		bftbcast.WithTopology(tor),
		bftbcast.WithParams(bftbcast.Params{R: 2, T: 1, MF: 3}),
		bftbcast.WithProtocol(bftbcast.ProtocolReactive),
		bftbcast.WithReactive(bftbcast.ReactiveSpec{Policy: bftbcast.PolicyDisrupt}),
		bftbcast.WithPlacement(bftbcast.RandomPlacement{T: 1, Density: 0.06, Seed: 5}),
		bftbcast.WithSeed(9),
		bftbcast.WithObserver(obs),
	)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestGoldenReactiveTrace(t *testing.T) {
	var buf bytes.Buffer
	tracer := bftbcast.NewTraceObserver(&buf)
	rep, err := bftbcast.EngineFast.Run(context.Background(), goldenReactiveScenario(t, tracer))
	if err != nil {
		t.Fatal(err)
	}
	if err := tracer.Finish(rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Completed || rep.WrongDecisions != 0 {
		t.Fatalf("golden run must complete cleanly: %+v", rep)
	}

	path := filepath.Join("testdata", "reactive_trace.jsonl")
	if *updateReactiveGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d events)", path, bytes.Count(buf.Bytes(), []byte("\n")))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden trace (regenerate with -update-reactive-golden): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("reactive trace diverged from %s (%d events; regenerate with -update-reactive-golden if intentional)",
			path, bytes.Count(buf.Bytes(), []byte("\n")))
	}
}
