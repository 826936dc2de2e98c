package exper

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"bftbcast/internal/pool"
	"bftbcast/internal/sim"
	"bftbcast/internal/sim/simtest"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 12 {
		t.Fatalf("registry has %d experiments, want 12", len(all))
	}
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12"}
	for i, id := range want {
		if all[i].ID != id {
			t.Fatalf("All()[%d] = %s, want %s", i, all[i].ID, id)
		}
		if _, ok := ByID(id); !ok {
			t.Fatalf("ByID(%s) missing", id)
		}
	}
	if _, ok := ByID("E99"); ok {
		t.Fatal("ByID(E99) should not exist")
	}
}

// TestAllExperimentsPassQuick runs the whole suite in quick mode: every
// experiment must reproduce its paper claim's shape.
func TestAllExperimentsPassQuick(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			out, err := e.Run(Options{Quick: true, Seed: 42})
			if err != nil {
				t.Fatalf("%s errored: %v", e.ID, err)
			}
			var buf bytes.Buffer
			if _, err := out.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			if !out.Passed {
				t.Fatalf("%s failed:\n%s", e.ID, buf.String())
			}
			if len(out.Tables) == 0 {
				t.Fatalf("%s produced no tables", e.ID)
			}
			if !strings.Contains(buf.String(), e.ID+":") {
				t.Fatalf("%s output missing header:\n%s", e.ID, buf.String())
			}
		})
	}
}

func TestOutcomeRendering(t *testing.T) {
	o := &Outcome{ID: "EX", Title: "demo", Passed: true}
	o.note("hello %d", 7)
	var buf bytes.Buffer
	if _, err := o.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{"EX: demo [ok]", "note: hello 7"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in:\n%s", want, s)
		}
	}
	o.fail("boom %s", "x")
	buf.Reset()
	if _, err := o.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "[FAILED]") || !strings.Contains(buf.String(), "FAIL: boom x") {
		t.Errorf("failed outcome rendering:\n%s", buf.String())
	}
}

// TestSweepInvariantsRandomized runs the shared Lemma 1 property helper
// (internal/sim/simtest) through the experiment harness's worker pool:
// the randomized placement × strategy × topology matrix must uphold the
// universal invariants on every sweep point, and the pooled sim.Run
// engines must stay independent across workers.
func TestSweepInvariantsRandomized(t *testing.T) {
	points := 48
	if testing.Short() {
		points = 16
	}
	gen, err := simtest.NewGen(0xE0)
	if err != nil {
		t.Fatal(err)
	}
	cases := make([]simtest.Case, points)
	for i := range cases {
		cases[i] = gen.Next()
	}
	errs := make([]error, points)
	if err := pool.ForEach(4, points, func(i int) error {
		cfg := cases[i].Build()
		res, err := sim.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", cases[i].Desc, err)
		}
		errs[i] = simtest.InvariantViolation(cfg, res)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, err := range errs {
		if err != nil {
			t.Errorf("point %d (%s): %v", i, cases[i].Desc, err)
		}
	}
}
