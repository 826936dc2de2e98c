package sim_test

// The differential-testing oracle: randomized configurations over the
// topology × placement × strategy × spec matrix run through the sparse
// fast engine (sim.RunContext) and the dense reference engine
// (sim/ref.RunContext), asserting bit-identical Results. The fast engine's correctness story
// leans on this test: any optimization that changes observable behavior
// in ANY field of ANY run diverges here.

import (
	"context"
	"sync"
	"testing"

	"bftbcast/internal/sim"
	"bftbcast/internal/sim/ref"
	"bftbcast/internal/sim/simtest"
)

// oracleCases is the number of randomized configurations the oracle
// checks per run (the PR acceptance floor is 200; short mode trims the
// count for CI's race-detector runs).
const oracleCases = 220

func TestDifferentialOracle(t *testing.T) {
	cases := oracleCases
	if testing.Short() {
		cases = 60
	}
	gen, err := simtest.NewGen(0xD1FF)
	if err != nil {
		t.Fatal(err)
	}
	var completed, failed, attacked int
	for i := 0; i < cases; i++ {
		c := gen.Next()
		res, err := simtest.DiffEngines(c)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if res == nil {
			continue // both engines rejected the config
		}
		if res.Completed {
			completed++
		} else {
			failed++
		}
		if res.BadMessages > 0 {
			attacked++
		}
	}
	// Guard against a vacuous oracle: the randomized matrix must cover
	// completing runs, failing (stalled or timed-out) runs, and runs
	// where the adversary actually transmitted.
	if completed == 0 || failed == 0 || attacked == 0 {
		t.Fatalf("degenerate case mix: completed=%d failed=%d attacked=%d",
			completed, failed, attacked)
	}
}

// TestOracleRunnerReuse drives one shared Runner through the whole
// randomized matrix and checks it against the reference engine, proving
// the reset path leaks no state between runs — including across
// topology switches.
func TestOracleRunnerReuse(t *testing.T) {
	cases := 80
	if testing.Short() {
		cases = 25
	}
	gen, err := simtest.NewGen(0xC0FFEE)
	if err != nil {
		t.Fatal(err)
	}
	runner := sim.NewRunner()
	for i := 0; i < cases; i++ {
		c := gen.Next()
		fast, err := runner.RunContext(context.Background(), c.Build())
		if err != nil {
			// The reference engine must reject the config too.
			if _, refErr := ref.RunContext(context.Background(), c.Build()); refErr == nil {
				t.Fatalf("case %d (%s): runner errored (%v), reference did not", i, c.Desc, err)
			}
			continue
		}
		simtest.CheckInvariants(t, c.Build(), fast)
		dense, err := ref.RunContext(context.Background(), c.Build())
		if err != nil {
			t.Fatalf("case %d (%s): reference errored: %v", i, c.Desc, err)
		}
		if err := simtest.DiffResults(fast, dense); err != nil {
			t.Fatalf("case %d (%s): reused runner diverged: %v", i, c.Desc, err)
		}
	}
}

// TestRandomizedInvariants is the shared Lemma 1 property test: across
// the fuzzed matrix of placements, strategies and topologies, no run may
// produce a wrong decision or a good-good collision.
func TestRandomizedInvariants(t *testing.T) {
	cases := 120
	if testing.Short() {
		cases = 40
	}
	gen, err := simtest.NewGen(0xBEEF)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cases; i++ {
		c := gen.Next()
		cfg := c.Build()
		res, err := sim.RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatalf("case %d (%s): %v", i, c.Desc, err)
		}
		simtest.CheckInvariants(t, cfg, res)
	}
}

// TestRandomizedInvariantsConcurrent runs the same property helper on
// four goroutines at once: concurrent sim.RunContext calls draw engines
// from the shared runner pool, and no run may see another's state.
func TestRandomizedInvariantsConcurrent(t *testing.T) {
	const workers = 4
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
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < points; i += workers {
				cfg := cases[i].Build()
				res, err := sim.RunContext(context.Background(), cfg)
				if err == nil {
					err = simtest.InvariantViolation(cfg, res)
				}
				errs[i] = err
			}
		}(w)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("point %d (%s): %v", i, cases[i].Desc, err)
		}
	}
}
