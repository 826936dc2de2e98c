// Command bftbench runs the experiment suite E1–E12 that regenerates the
// paper's quantitative results and prints the resulting tables, or — with
// -sweep — a custom protocol-B density sweep through the public
// Scenario/Engine/Sweep API, streaming each point as it completes.
//
// Usage:
//
//	bftbench [-experiment E2] [-quick] [-seed 42] [-workers N]
//	bftbench -sweep 12 [-engine fast] [-workers N] [-seed 42]
//
// The experiments run in order; with -workers N each one sweeps its
// points on N workers (0 = runtime.NumCPU(); the default 1 is
// sequential), and so does -sweep. Every run derives its RNG seed from
// -seed and the sweep index, so the printed results are identical for
// any worker count.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"

	"bftbcast"
	"bftbcast/internal/exper"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "bftbench: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	id := flag.String("experiment", "", "run a single experiment (E1..E12); empty = all")
	quick := flag.Bool("quick", false, "smaller sweeps")
	seed := flag.Uint64("seed", 42, "random seed")
	workers := flag.Int("workers", 1, "sweep workers of each experiment, and of -sweep (1 = sequential, 0 = NumCPU)")
	sweepN := flag.Int("sweep", 0, "instead of the experiment suite, run an n-point protocol-B density sweep through the public Sweep API")
	engineName := flag.String("engine", "fast", "execution backend for -sweep: fast | ref")
	flag.Parse()

	if *workers <= 0 {
		*workers = runtime.NumCPU()
	}
	if *sweepN > 0 {
		return runSweep(*sweepN, *engineName, *workers, *seed)
	}

	opts := exper.Options{Quick: *quick, Seed: *seed, Workers: *workers}
	experiments := exper.All()
	if *id != "" {
		e, ok := exper.ByID(*id)
		if !ok {
			return fmt.Errorf("unknown experiment %q", *id)
		}
		experiments = []exper.Experiment{e}
	}
	outcomes, runErr := exper.RunMany(experiments, opts)
	failures := 0
	for _, out := range outcomes {
		if out == nil {
			continue // errored before producing an outcome
		}
		if _, err := out.WriteTo(os.Stdout); err != nil {
			return err
		}
		if !out.Passed {
			failures++
		}
	}
	if runErr != nil {
		return runErr
	}
	if failures > 0 {
		return fmt.Errorf("%d experiment(s) failed", failures)
	}
	return nil
}

// runSweep demonstrates the public harness: an n-point bad-density sweep
// of protocol B on a 20×20 torus, streamed in order as points complete
// on the deterministic worker pool.
func runSweep(n int, engineName string, workers int, seed uint64) error {
	engine, err := bftbcast.NewEngine(engineName)
	if err != nil {
		return err
	}
	params := bftbcast.Params{R: 2, T: 2, MF: 2}
	tor, err := bftbcast.NewTorus(20, 20, params.R)
	if err != nil {
		return err
	}
	spec, err := bftbcast.NewProtocolB(params)
	if err != nil {
		return err
	}
	base, err := bftbcast.NewScenario(
		bftbcast.WithTopology(tor),
		bftbcast.WithParams(params),
		bftbcast.WithSpec(spec),
	)
	if err != nil {
		return err
	}

	densities := make([]float64, n)
	scenarios := make([]*bftbcast.Scenario, n)
	for i := range scenarios {
		densities[i] = 0.01 * float64(i)
		opts := []bftbcast.ScenarioOption{bftbcast.WithSeed(seed + uint64(i))}
		if densities[i] > 0 {
			placement := bftbcast.RandomPlacement{T: params.T, Density: densities[i], Seed: seed + uint64(i)}
			opts = append(opts, bftbcast.WithAdversary(placement, bftbcast.NewCorruptor()))
		}
		scenarios[i], err = base.With(opts...)
		if err != nil {
			return err
		}
	}

	sweep := bftbcast.Sweep{Engine: engine, Workers: workers, Scenarios: scenarios}
	fmt.Printf("== sweep: protocol B on %v, engine=%s, %d densities, %d workers\n",
		tor, engine.Name(), n, workers)
	for pt := range sweep.Stream(context.Background()) {
		if pt.Err != nil {
			return fmt.Errorf("point %d (density %.2f): %w", pt.Index, densities[pt.Index], pt.Err)
		}
		rep := pt.Report
		fmt.Printf("density=%.2f bad=%-3d completed=%-5v slots=%-5d avgSends=%.2f wrong=%d\n",
			densities[pt.Index], rep.BadCount, rep.Completed, rep.Slots, rep.AvgGoodSends, rep.WrongDecisions)
	}
	return nil
}
