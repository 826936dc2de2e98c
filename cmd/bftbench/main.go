// Command bftbench runs the experiment suite E1–E12 that regenerates the
// paper's quantitative results and prints the resulting tables.
//
// Usage:
//
//	bftbench [-experiment E2] [-quick] [-seed 42] [-workers N]
//
// The experiments run in order; with -workers N each one sweeps its
// points on N workers (0 = runtime.NumCPU(); the default 1 is
// sequential). Every run derives its RNG seed from -seed and the sweep
// index, so the printed results are identical for any worker count.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"bftbcast/internal/exper"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "bftbench: %v\n", err)
		os.Exit(1)
	}
}

// run parses args, runs the selected experiments and writes their tables
// to stdout; usage and flag errors go to stderr. It returns an error when
// an experiment fails to run or to reproduce.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bftbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	id := fs.String("experiment", "", "run a single experiment (E1..E12); empty = all")
	quick := fs.Bool("quick", false, "smaller sweeps")
	seed := fs.Uint64("seed", 42, "random seed")
	workers := fs.Int("workers", 1, "sweep workers of each experiment (1 = sequential, 0 = NumCPU)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // usage already printed; -h/--help is not an error
		}
		return err
	}

	if *workers <= 0 {
		*workers = runtime.NumCPU()
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
		if _, err := out.WriteTo(stdout); err != nil {
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
