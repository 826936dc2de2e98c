// Command bftsim runs one broadcast scenario from command-line flags on
// a selectable execution backend and prints the unified report,
// optionally tracing acceptances as JSON Lines and timing the engine's
// phases (-timing).
//
// Engine and protocol are orthogonal: -engine picks the execution
// backend (fast | ref), -protocol picks the node-level state
// machine (b | bheter | koo | full | reactive). The flags fill a
// bftbcast.ScenarioSpec — the same document bftsimd accepts as JSON — so
// protocol, adversary and policy names are resolved in one place, and
// every combination runs through the same Scenario/Engine code path;
// invalid combinations are rejected with actionable errors (the reactive
// protocol drives its adversary through -policy, …).
//
// Examples:
//
//	bftsim -w 20 -h 20 -r 2 -t 3 -mf 2 -adversary random -density 0.1
//	bftsim -w 45 -h 45 -r 4 -t 1 -mf 1000 -protocol full -m 59 -adversary figure2
//	bftsim -protocol reactive -w 15 -h 15 -r 2 -t 1 -mf 3 -policy disrupt
//	bftsim -engine ref -protocol reactive -topology grid -w 15 -h 15 -r 2 -t 1 -mf 3
//	bftsim -engine ref -topology rgg -n 300 -t 1 -mf 2 -adversary random
//	bftsim -timeout 5s -w 45 -h 45 -r 4 -t 2 -mf 64 -adversary random
//	bftsim -broadcasts 16 -w 45 -h 45 -r 2 -t 1 -mf 2
//	bftsim -timing -broadcasts 32 -w 45 -h 45 -r 2 -t 2 -mf 2
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"bftbcast"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "bftsim: %v\n", err)
		os.Exit(1)
	}
}

// run parses args and executes one scenario, writing the report to
// stdout. It is the whole command behind a testable seam (see
// main_test.go's flag-matrix coverage).
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bftsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		engineName = fs.String("engine", "fast", "execution backend: fast | ref")
		topology   = fs.String("topology", "torus", "topology: torus | grid (bounded, border effects) | rgg (random geometric graph)")
		w          = fs.Int("w", 20, "grid width (torus: multiple of 2r+1)")
		h          = fs.Int("h", 20, "grid height (torus: multiple of 2r+1)")
		r          = fs.Int("r", 2, "radio range (grid topologies; rgg always uses hop range 1)")
		n          = fs.Int("n", 0, "rgg node count (0 = w*h)")
		t          = fs.Int("t", 3, "max bad nodes per neighborhood")
		mf         = fs.Int("mf", 2, "bad node message budget")
		protoName  = fs.String("protocol", "b", "protocol: b | bheter | koo | full | reactive (runs on any engine)")
		m          = fs.Int("m", 0, "budget for -protocol full")
		adv        = fs.String("adversary", "none", "adversary: none | random | sandwich | figure2 (sandwich/figure2 are torus constructions)")
		density    = fs.Float64("density", 0.1, "bad density for -adversary random")
		seed       = fs.Uint64("seed", 1, "random seed (also drives the rgg layout)")
		policy     = fs.String("policy", "disrupt", "reactive attack policy: disrupt|forge|nackspam|mixed")
		mmax       = fs.Int("mmax", 64, "loose budget bound known to the reactive protocol")
		k          = fs.Int("k", 16, "payload bits for the reactive protocol")
		broadcasts = fs.Int("broadcasts", 0, "concurrent broadcast instances (multi-broadcast traffic; threshold protocols only)")
		traceFlag  = fs.Bool("trace", false, "emit acceptance events as JSON lines")
		timing     = fs.Bool("timing", false, "print the engine's wall time by phase and the slot loop's counts")
		timeout    = fs.Duration("timeout", 0, "wall-clock deadline for the run (0 = none)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // usage already printed; -h/--help is not an error
		}
		return err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	engine, err := bftbcast.NewEngine(*engineName)
	if err != nil {
		return err
	}
	reactive := *protoName == "reactive"
	if !reactive {
		for _, f := range []string{"policy", "mmax", "k"} {
			if set[f] {
				return fmt.Errorf("-%s only applies to -protocol reactive (got -protocol %s)", f, *protoName)
			}
		}
	} else if set["m"] {
		return fmt.Errorf("-m only applies to -protocol full (got -protocol reactive)")
	}
	if reactive && set["broadcasts"] {
		return fmt.Errorf("-broadcasts runs the threshold protocol family only (got -protocol reactive)")
	}

	spec := bftbcast.ScenarioSpec{
		Topology: bftbcast.TopologySpec{
			Kind: *topology, W: *w, H: *h, R: *r, Nodes: *n, Seed: *seed,
		},
		T: *t, MF: *mf,
		Protocol: *protoName, M: *m,
		Adversary: *adv, Density: *density,
		Broadcasts: *broadcasts,
		Seed:       *seed,
	}
	if reactive {
		spec.Policy, spec.MMax, spec.PayloadBits = *policy, *mmax, *k
	}
	sc, err := spec.Scenario()
	if err != nil {
		return err
	}

	sc.Timing = *timing
	var tracer *bftbcast.TraceObserver
	if *traceFlag {
		tracer = bftbcast.NewTraceObserver(stdout)
		sc.Observer = tracer
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	rep, err := engine.Run(ctx, sc)
	if err != nil {
		return err
	}
	if tracer != nil {
		if err := tracer.Finish(rep); err != nil {
			return err
		}
	}

	fmt.Fprintf(stdout, "engine=%s protocol=%s topology=%q t=%d mf=%d\n", rep.Engine, *protoName, sc.Topo, sc.Params.T, sc.Params.MF)
	fmt.Fprintf(stdout, "completed=%v stalled=%v timedOut=%v slots=%d\n",
		rep.Completed, rep.Stalled, rep.TimedOut, rep.Slots)
	fmt.Fprintf(stdout, "decided=%d/%d wrongDecisions=%d\n", rep.DecidedGood, rep.TotalGood, rep.WrongDecisions)
	fmt.Fprintf(stdout, "goodMessages=%d badMessages=%d avgSends=%.2f maxSends=%d\n",
		rep.GoodMessages, rep.BadMessages, rep.AvgGoodSends, rep.MaxGoodSends)
	if mr := rep.Multi; mr != nil {
		done := 0
		for _, in := range mr.Instances {
			if in.Completed {
				done++
			}
		}
		fmt.Fprintf(stdout, "multi: broadcasts=%d completed=%d/%d batchedSends=%d naiveSends=%d entries=%d decisions/slot=%.3f\n",
			mr.M, done, mr.M, mr.BatchedSends, mr.NaiveSends, mr.EntriesCarried, mr.DecisionsPerSlot)
	}
	if rr := rep.Reactive; rr != nil {
		fmt.Fprintf(stdout, "reactive: rounds=%d forged=%d L=%d K=%d maxMsgs/node=%d (bound %d) maxSubSlots=%d (Theorem4 %d)\n",
			rr.MessageRounds, rr.ForgedDeliveries, rr.SubBitLength, rr.CodewordBits,
			rr.MaxNodeMessages, 2*(sc.Params.T*sc.Params.MF+1), rr.MaxNodeSubSlots, rr.Theorem4SubSlots)
	}
	if tm := rep.Timing; tm != nil {
		printTiming(stdout, tm)
	}
	return nil
}

// printTiming prints a run's Timing: one line per phase with its share of
// the total, then the slot loop's counts.
func printTiming(w io.Writer, tm *bftbcast.Timing) {
	total := tm.Total()
	fmt.Fprintf(w, "timing: total=%v\n", total)
	for _, row := range []struct {
		name string
		d    time.Duration
	}{
		{"begin", tm.Begin}, {"loop", tm.Loop}, {"emit", tm.Emit}, {"resolve", tm.Resolve},
		{"adversary", tm.Adversary}, {"deliver", tm.Deliver}, {"schedule", tm.Schedule}, {"finish", tm.Finish},
	} {
		share := 0.0
		if total > 0 {
			share = 100 * float64(row.d) / float64(total)
		}
		fmt.Fprintf(w, "timing: %-9s %12v %5.1f%%\n", row.name, row.d, share)
	}
	fmt.Fprintf(w, "timing: slots executed=%d skipped=%d\n", tm.SlotsExecuted, tm.SlotsSkipped)
	fmt.Fprintf(w, "timing: sends full=%d frontier=%d booked=%d retired=%d\n",
		tm.SendsFull, tm.SendsFrontier, tm.SendsBooked, tm.SendsRetired)
}
