// Package exper defines the experiment suite E1–E12 that regenerates the
// quantitative content of every theorem, corollary and figure of the
// paper, plus the topology-generality comparison E11 and the
// multi-broadcast batching economics E12 (see DESIGN.md §5 for the index
// and EXPERIMENTS.md for the paper-vs-measured record).
// Each experiment produces human-readable tables and a machine-checkable
// pass/fail verdict on the paper's claim shape, so the suite doubles as
// an integration test and as the benchmark harness behind bench_test.go
// and cmd/bftbench. Every simulation is a bftbcast.Scenario, and every
// batch of them runs through bftbcast.Sweep on Options.Workers workers,
// the library's public batch path.
package exper

import (
	"bytes"
	"context"
	"fmt"
	"io"

	"bftbcast"
)

// Options tunes an experiment run.
type Options struct {
	// Quick shrinks sweeps to test-friendly sizes.
	Quick bool
	// Seed drives all randomized pieces.
	Seed uint64
	// Workers bounds the worker pool of each experiment's sweep. Values
	// <= 1 run sequentially. Every sweep point derives its own RNG seed
	// from Seed, so results are identical for any worker count.
	Workers int
}

// Outcome is an experiment's result.
type Outcome struct {
	ID     string
	Title  string
	Passed bool
	Notes  []string
	Tables []*Table
}

// note appends a formatted note line.
func (o *Outcome) note(format string, args ...any) {
	o.Notes = append(o.Notes, fmt.Sprintf(format, args...))
}

// fail marks the outcome failed with a reason.
func (o *Outcome) fail(format string, args ...any) {
	o.Passed = false
	o.note("FAIL: "+format, args...)
}

// WriteTo renders the outcome and returns the number of bytes written.
// It implements io.WriterTo.
func (o *Outcome) WriteTo(w io.Writer) (int64, error) {
	var b bytes.Buffer
	status := "ok"
	if !o.Passed {
		status = "FAILED"
	}
	fmt.Fprintf(&b, "== %s: %s [%s]\n", o.ID, o.Title, status)
	for _, t := range o.Tables {
		b.WriteByte('\n')
		t.render(&b)
	}
	for _, n := range o.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	b.WriteByte('\n')
	n, err := w.Write(b.Bytes())
	return int64(n), err
}

// Experiment is a runnable reproduction unit.
type Experiment struct {
	ID    string
	Title string
	Run   func(opts Options) (*Outcome, error)
}

// experiments is the suite in run order.
var experiments = []Experiment{
	{ID: "E1", Title: "Theorem 1 / Figure 1: budget sweep against the stripe construction", Run: runE1},
	{ID: "E2", Title: "Figure 2: the m0+1 stall at r=4, t=1, mf=1000", Run: runE2},
	{ID: "E3", Title: "Theorem 2: protocol B vs the Koo et al. repetition baseline", Run: runE3},
	{ID: "E4", Title: "Corollary 1: empirical fault tolerance vs the two bounds", Run: runE4},
	{ID: "E5", Title: "Theorem 3 / Figure 5: heterogeneous budgets (Bheter)", Run: runE5},
	{ID: "E6", Title: "Lemmas 5-10 / Figures 6-8: propagation geometry", Run: runE6},
	{ID: "E7", Title: "Figure 9: AUED coding scheme (overhead, detection, forgery)", Run: runE7},
	{ID: "E8", Title: "Theorem 4: Breactive message budgets with unknown mf", Run: runE8},
	{ID: "E9", Title: "Lemma 4: decided-neighborhood sufficiency (contrapositive)", Run: runE9},
	{ID: "E10", Title: "Ablations: sub-bit length, segment chain", Run: runE10},
	{ID: "E11", Title: "Topology generality: torus vs bounded grid vs RGG under the random adversary", Run: runE11},
	{ID: "E12", Title: "Multi-broadcast traffic: batched sends vs M sequential single-broadcast runs", Run: runE12},
}

// All returns the experiments in suite order, E1 to E12.
func All() []Experiment {
	return append([]Experiment(nil), experiments...)
}

// ByID looks an experiment up.
func ByID(id string) (Experiment, bool) {
	for _, e := range experiments {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunMany runs the given experiments in order, each with the whole
// Options worker budget for its own sweeps, and returns their outcomes
// in input order, with errors wrapped in the failing experiment's ID.
// The first error (by input order) aborts the result; outcomes of
// error-free experiments are still returned.
func RunMany(es []Experiment, opts Options) ([]*Outcome, error) {
	outs := make([]*Outcome, len(es))
	var firstErr error
	for i, e := range es {
		o, err := e.Run(opts)
		outs[i] = o
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", e.ID, err)
		}
	}
	return outs, firstErr
}

// sweep runs the scenarios through bftbcast.Sweep and returns their
// reports in scenario order. Sweep reads Workers <= 0 as NumCPU, but
// Options{} has always meant sequential, hence the clamp.
func sweep(opts Options, scs ...*bftbcast.Scenario) ([]*bftbcast.Report, error) {
	pts, err := (&bftbcast.Sweep{Workers: max(1, opts.Workers), Scenarios: scs}).Run(context.TODO())
	if err != nil {
		return nil, err
	}
	reps := make([]*bftbcast.Report, len(pts))
	for i, pt := range pts {
		reps[i] = pt.Report
	}
	return reps, nil
}
