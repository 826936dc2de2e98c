// Package exper defines the experiment suite E1–E12 that regenerates the
// quantitative content of every theorem, corollary and figure of the
// paper, plus the topology-generality comparison E11 and the
// multi-broadcast batching economics E12 (see DESIGN.md §5 for the index
// and EXPERIMENTS.md for the paper-vs-measured record).
// Each experiment produces human-readable tables and a machine-checkable
// pass/fail verdict on the paper's claim shape, so the suite doubles as
// an integration test and as the benchmark harness behind bench_test.go
// and cmd/bftbench. Independent sweep points run through a deterministic
// worker pool (pool.ForEach) sized by Options.Workers.
package exper

import (
	"fmt"
	"io"
	"sort"

	"bftbcast/internal/metrics"
)

// Options tunes an experiment run.
type Options struct {
	// Quick shrinks sweeps to test-friendly sizes.
	Quick bool
	// Seed drives all randomized pieces.
	Seed uint64
	// Workers bounds the worker pool used for independent sweep points
	// (and for whole experiments in RunMany). Values <= 1 run
	// sequentially. Every sweep point derives its own RNG seed from
	// Seed, so results are identical for any worker count.
	Workers int
}

// Outcome is an experiment's result.
type Outcome struct {
	ID     string
	Title  string
	Passed bool
	Notes  []string
	Tables []*metrics.Table
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
	cw := &metrics.CountingWriter{W: w}
	status := "ok"
	if !o.Passed {
		status = "FAILED"
	}
	if _, err := fmt.Fprintf(cw, "== %s: %s [%s]\n", o.ID, o.Title, status); err != nil {
		return cw.N, err
	}
	for _, t := range o.Tables {
		if _, err := fmt.Fprintln(cw); err != nil {
			return cw.N, err
		}
		if _, err := t.WriteTo(cw); err != nil {
			return cw.N, err
		}
	}
	for _, n := range o.Notes {
		if _, err := fmt.Fprintf(cw, "note: %s\n", n); err != nil {
			return cw.N, err
		}
	}
	_, err := fmt.Fprintln(cw)
	return cw.N, err
}

// Experiment is a runnable reproduction unit.
type Experiment struct {
	ID    string
	Title string
	Run   func(opts Options) (*Outcome, error)
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	registry[e.ID] = e
}

// All returns the experiments sorted by ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].ID) != len(out[j].ID) {
			return len(out[i].ID) < len(out[j].ID)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// ByID looks an experiment up.
func ByID(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}
