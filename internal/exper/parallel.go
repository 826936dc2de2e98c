package exper

import (
	"fmt"

	"bftbcast/internal/pool"
)

// RunMany executes the given experiments through the Options' worker
// pool and returns their outcomes in input order, with errors wrapped
// in the failing experiment's ID. The total worker budget is split
// between the experiment level and each experiment's inner sweeps
// (outer × inner ≈ Workers), so nesting does not oversubscribe the
// CPUs. The first error (by input order) aborts the result; outcomes
// of error-free experiments are still returned.
func RunMany(es []Experiment, opts Options) ([]*Outcome, error) {
	outer := opts.Workers
	if outer > len(es) {
		outer = len(es)
	}
	inner := opts.Workers
	if outer > 1 {
		inner = opts.Workers / outer
		if inner < 1 {
			inner = 1
		}
	}
	childOpts := opts
	childOpts.Workers = inner
	outs := make([]*Outcome, len(es))
	err := pool.ForEach(outer, len(es), func(i int) error {
		o, err := es[i].Run(childOpts)
		outs[i] = o
		if err != nil {
			return fmt.Errorf("%s: %w", es[i].ID, err)
		}
		return nil
	})
	return outs, err
}
