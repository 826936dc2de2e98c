package main

import (
	"fmt"
	"io"
	"math"
	"sort"

	"bftbcast/internal/stats"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a run prints as the last line of its
// standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report collects one run's metrics, its output checks and the
// informational lines printed under the table.
type report struct {
	values map[string]float64
	nulls  map[string]string // metric → why it has no value
	notes  []string

	// attempted counts ops (and the few checks that are not ops); failed
	// counts the ones that did not succeed. wrong is set when an op gave a
	// wrong output, as opposed to failing with an error of its own.
	attempted, failed int
	wrong             bool
	failures          []string // the first few failures, for the table
}

func newReport() *report {
	return &report{values: map[string]float64{}, nulls: map[string]string{}}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// unavailable records that a declared metric has no trustworthy value in
// this run: it prints as null with the reason rather than as a number.
func (r *report) unavailable(reason string, names ...string) {
	for _, name := range names {
		delete(r.values, name)
		r.nulls[name] = reason
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check counts one output check. A failed one is a failed op and makes
// the run incorrect: the program gave a wrong answer.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.wrong = true
		r.fail(format, args...)
	}
}

// opFailed counts an op that the program itself reported as failed (a job
// that ended in the failed state, say). It is a failed op, but no output
// was wrong, so the run stays correct.
func (r *report) opFailed(format string, args ...any) {
	r.attempted++
	r.fail(format, args...)
}

func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// result renders the run against the declared metric list: every
// declared name is present, and a name set outside the list is a bug in
// the harness.
func (r *report) result(defs []metricDef) result {
	declared := make(map[string]bool, len(defs))
	res := result{
		Correct:   !r.wrong && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		declared[d.name] = true
		v := r.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for name := range r.values {
		if !declared[name] {
			panic("bench: metric " + name + " is not declared")
		}
	}
	return res
}

func (r *report) print(w io.Writer, workload string, defs []metricDef) {
	fmt.Fprintf(w, "-- %s --\n", workload)
	for _, d := range defs {
		if v, ok := r.values[d.name]; ok {
			fmt.Fprintf(w, "%-34s %14.6g %s\n", d.name, v, d.unit)
		} else if why, ok := r.nulls[d.name]; ok {
			fmt.Fprintf(w, "%-34s %14s %s (%s)\n", d.name, "null", d.unit, why)
		}
	}
	if skipped := len(defs) - len(r.values) - len(r.nulls); skipped > 0 {
		fmt.Fprintf(w, "  %d metrics do not apply to this workload and read 0 in the result line\n", skipped)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	fmt.Fprintf(w, "  ops and output checks: %d attempted, %d failed\n", r.attempted, r.failed)
	for _, f := range r.failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Percentile(sorted(xs), 0.5)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles are Python's statistics.quantiles(xs, n=4) (the exclusive
// method), the rule the spread of a metric over a set of runs is taken
// with. It needs two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	cut := func(i int) float64 {
		j := i * (ld + 1) / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*(ld+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the first and third quartile as a share
// of the median; 0 for fewer than two values.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}

// tail returns the highest of a few percentiles that still has ten
// samples beyond it, with its label; ok is false when even the median
// has not.
func tail(durs []float64) (label string, value float64, ok bool) {
	s := sorted(durs)
	for _, p := range []struct {
		label string
		q     float64
	}{{"p99.9", 0.999}, {"p99", 0.99}, {"p95", 0.95}, {"p90", 0.90}, {"p66", 0.66}, {"p50", 0.50}} {
		beyond := int(float64(len(s)) * (1 - p.q))
		if beyond >= 10 {
			return p.label, s[len(s)-1-beyond], true
		}
	}
	return "", 0, false
}

// opsPerSecond is the throughput of a closed loop from its op durations:
// the ops are cut into about a dozen consecutive chunks, each chunk's rate
// is its op count over its ops' time, and the median chunk speaks for the
// window — one stall lowers one chunk, not the result. With fewer ops than
// chunks every op is its own chunk.
func opsPerSecond(durs []float64) float64 {
	const chunks = 12
	per := (len(durs) + chunks - 1) / chunks
	var rates []float64
	for lo := 0; lo < len(durs); lo += per {
		hi := min(lo+per, len(durs))
		sum := 0.0
		for _, d := range durs[lo:hi] {
			sum += d
		}
		rates = append(rates, float64(hi-lo)/sum)
	}
	return median(rates)
}

// timingNote is the informational line printed beside op_s_p50.
func timingNote(durs []float64) string {
	note := fmt.Sprintf("op_s_p50 over %d samples", len(durs))
	if label, v, ok := tail(durs); ok {
		note += fmt.Sprintf("; op_s_tail %s = %.6g s (information only)", label, v)
	} else {
		note += "; op_s_tail none (fewer than ten samples beyond the median)"
	}
	return note
}
