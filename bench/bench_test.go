package main

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestMain lets the test binary play the calibration child, as main does.
func TestMain(m *testing.M) {
	if os.Getenv(calibrateEnv) != "" {
		calibrateLoop()
		return
	}
	os.Exit(m.Run())
}

// TestDeclaration holds ../BENCHMARK.json and the harness together: the
// names are well-formed and within the counts the driver accepts, and the
// file declares exactly the workloads and metrics the harness prints.
func TestDeclaration(t *testing.T) {
	decl, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(kind, n string) {
		if !name.MatchString(n) {
			t.Errorf("%s name %q is malformed", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if n := len(decl.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	var declared []string
	for _, w := range decl.Workloads {
		checkName("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		declared = append(declared, w.Name)
	}
	var run []string
	for _, w := range workloads {
		run = append(run, w.name)
	}
	if !slices.Equal(declared, run) {
		t.Errorf("BENCHMARK.json declares workloads %v, the harness runs %v", declared, run)
	}

	checkMetrics := func(kind string, decl []declaredMetric, defs []metricDef, limit int, bounded bool) {
		if len(decl) < 1 || len(decl) > limit {
			t.Errorf("%d %s metrics, want 1 to %d", len(decl), kind, limit)
		}
		var got, want []string
		for _, m := range decl {
			checkName(kind, m.Name)
			if !unit.MatchString(m.Unit) {
				t.Errorf("%s: unit %q is malformed", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better is %q", m.Name, m.Better)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
			}
			got = append(got, m.Name+" "+m.Unit)
		}
		for _, d := range defs {
			want = append(want, d.name+" "+d.unit)
		}
		if !slices.Equal(got, want) {
			t.Errorf("BENCHMARK.json declares %s metrics\n%v\nthe harness prints\n%v", kind, got, want)
		}
	}
	checkMetrics("end_to_end", decl.EndToEnd, endToEnd, 16, true)
	checkMetrics("per_layer", decl.PerLayer, perLayer, 128, false)

	if decl.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds is %d, the harness's default window %d", decl.RunSeconds, defaultSeconds)
	}
	if !slices.Contains(decl.EndToEnd, declaredMetric{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25}) {
		t.Errorf("setup_s must be declared in s, lower is better, with the largest bound")
	}
}

// TestSmoke runs every workload at its smallest size — two ops, or one
// job, after one set-up — and then its traced pass at one repetition, and
// requires a correct result that carries every declared metric. The two
// daemon workloads and the 100k-node graph take about half a minute
// together and are skipped under -short.
func TestSmoke(t *testing.T) {
	t.Cleanup(cleanup)
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			minOps := 2
			if w.daemon != nil {
				minOps = 1
			}
			if testing.Short() && (w.daemon != nil || w.lib == &rgg100k) {
				t.Skip("skipped under -short")
			}
			for _, trace := range []bool{false, true} {
				cfg := runConfig{seed: 1, trace: trace, setupReps: 1, minOps: minOps, traceReps: 1}
				rep, err := runWorkload(w, cfg)
				if err != nil {
					t.Fatalf("trace=%v: %v", trace, err)
				}
				defs := metricDefs(trace)
				res := rep.result(defs)
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("trace=%v: correct=%v attempted=%d failed=%d: %v", trace, res.Correct, res.Attempted, res.Failed, rep.failures)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("trace=%v: %d metrics in the result, %d declared", trace, len(res.Metrics), len(defs))
				}
				if !trace {
					for _, d := range defs {
						if res.Metrics[d.name].Value <= 0 {
							t.Errorf("end-to-end metric %s is %v", d.name, res.Metrics[d.name].Value)
						}
					}
				}
				for metric, why := range rep.nulls {
					t.Errorf("trace=%v: %s is null: %s", trace, metric, why)
				}
			}
		})
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(n=4), the
// rule the driver takes a metric's spread with.
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1})
	if q1 != 0.5 || q2 != 2 || q3 != 3.5 {
		t.Errorf("quartiles(1,3) = %v %v %v, want 0.5 2 3.5", q1, q2, q3)
	}
}
