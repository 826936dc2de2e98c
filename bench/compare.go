package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// benchmarkFile is ../BENCHMARK.json, the declaration the driver reads.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

const benchmarkPath = "../BENCHMARK.json"

func readBenchmarkFile() (*benchmarkFile, error) {
	data, err := os.ReadFile(benchmarkPath)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", benchmarkPath, err)
	}
	return &b, nil
}

func readSaved(path string) (*savedRuns, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s savedRuns
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// simulated are the end-to-end metrics the simulation computes rather
// than the host: on the same seeds they must repeat exactly, whatever
// bound BENCHMARK.json gives them for runs on different seeds.
var simulated = []string{"good_sends_per_node", "slots_per_broadcast"}

// compareFiles prints, per end-to-end metric and workload, both medians,
// their ratio, the bound and a verdict:
//
//	ok          b's median is no worse than a's by more than the bound
//	regressed   it is worse by more than the bound
//	unresolved  the run-to-run spread of a or b is wider than the bound,
//	            unless every run of b reads better than every run of a
//	changed     a simulated metric differs between a and b on the same
//	            seeds; a speed-only change must leave it bit-equal
//
// It fails when any row is regressed or changed, or any run had a failed
// op or a wrong output.
func compareFiles(w io.Writer, pathA, pathB string) error {
	decl, err := readBenchmarkFile()
	if err != nil {
		return err
	}
	a, err := readSaved(pathA)
	if err != nil {
		return err
	}
	b, err := readSaved(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "a = %s: nproc %d, GOMAXPROCS %d, %s, %s\n", pathA, a.Env.NProc, a.Env.GOMAXPROCS, a.Env.GoVersion, a.Env.CPUModel)
	fmt.Fprintf(w, "b = %s: nproc %d, GOMAXPROCS %d, %s, %s\n", pathB, b.Env.NProc, b.Env.GOMAXPROCS, b.Env.GoVersion, b.Env.CPUModel)
	fmt.Fprintf(w, "%-18s %-20s %-6s %12s %12s %14s %6s %8s %8s  %s\n",
		"workload", "metric", "unit", "median a", "median b", "b/a", "bound", "spread a", "spread b", "verdict")
	bad := 0
	for _, wl := range workloads {
		for _, m := range decl.EndToEnd {
			va, vb := a.values(wl.name, m.Name), b.values(wl.name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			verdict := verdictOf(m, va, vb)
			if slices.Contains(simulated, m.Name) && slices.Equal(a.seeds(wl.name), b.seeds(wl.name)) && !slices.Equal(va, vb) {
				verdict = "changed"
			}
			if verdict == "regressed" || verdict == "changed" {
				bad++
			}
			fmt.Fprintf(w, "%-18s %-20s %-6s %12.6g %12.6g %14s %6.2f %8.4f %8.4f  %s\n",
				wl.name, m.Name, m.Unit, ma, mb, fmt.Sprintf("%.4f of %.4g", mb/ma, ma), m.Bound, spread(va), spread(vb), verdict)
		}
	}
	for _, s := range []*savedRuns{a, b} {
		for _, r := range s.Runs {
			if !r.Result.Correct || r.Result.Failed > 0 {
				fmt.Fprintf(w, "FAILED: %s seed %d: %d of %d ops failed, outputs correct: %v\n",
					r.Workload, r.Seed, r.Result.Failed, r.Result.Attempted, r.Result.Correct)
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d regressed, changed or failed", bad)
	}
	return nil
}

func verdictOf(m declaredMetric, va, vb []float64) string {
	// Flip a higher-is-better metric so that lower is better throughout.
	sign := 1.0
	if m.Better == "higher" {
		sign = -1
	}
	flip := func(xs []float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = sign * x
		}
		return out
	}
	a, b := flip(va), flip(vb)
	if (spread(a) > m.Bound || spread(b) > m.Bound) && slices.Max(b) >= slices.Min(a) {
		return "unresolved"
	}
	// By how much b's median is worse than a's, as a share of a's.
	if ma := median(a); (median(b)-ma)/math.Abs(ma) > m.Bound {
		return "regressed"
	}
	return "ok"
}

// seeds returns the seeds of one workload's runs, in run order.
func (s *savedRuns) seeds(workload string) []uint64 {
	var out []uint64
	for _, r := range s.Runs {
		if r.Workload == workload {
			out = append(out, r.Seed)
		}
	}
	return out
}
