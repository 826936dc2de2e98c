// Command benchjson converts `go test -bench` output into a compact
// machine-readable JSON document, used by scripts/bench_sim.sh and the
// CI bench job to track the simulation engines' performance trajectory
// (BENCH_sim.json: ns/op for the dense reference engine vs the sparse
// fast path, plus the large-scale tier) across PRs.
//
// Usage:
//
//	go test -run '^$' -bench 'BenchmarkSweep' -benchmem . | \
//	  benchjson -prev BENCH_sim.json -max-regress BenchmarkSweep45Scenario:1.10 > BENCH_new.json
//
// When both BenchmarkSweep45Sequential and BenchmarkSweep45DenseRef are
// present, the document includes their ratio as "dense_over_sparse" —
// the fast engine's single-core speedup over the frozen baseline.
//
// With -prev, every benchmark present in both runs gains a
// "<name>_vs_prev" speedup entry (previous ns/op over current ns/op;
// above 1 is faster). With -max-regress the command exits non-zero —
// after writing the document — when a guarded benchmark regressed past
// its factor against -prev, which is how the CI bench job fails pull
// requests on >10% regressions. -max-regress takes a comma-separated
// list of gates; each is name:factor (guarding ns/op) or
// name:allocs:factor (guarding allocs/op, the hot-path allocation
// budget, e.g. BenchmarkBVDeliver:allocs:1.10).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Entry is one benchmark result.
type Entry struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

// Doc is the emitted document.
type Doc struct {
	CPU        string             `json:"cpu,omitempty"`
	GoOS       string             `json:"goos,omitempty"`
	GoArch     string             `json:"goarch,omitempty"`
	Benchmarks []Entry            `json:"benchmarks"`
	Speedups   map[string]float64 `json:"speedups,omitempty"`
}

func main() {
	prevPath := flag.String("prev", "", "previous BENCH_sim.json to compute *_vs_prev speedups against")
	maxRegress := flag.String("max-regress", "", "comma-separated gates name:factor (ns/op) or name:allocs:factor (allocs/op) — fail when a guarded benchmark regressed past factor × its -prev value")
	flag.Parse()
	if err := run(os.Stdin, os.Stdout, os.Stderr, *prevPath, *maxRegress); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// run converts the bench output on in to the JSON document on out and
// enforces the -max-regress gates; advisory warnings (skipped gates) go
// to errw, injected so the warning paths stay testable.
func run(in io.Reader, out, errw io.Writer, prevPath, maxRegress string) error {
	doc := Doc{Speedups: map[string]float64{}}
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case strings.HasPrefix(line, "goos:"):
			doc.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			doc.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		e, ok := parseLine(line)
		if !ok {
			continue
		}
		doc.Benchmarks = append(doc.Benchmarks, e)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(doc.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines on stdin")
	}
	if dense, sparse := find(doc.Benchmarks, "BenchmarkSweep45DenseRef"), find(doc.Benchmarks, "BenchmarkSweep45Sequential"); dense != nil && sparse != nil && sparse.NsPerOp > 0 {
		doc.Speedups["dense_over_sparse"] = round2(dense.NsPerOp / sparse.NsPerOp)
	}

	var prev *Doc
	if prevPath != "" {
		data, err := os.ReadFile(prevPath)
		if err != nil {
			return fmt.Errorf("-prev: %w", err)
		}
		prev = &Doc{}
		if err := json.Unmarshal(data, prev); err != nil {
			return fmt.Errorf("-prev %s: %w", prevPath, err)
		}
		for i := range doc.Benchmarks {
			cur := &doc.Benchmarks[i]
			if p := find(prev.Benchmarks, cur.Name); p != nil && cur.NsPerOp > 0 {
				doc.Speedups[cur.Name+"_vs_prev"] = round2(p.NsPerOp / cur.NsPerOp)
			}
		}
	}
	if len(doc.Speedups) == 0 {
		doc.Speedups = nil
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return err
	}

	if maxRegress != "" {
		if prev == nil {
			return fmt.Errorf("-max-regress needs -prev")
		}
		// ns/op only compare meaningfully on the machine class that
		// produced the snapshot: cross-machine deltas dwarf any real
		// regression, so the timing gates are skipped (loudly) when the
		// CPU differs and the *_vs_prev entries are left as advisory.
		// Allocation gates are machine-independent and always enforced.
		cpuMatch := prev.CPU == "" || doc.CPU == prev.CPU
		if !cpuMatch {
			fmt.Fprintf(errw, "benchjson: ns/op gates skipped: cpu %q differs from snapshot %q\n", doc.CPU, prev.CPU)
		}
		for _, gate := range strings.Split(maxRegress, ",") {
			if err := checkGate(strings.TrimSpace(gate), &doc, prev, cpuMatch); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkGate enforces one -max-regress entry: name:factor (ns/op) or
// name:allocs:factor (allocs/op).
func checkGate(gate string, doc, prev *Doc, cpuMatch bool) error {
	parts := strings.Split(gate, ":")
	var (
		name, metric string
		factorStr    string
	)
	switch len(parts) {
	case 2:
		name, metric, factorStr = parts[0], "ns", parts[1]
	case 3:
		name, metric, factorStr = parts[0], parts[1], parts[2]
	default:
		return fmt.Errorf("-max-regress wants name:factor or name:allocs:factor, got %q", gate)
	}
	factor, err := strconv.ParseFloat(factorStr, 64)
	if err != nil || factor <= 0 {
		return fmt.Errorf("-max-regress factor %q", factorStr)
	}
	cur, old := find(doc.Benchmarks, name), find(prev.Benchmarks, name)
	if cur == nil {
		return fmt.Errorf("-max-regress: %s missing from current run", name)
	}
	if old == nil {
		// A gate without a previous value guards nothing, and a warning
		// nobody reads let one stay that way for two PRs. The document is
		// already written, so regenerating the snapshot (which then holds
		// the benchmark) and rerunning clears this.
		return fmt.Errorf("-max-regress: %s missing from the -prev snapshot; regenerate it (scripts/bench_sim.sh) so the gate has a baseline", name)
	}
	switch metric {
	case "ns":
		if !cpuMatch {
			return nil
		}
		if cur.NsPerOp > old.NsPerOp*factor {
			return fmt.Errorf("regression: %s %.1fms/op vs previous %.1fms/op (limit %.0f%%)",
				name, cur.NsPerOp/1e6, old.NsPerOp/1e6, (factor-1)*100)
		}
	case "allocs":
		// +1 absolute headroom keeps a tiny baseline (a handful of
		// allocations) from failing on one amortized slice growth.
		if float64(cur.AllocsPerOp) > float64(old.AllocsPerOp)*factor+1 {
			return fmt.Errorf("regression: %s %d allocs/op vs previous %d (limit %.0f%%)",
				name, cur.AllocsPerOp, old.AllocsPerOp, (factor-1)*100)
		}
	default:
		return fmt.Errorf("-max-regress metric %q (want ns or allocs)", metric)
	}
	return nil
}

// parseLine parses "BenchmarkX-8  10  123 ns/op  456 B/op  7 allocs/op".
func parseLine(line string) (Entry, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || f[3] != "ns/op" {
		return Entry{}, false
	}
	name := f[0]
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		// Strip the GOMAXPROCS suffix so entries compare across machines.
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err1 := strconv.ParseInt(f[1], 10, 64)
	ns, err2 := strconv.ParseFloat(f[2], 64)
	if err1 != nil || err2 != nil {
		return Entry{}, false
	}
	e := Entry{Name: name, Iterations: iters, NsPerOp: ns}
	for i := 4; i+1 < len(f); i += 2 {
		v, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			continue
		}
		switch f[i+1] {
		case "B/op":
			e.BytesPerOp = v
		case "allocs/op":
			e.AllocsPerOp = v
		}
	}
	return e, true
}

func find(es []Entry, name string) *Entry {
	for i := range es {
		if es[i].Name == name {
			return &es[i]
		}
	}
	return nil
}

func round2(x float64) float64 { return float64(int64(x*100+0.5)) / 100 }
