// Command mutants runs the repository's mutation table: each row of
// table.txt is a single-line change to one file (an anchor that must
// occur exactly once, and its replacement) and the tests expected to
// fail under it. The runner copies the tree once, applies one row at a
// time, runs go test -json and prints which tests each mutant failed —
// the catch matrix — so a trim of the suite can be checked against it.
//
//	go run -C mutants .                      the full matrix: every row, the whole of each package in its scope
//	go run -C mutants . -run 'M4[0-9]'       only the rows whose id matches
//	go run -C mutants . -o after.json        the matrix, also saved
//	go run -C mutants . -check               each row against its expected catchers only; non-zero on a survivor
//	go run -C mutants . -diff a.json b.json  each test's catches in a that b misses (no run)
//
// A row's scope is the packages its catch lines name plus the package of
// the mutated file. Before any mutant runs, every anchor must occur
// exactly once, every catch line must name a test go test -list finds,
// and the unmutated copy must pass everything the rows will run. -check
// skips the known survivors (rows with a survives line) and fails on an
// expected catcher that passes or a mutant that does not compile. A test
// that an earlier panic kept from running is run again on its own; one
// that still reports nothing is printed as not run, and -diff does not
// count it as a drop.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "mutants:", err)
		os.Exit(1)
	}
}

// result is one row of a saved matrix.
type result struct {
	outcome
	Status string `json:"status"` // caught, survived, build-failed
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("mutants", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		tree    = fs.String("tree", "..", "root of the module to mutate (only copied, never written)")
		table   = fs.String("table", "table.txt", "the mutation table")
		sel     = fs.String("run", "", "only rows whose id matches this regexp")
		check   = fs.Bool("check", false, "run each row's expected catchers only and fail on a survivor")
		outPath = fs.String("o", "", "also write the matrix as JSON to this file")
		diff    = fs.Bool("diff", false, "compare two saved matrices given as arguments; no run")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *diff {
		if fs.NArg() != 2 {
			return fmt.Errorf("-diff wants two matrix files")
		}
		return diffMatrices(fs.Arg(0), fs.Arg(1), stdout)
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}

	all, err := loadTable(*table)
	if err != nil {
		return err
	}
	rows, err := selectRows(all, *sel)
	if err != nil {
		return err
	}
	if err := checkAnchors(*tree, rows); err != nil {
		return err
	}
	module, err := modulePath(*tree)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "mutants-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := copyTree(*tree, dir); err != nil {
		return err
	}
	r := &runner{dir: dir, module: module, log: stderr}
	if err := r.checkNames(rows); err != nil {
		return err
	}
	if err := r.checkBaseline(rows, *check); err != nil {
		return err
	}
	goArgs, want := scope, func(m mutant) []string { return nil }
	if *check {
		goArgs = checkArgs
		want = func(m mutant) []string {
			var refs []string
			for _, c := range m.Catch {
				refs = append(refs, c.String())
			}
			return refs
		}
	} else {
		var pkgs []string
		for _, m := range rows {
			for _, p := range scope(m) {
				if !slices.Contains(pkgs, p) {
					pkgs = append(pkgs, p)
				}
			}
		}
		listed, err := r.listTests(pkgs)
		if err != nil {
			return err
		}
		want = func(m mutant) []string {
			var refs []string
			for ref := range listed {
				if pkg, _, _ := strings.Cut(ref, ":"); slices.Contains(scope(m), pkg) {
					refs = append(refs, ref)
				}
			}
			slices.Sort(refs)
			return refs
		}
	}

	matrix := map[string]result{}
	var problems []string
	start := time.Now()
	for i, m := range rows {
		if *check && m.Survives != "" {
			fmt.Fprintf(stdout, "%-4s survivor  %s — %s\n", m.ID, m.What, m.Survives)
			continue
		}
		t0 := time.Now()
		out, err := r.runMutant(m, goArgs(m), want(m))
		if err != nil {
			return fmt.Errorf("%s: %w", m.ID, err)
		}
		res := result{outcome: out, Status: "survived"}
		switch {
		case out.Build:
			res.Status = "build-failed"
			problems = append(problems, fmt.Sprintf("%s: the mutant does not compile", m.ID))
		case out.caught():
			res.Status = "caught"
		}
		matrix[m.ID] = res
		fmt.Fprintf(stdout, "%-4s %-8s %s\n", m.ID, res.Status, summary(out))
		if len(out.NotRun) > 0 {
			fmt.Fprintf(stdout, "     not run: %s\n", strings.Join(out.NotRun, " "))
		}
		fmt.Fprintf(stderr, "[%d/%d %s %.0fs, %.0fs total]\n", i+1, len(rows), m.ID,
			time.Since(t0).Seconds(), time.Since(start).Seconds())
		switch {
		case out.Build:
		case m.Survives != "" && out.caught():
			fmt.Fprintf(stdout, "     known survivor is caught: replace its survives line with catch lines\n")
		case m.Survives == "":
			for _, c := range m.Catch {
				switch {
				case slices.Contains(out.NotRun, c.String()):
					problems = append(problems, fmt.Sprintf("%s: %s (%s): %s did not run", m.ID, m.What, m.File, c))
				case !out.failed(c):
					problems = append(problems, fmt.Sprintf("%s: %s (%s) survives %s", m.ID, m.What, m.File, c))
				}
			}
		}
	}
	if *outPath != "" {
		data, err := json.MarshalIndent(matrix, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	caught := 0
	for _, res := range matrix {
		if res.Status == "caught" {
			caught++
		}
	}
	fmt.Fprintf(stdout, "%d rows run, %d caught, %d not\n", len(matrix), caught, len(matrix)-caught)
	if len(problems) > 0 {
		return fmt.Errorf("%d expected catches missed:\n  %s", len(problems), strings.Join(problems, "\n  "))
	}
	return nil
}

// summary prints an outcome's failing tests, one entry per top-level test
// with the number of its failing cells (leaf subtests); the saved matrix
// keeps every failing name.
func summary(o outcome) string {
	if !o.caught() {
		return "-"
	}
	var parts []string
	for _, p := range o.Broken {
		parts = append(parts, p+":(package)")
	}
	leaves := leafTests(o.Failed)
	count := map[string]int{}
	var tops []string
	for _, l := range leaves {
		top := topOf(l)
		if !slices.Contains(tops, top) {
			tops = append(tops, top)
		}
		if top != l {
			count[top]++
		}
	}
	for _, top := range tops {
		if k := count[top]; k > 0 {
			parts = append(parts, fmt.Sprintf("%s[%d]", top, k))
		} else {
			parts = append(parts, top)
		}
	}
	return strings.Join(parts, " ")
}

// leafTests keeps the failing names that no other failing name extends:
// the cells that failed, or the test itself when it has none.
func leafTests(failed []string) []string {
	var out []string
	for _, f := range failed {
		leaf := true
		for _, g := range failed {
			if strings.HasPrefix(g, f+"/") {
				leaf = false
				break
			}
		}
		if leaf {
			out = append(out, f)
		}
	}
	return out
}

// diffMatrices compares two saved matrices row by row, a row's catchers
// being its failing top-level tests and the packages that broke without
// one. A catcher of a row in a that is not one in b is dropped: a trim
// must leave each test catching what it caught, so any drop makes the
// exit status non-zero. A catcher that b lists as not run is reported as
// such and is not a drop: nothing says it would pass. A row caught in a
// and not at all in b is also LOST; a row that b's catchers only extend
// is listed as gained.
func diffMatrices(aPath, bPath string, w io.Writer) error {
	read := func(path string) (map[string]result, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		m := map[string]result{}
		return m, json.Unmarshal(data, &m)
	}
	a, err := read(aPath)
	if err != nil {
		return err
	}
	b, err := read(bPath)
	if err != nil {
		return err
	}
	ids := make([]string, 0, len(a))
	for id := range a {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	lost, dropped, same := 0, 0, 0
	for _, id := range ids {
		ra, rb := a[id], b[id]
		if _, ok := b[id]; !ok {
			fmt.Fprintf(w, "%-4s missing from %s\n", id, bPath)
		}
		ca, cb := catchers(ra.outcome), catchers(rb.outcome)
		var gone, notRun []string
		for _, c := range ca {
			switch {
			case slices.Contains(rb.NotRun, c):
				notRun = append(notRun, c)
			case !slices.Contains(cb, c):
				gone = append(gone, c)
			}
		}
		if len(notRun) > 0 {
			fmt.Fprintf(w, "%-4s not run   %s\n", id, strings.Join(notRun, " "))
		}
		switch {
		case len(gone) > 0:
			dropped += len(gone)
			tag := "dropped"
			if len(cb) == 0 {
				tag = "LOST"
				lost++
			}
			fmt.Fprintf(w, "%-4s %-9s %s\n", id, tag, strings.Join(gone, " "))
		case len(notRun) > 0:
		case !slices.Equal(ca, cb):
			fmt.Fprintf(w, "%-4s gained    %s\n     -> %s\n", id, summary(ra.outcome), summary(rb.outcome))
		default:
			same++
		}
	}
	fmt.Fprintf(w, "%d rows in %s: %d lost, %d catches dropped, %d rows caught by the same tests\n",
		len(ids), aPath, lost, dropped, same)
	if dropped > 0 {
		return fmt.Errorf("%d catches in %s are missing in %s (%d rows lost)", dropped, aPath, bPath, lost)
	}
	return nil
}

// catchers is the sorted set of an outcome's failing top-level tests and
// of its packages that broke without a failing test, as pkg:(package).
func catchers(o outcome) []string {
	var out []string
	for _, f := range o.Failed {
		if top := topOf(f); !slices.Contains(out, top) {
			out = append(out, top)
		}
	}
	for _, p := range o.Broken {
		out = append(out, p+":(package)")
	}
	slices.Sort(out)
	return out
}

// topOf cuts a failing name, pkg:Test/cell, to its top-level test.
func topOf(name string) string {
	c := strings.Index(name, ":")
	if i := strings.Index(name[c+1:], "/"); i >= 0 {
		return name[:c+1+i]
	}
	return name
}
