package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"time"
)

// skipDirs are not copied, nor is any directory whose name starts with a
// dot (version control, editor and CI settings): the separate modules,
// which the root module's packages never import.
var skipDirs = map[string]bool{"bench": true, "mutants": true}

// copyTree copies the regular files of the module at src into dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			if rel != "." && (skipDirs[filepath.ToSlash(rel)] || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, info.Mode().Perm())
	})
}

// modulePath reads the module line of dir/go.mod.
func modulePath(dir string) (string, error) {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return f[1], nil
		}
	}
	return "", fmt.Errorf("%s/go.mod has no module line", dir)
}

// testEvent is the part of a go test -json event the runner reads.
type testEvent struct {
	Action      string
	Package     string
	Test        string
	Output      string
	FailedBuild string
}

// outcome is what one go test run of a mutant showed.
type outcome struct {
	// Failed lists every failing test and subtest as pkg:Name, pkg in the
	// table's "./dir" form.
	Failed []string `json:"failed,omitempty"`
	// Broken lists the packages that failed without a failing test: a
	// timeout, a panic outside a test, a failed build or vet.
	Broken []string `json:"broken,omitempty"`
	// Build is set when the mutant did not compile.
	Build bool `json:"build_failed,omitempty"`
	// NotRun lists, as pkg:Name, the top-level tests that reported
	// nothing, even when run on their own: a test that an earlier panic
	// kept from running is run again under its own -run, and lands here
	// only if that run cannot report either.
	NotRun []string `json:"not_run,omitempty"`

	reported map[string]bool // the top-level tests that passed, failed or skipped
	stopped  []string        // the packages whose test binary failed after building
}

func (o outcome) caught() bool { return len(o.Failed) > 0 || len(o.Broken) > 0 }

// failed reports whether ref's test failed.
func (o outcome) failed(ref testRef) bool {
	return slices.Contains(o.Failed, ref.String())
}

// testTimeout is go test's -timeout for each run: a mutant that hangs a
// test is caught when it expires.
const testTimeout = 3 * time.Minute

// runner runs go test in a copy of the tree.
type runner struct {
	dir    string // the copy
	module string
	log    io.Writer // go test's stderr and the runner's progress
}

// rel maps an import path to the table's package form.
func (r *runner) rel(importPath string) string {
	if importPath == r.module {
		return "."
	}
	return "./" + strings.TrimPrefix(importPath, r.module+"/")
}

// goTest runs go test -json with args in the copy and folds its events.
func (r *runner) goTest(args ...string) (outcome, error) {
	cmd := exec.Command("go", append([]string{"test", "-json", "-count=1", "-vet=off",
		"-timeout", testTimeout.String()}, args...)...)
	cmd.Dir = r.dir
	cmd.Stderr = r.log
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return outcome{}, err
	}
	if err := cmd.Start(); err != nil {
		return outcome{}, err
	}
	var (
		out         = outcome{reported: map[string]bool{}}
		pkgFailed   = map[string]bool{}
		pkgHasFail  = map[string]bool{}
		failedTests = map[string]bool{}
	)
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		var e testEvent
		if json.Unmarshal(sc.Bytes(), &e) != nil {
			continue
		}
		pkg := r.rel(e.Package)
		if e.Test != "" && !strings.Contains(e.Test, "/") && (e.Action == "pass" || e.Action == "fail" || e.Action == "skip") {
			out.reported[pkg+":"+e.Test] = true
		}
		switch {
		case e.Action == "build-fail":
			out.Build = true
		case e.Action == "fail" && e.Test != "":
			failedTests[pkg+":"+e.Test] = true
			pkgHasFail[pkg] = true
		case e.Action == "fail":
			pkgFailed[pkg] = true
			if e.FailedBuild != "" {
				out.Build = true
			}
		}
	}
	waitErr := cmd.Wait()
	var exit *exec.ExitError
	if waitErr != nil && !errors.As(waitErr, &exit) {
		return outcome{}, waitErr
	}
	if err := sc.Err(); err != nil {
		return outcome{}, err
	}
	for t := range failedTests {
		out.Failed = append(out.Failed, t)
	}
	for p := range pkgFailed {
		if !pkgHasFail[p] {
			out.Broken = append(out.Broken, p)
		}
		if !out.Build {
			out.stopped = append(out.stopped, p)
		}
	}
	slices.Sort(out.Failed)
	slices.Sort(out.Broken)
	slices.Sort(out.stopped)
	return out, nil
}

// rerunSilent runs on its own, under its own -run, each test of want that
// out heard nothing from in a package whose binary failed — an earlier
// panic stops the binary before later tests run — and folds in what it
// shows: a failure is a catch, and a test that reports nothing again is
// listed as not run, never as survived.
func (r *runner) rerunSilent(out *outcome, want []string) error {
	for _, ref := range want {
		pkg, test, _ := strings.Cut(ref, ":")
		if out.reported[ref] || !slices.Contains(out.stopped, pkg) {
			continue
		}
		alone, err := r.goTest("-run", "^"+test+"$", pkg)
		if err != nil {
			return err
		}
		switch {
		case slices.Contains(alone.Failed, ref):
			for _, f := range alone.Failed {
				if f == ref || strings.HasPrefix(f, ref+"/") {
					out.Failed = append(out.Failed, f)
				}
			}
		case !alone.reported[ref]:
			out.NotRun = append(out.NotRun, ref)
		}
	}
	slices.Sort(out.Failed)
	return nil
}

var testName = regexp.MustCompile(`^(Test|Example|Fuzz)\w*$`)

// listTests returns the top-level tests and examples of pkgs, keyed
// pkg:Name, as go test -list reports them.
func (r *runner) listTests(pkgs []string) (map[string]bool, error) {
	cmd := exec.Command("go", append([]string{"test", "-json", "-vet=off", "-list", "."}, pkgs...)...)
	cmd.Dir = r.dir
	cmd.Stderr = r.log
	data, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go test -list: %w", err)
	}
	out := map[string]bool{}
	for _, line := range bytes.Split(data, []byte("\n")) {
		var e testEvent
		if json.Unmarshal(line, &e) != nil || e.Action != "output" {
			continue
		}
		if name := strings.TrimSpace(e.Output); testName.MatchString(name) {
			out[r.rel(e.Package)+":"+name] = true
		}
	}
	return out, nil
}

// checkNames refuses every catch line that names a test go test -list
// does not find, so a renamed or deleted test cannot rot the table.
func (r *runner) checkNames(ms []mutant) error {
	var pkgs []string
	for _, m := range ms {
		for _, c := range m.Catch {
			if !slices.Contains(pkgs, c.Pkg) {
				pkgs = append(pkgs, c.Pkg)
			}
		}
	}
	if len(pkgs) == 0 {
		return nil
	}
	have, err := r.listTests(pkgs)
	if err != nil {
		return err
	}
	var errs []string
	for _, m := range ms {
		for _, c := range m.Catch {
			if !have[c.String()] {
				errs = append(errs, fmt.Sprintf("%s: %s is not a test go test -list finds", m.ID, c))
			}
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("catch lines:\n  %s", strings.Join(errs, "\n  "))
	}
	return nil
}

// checkBaseline runs on the unmutated copy everything the rows will run
// (under -check, every expected catcher but the survivors') and refuses
// to go on when any of it fails: a test that fails without a mutant
// would count as a catch under every row.
func (r *runner) checkBaseline(ms []mutant, check bool) error {
	var (
		catch []testRef
		pkgs  []string
	)
	for _, m := range ms {
		if check && m.Survives != "" {
			continue
		}
		catch = append(catch, m.Catch...)
		for _, p := range scope(m) {
			if !slices.Contains(pkgs, p) {
				pkgs = append(pkgs, p)
			}
		}
	}
	if len(pkgs) == 0 {
		return nil
	}
	args := pkgs
	if check {
		args = checkArgs(mutant{Catch: catch})
	}
	out, err := r.goTest(args...)
	if err != nil {
		return fmt.Errorf("unmutated copy: %w", err)
	}
	if out.caught() {
		return fmt.Errorf("the unmutated copy already fails what the rows run: %s", summary(out))
	}
	return nil
}

// scope is what a matrix run tests for m: the packages its catch lines
// name and the mutated file's package.
func scope(m mutant) []string {
	var pkgs []string
	add := func(p string) {
		if !slices.Contains(pkgs, p) {
			pkgs = append(pkgs, p)
		}
	}
	for _, c := range m.Catch {
		add(c.Pkg)
	}
	add(pkgOf(m.File))
	return pkgs
}

// runMutant applies m to the copy, runs go test with args, runs again
// each test of want a failed binary kept from reporting (see
// rerunSilent) and puts the file back.
func (r *runner) runMutant(m mutant, args, want []string) (outcome, error) {
	path := filepath.Join(r.dir, filepath.FromSlash(m.File))
	orig, err := os.ReadFile(path)
	if err != nil {
		return outcome{}, err
	}
	if err := os.WriteFile(path, apply(orig, m), 0o644); err != nil {
		return outcome{}, err
	}
	out, err := r.goTest(args...)
	if err == nil {
		err = r.rerunSilent(&out, want)
	}
	if werr := os.WriteFile(path, orig, 0o644); err == nil {
		err = werr // the next row must start from the original file
	}
	return out, err
}

// checkArgs runs only m's expected catchers.
func checkArgs(m mutant) []string {
	var names, pkgs []string
	for _, c := range m.Catch {
		if !slices.Contains(names, c.Test) {
			names = append(names, c.Test)
		}
		if !slices.Contains(pkgs, c.Pkg) {
			pkgs = append(pkgs, c.Pkg)
		}
	}
	return append([]string{"-run", "^(" + strings.Join(names, "|") + ")$"}, pkgs...)
}
