package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tinyRun runs the tool over testdata/tiny with the given table text.
func tinyRun(t *testing.T, table string, args ...string) (string, error) {
	t.Helper()
	return treeRun(t, "testdata/tiny", table, args...)
}

// treeRun runs the tool over tree with the given table text.
func treeRun(t *testing.T, tree, table string, args ...string) (string, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "table.txt")
	if err := writeFile(path, table); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	err := run(append([]string{"-tree", tree, "-table", path}, args...), &out, &errOut)
	return out.String(), err
}

const caughtRow = `
id      T01
file    tiny.go
anchor  return a + b
replace return a - b
what    Add subtracts
catch   . TestAdd
`

func TestCheckPassesOnACaughtMutant(t *testing.T) {
	out, err := tinyRun(t, caughtRow, "-check")
	if err != nil {
		t.Fatalf("-check: %v\n%s", err, out)
	}
	if !strings.Contains(out, "T01  caught") {
		t.Fatalf("no caught line for T01:\n%s", out)
	}
}

func TestMatrixCountsCells(t *testing.T) {
	out, err := tinyRun(t, caughtRow)
	if err != nil {
		t.Fatalf("matrix: %v\n%s", err, out)
	}
	// Add(0, 0) is 0 either way, so one of TestAdd's two cells fails.
	if !strings.Contains(out, ".:TestAdd[1]") {
		t.Fatalf("want TestAdd with one failing cell:\n%s", out)
	}
}

// A replacement equal to its anchor changes nothing, so the row must
// show as a survivor and fail -check: the check cannot pass vacuously.
func TestIdentityMutantSurvivesCheck(t *testing.T) {
	out, err := tinyRun(t, strings.Replace(caughtRow, "return a - b", "return a + b", 1), "-check")
	if err == nil || !strings.Contains(err.Error(), "survives .:TestAdd") {
		t.Fatalf("-check on an identity mutant: err %v\n%s", err, out)
	}
	if !strings.Contains(out, "T01  survived") {
		t.Fatalf("no survived line for T01:\n%s", out)
	}
}

// A catcher that already fails on the unmutated tree would count as a
// catch under any mutant, so the run is refused before a row is applied.
func TestBaselineFailureIsRefused(t *testing.T) {
	tree := t.TempDir()
	if err := copyTree("testdata/tiny", tree); err != nil {
		t.Fatal(err)
	}
	src := filepath.Join(tree, "tiny.go")
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFile(src, strings.Replace(string(data), "return a + b", "return a - b", 1)); err != nil {
		t.Fatal(err)
	}
	row := strings.Replace(caughtRow, "anchor  return a + b", "anchor  return a - b", 1)
	row = strings.Replace(row, "replace return a - b", "replace return a * b", 1)
	for _, args := range [][]string{{"-check"}, nil} {
		out, err := treeRun(t, tree, row, args...)
		if err == nil || !strings.Contains(err.Error(), "unmutated copy already fails") ||
			!strings.Contains(err.Error(), ".:TestAdd") {
			t.Errorf("%v: err %v, want the baseline failure of TestAdd", args, err)
		}
		if strings.Contains(out, "T01") {
			t.Errorf("%v: the row ran:\n%s", args, out)
		}
	}
}

// -diff fails when a test stops catching a row, even if another test
// still catches it; a row a test newly catches is not a failure.
func TestDiffPerTest(t *testing.T) {
	dir := t.TempDir()
	write := func(name, text string) string {
		path := filepath.Join(dir, name)
		if err := writeFile(path, text); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", `{
  "X1": {"failed": [".:TestA", ".:TestB/cell1"], "status": "caught"},
  "X2": {"failed": [".:TestA"], "status": "caught"},
  "X3": {"status": "survived"}
}`)
	gained := write("gained.json", `{
  "X1": {"failed": [".:TestA", ".:TestB/cell2"], "status": "caught"},
  "X2": {"failed": [".:TestA", ".:TestB"], "status": "caught"},
  "X3": {"failed": [".:TestB"], "status": "caught"}
}`)
	dropped := write("dropped.json", `{
  "X1": {"failed": [".:TestA"], "status": "caught"},
  "X2": {"status": "survived"},
  "X3": {"status": "survived"}
}`)
	var out bytes.Buffer
	if err := diffMatrices(a, gained, &out); err != nil {
		t.Fatalf("a -> gained: %v\n%s", err, out.String())
	}
	out.Reset()
	err := diffMatrices(a, dropped, &out)
	if err == nil || !strings.Contains(err.Error(), "2 catches") {
		t.Fatalf("a -> dropped: err %v\n%s", err, out.String())
	}
	for _, want := range []string{"X1   dropped   .:TestB", "X2   LOST      .:TestA"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("no %q in:\n%s", want, out.String())
		}
	}
}

func TestAnchorMustMatchOnce(t *testing.T) {
	for anchor, want := range map[string]string{
		"return a * b": "found 0 times",
		"a + ":         "found 2 times",
	} {
		_, err := tinyRun(t, strings.Replace(caughtRow, "return a + b", anchor, 1), "-check")
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("anchor %q: err %v, want %q", anchor, err, want)
		}
	}
}

func TestCatchMustNameAListedTest(t *testing.T) {
	_, err := tinyRun(t, strings.Replace(caughtRow, "TestAdd", "TestAddRenamed", 1), "-check")
	if err == nil || !strings.Contains(err.Error(), ".:TestAddRenamed is not a test go test -list finds") {
		t.Fatalf("err %v, want a refusal of the unlisted test", err)
	}
}

func TestBrokenBuildIsAProblem(t *testing.T) {
	_, err := tinyRun(t, strings.Replace(caughtRow, "return a - b", "return a - ", 1), "-check")
	if err == nil || !strings.Contains(err.Error(), "does not compile") {
		t.Fatalf("err %v, want the build failure reported", err)
	}
}

func TestParseTableRefusals(t *testing.T) {
	for name, text := range map[string]string{
		"no catch":   "id A\nfile f.go\nanchor x\nreplace y\nwhat w\n",
		"both":       "id A\nfile f.go\nanchor x\nreplace y\nwhat w\ncatch . TestX\nsurvives because\n",
		"no replace": "id A\nfile f.go\nanchor x\nwhat w\ncatch . TestX\n",
		"dup id":     "id A\nfile f.go\nanchor x\nreplace y\nwhat w\ncatch . TestX\n\nid A\nfile f.go\nanchor z\nreplace y\nwhat w\ncatch . TestX\n",
		"bad key":    "id A\nfile f.go\nanchor x\nreplace y\nwhat w\ncatch . TestX\nwhy not\n",
	} {
		if _, err := parseTable(strings.NewReader(text)); err == nil {
			t.Errorf("%s: parsed", name)
		}
	}
}

func TestTopOf(t *testing.T) {
	for in, want := range map[string]string{
		"./internal/sim:TestA/b/c": "./internal/sim:TestA",
		".:TestA":                  ".:TestA",
	} {
		if got := topOf(in); got != want {
			t.Errorf("topOf(%q) = %q, want %q", in, got, want)
		}
	}
}

func writeFile(path, text string) error { return os.WriteFile(path, []byte(text), 0o644) }

// A mutant that panics in TestAdd stops the package's test binary, so
// TestTwice and TestSum report nothing; each is run again on its own,
// which shows that TestSum, which calls Add, catches the row and
// TestTwice does not.
func TestPanicReRunsSilentTests(t *testing.T) {
	row := strings.Replace(caughtRow, "replace return a - b", `replace panic("boom")`, 1)
	out, err := tinyRun(t, row)
	if err != nil {
		t.Fatalf("matrix: %v\n%s", err, out)
	}
	if !strings.Contains(out, ".:TestAdd[1] .:TestSum") || strings.Contains(out, "TestTwice") || strings.Contains(out, "not run") {
		t.Fatalf("want TestAdd and, run again alone, TestSum caught:\n%s", out)
	}
	if out, err := tinyRun(t, strings.Replace(row, "catch   . TestAdd", "catch   . TestAdd TestSum", 1), "-check"); err != nil {
		t.Fatalf("-check: %v\n%s", err, out)
	}
}

// A mutant that panics while the package initialises leaves every test
// silent, alone or not: they are listed as not run, an expected catcher
// among them is reported as not run rather than as a survivor, and -diff
// does not count a catch of one as dropped.
func TestNotRunIsNotSurvived(t *testing.T) {
	row := "id T02\nfile tiny.go\nanchor package tiny\nreplace package tiny; var _ = func() int { panic(\"init\") }()\nwhat init panics\ncatch . TestSum\n"
	dir := t.TempDir()
	matrix := filepath.Join(dir, "b.json")
	out, err := tinyRun(t, row, "-o", matrix)
	if err == nil || !strings.Contains(err.Error(), ".:TestSum did not run") {
		t.Fatalf("matrix: err %v, want TestSum reported as not run", err)
	}
	if !strings.Contains(out, "not run: .:TestAdd .:TestSum .:TestTwice") {
		t.Fatalf("want every test listed as not run:\n%s", out)
	}
	a := filepath.Join(dir, "a.json")
	if err := writeFile(a, `{"T02": {"failed": [".:TestSum"], "status": "caught"}}`); err != nil {
		t.Fatal(err)
	}
	var diff bytes.Buffer
	if err := diffMatrices(a, matrix, &diff); err != nil || !strings.Contains(diff.String(), "T02  not run   .:TestSum") {
		t.Fatalf("-diff: err %v\n%s", err, diff.String())
	}
}
