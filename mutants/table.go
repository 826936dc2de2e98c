package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// A mutant is one row of the table: a single-line change to one file of
// the tree and the tests that must fail under it — or, for a known
// survivor, why no test can.
type mutant struct {
	ID       string
	File     string // slash-separated, relative to the tree's root
	Anchor   string // text that occurs exactly once in File
	Replace  string // what the anchor becomes
	What     string // one line: what the change breaks
	Catch    []testRef
	Survives string // the reason a known survivor survives; empty otherwise
	line     int    // where the row starts in the table, for messages
	replaced bool   // the row has a replace line (an empty one deletes the anchor)
}

// A testRef names a top-level test of a package, the package as a
// directory relative to the tree ("." or "./internal/sim").
type testRef struct{ Pkg, Test string }

func (r testRef) String() string { return r.Pkg + ":" + r.Test }

// pkgOf is the package directory of a tree-relative file, in the go
// command's "./dir" form.
func pkgOf(file string) string {
	dir := filepath.ToSlash(filepath.Dir(file))
	if dir == "." {
		return "."
	}
	return "./" + dir
}

// unescape turns \t, \n and \\ in an anchor or replacement into a tab,
// a newline and a backslash, so an anchor can pin the indentation or the
// start of a line when the same text occurs twice in the file.
var unescape = strings.NewReplacer(`\\`, `\`, `\t`, "\t", `\n`, "\n")

// parseTable reads the table: rows of "key value" lines separated by
// blank lines, '#' lines being comments. The keys are id, file, anchor,
// replace, what, catch (a package and one or more of its tests; repeat
// the key for another package) and survives. A row has catch lines or a
// survives line, not both.
func parseTable(r io.Reader) ([]mutant, error) {
	var (
		out  []mutant
		cur  *mutant
		seen = map[string]int{}
		errs []string
	)
	finish := func() {
		if cur == nil {
			return
		}
		m := *cur
		cur = nil
		switch {
		case m.ID == "":
			errs = append(errs, fmt.Sprintf("line %d: row without an id", m.line))
		case seen[m.ID] != 0:
			errs = append(errs, fmt.Sprintf("line %d: id %s already used on line %d", m.line, m.ID, seen[m.ID]))
		case m.File == "" || m.Anchor == "" || !m.replaced || m.What == "":
			errs = append(errs, fmt.Sprintf("line %d: %s needs file, anchor, replace and what", m.line, m.ID))
		case len(m.Catch) == 0 && m.Survives == "":
			errs = append(errs, fmt.Sprintf("line %d: %s names no catching test and no survives reason", m.line, m.ID))
		case len(m.Catch) > 0 && m.Survives != "":
			errs = append(errs, fmt.Sprintf("line %d: %s has both catch and survives lines", m.line, m.ID))
		default:
			seen[m.ID] = m.line
			out = append(out, m)
		}
	}
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			finish()
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		key, val, _ := strings.Cut(line, " ")
		val = strings.TrimSpace(val)
		if cur == nil {
			cur = &mutant{line: n}
		}
		switch key {
		case "id":
			cur.ID = val
		case "file":
			cur.File = val
		case "anchor":
			cur.Anchor = unescape.Replace(val)
		case "replace":
			cur.Replace, cur.replaced = unescape.Replace(val), true
		case "what":
			cur.What = val
		case "survives":
			cur.Survives = val
		case "catch":
			f := strings.Fields(val)
			if len(f) < 2 {
				errs = append(errs, fmt.Sprintf("line %d: catch wants a package and at least one test", n))
				continue
			}
			for _, test := range f[1:] {
				cur.Catch = append(cur.Catch, testRef{Pkg: f[0], Test: test})
			}
		default:
			errs = append(errs, fmt.Sprintf("line %d: unknown key %q", n, key))
		}
	}
	finish()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(errs) > 0 {
		return nil, fmt.Errorf("table:\n  %s", strings.Join(errs, "\n  "))
	}
	return out, nil
}

func loadTable(path string) ([]mutant, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parseTable(f)
}

// selectRows keeps the rows whose id matches pattern (all of them for "").
func selectRows(ms []mutant, pattern string) ([]mutant, error) {
	if pattern == "" {
		return ms, nil
	}
	re, err := regexp.Compile(pattern)
	if err != nil {
		return nil, err
	}
	var out []mutant
	for _, m := range ms {
		if re.MatchString(m.ID) {
			out = append(out, m)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-run %q selects no row", pattern)
	}
	return out, nil
}

// checkAnchors refuses every row whose anchor does not occur exactly
// once in its file under tree, so a row cannot quietly mutate the wrong
// line or nothing at all after the code moves.
func checkAnchors(tree string, ms []mutant) error {
	var errs []string
	files := map[string][]byte{}
	for _, m := range ms {
		src, ok := files[m.File]
		if !ok {
			var err error
			if src, err = os.ReadFile(filepath.Join(tree, filepath.FromSlash(m.File))); err != nil {
				errs = append(errs, fmt.Sprintf("%s: %v", m.ID, err))
				continue
			}
			files[m.File] = src
		}
		if k := bytes.Count(src, []byte(m.Anchor)); k != 1 {
			errs = append(errs, fmt.Sprintf("%s: anchor %q found %d times in %s, want once", m.ID, m.Anchor, k, m.File))
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("anchors:\n  %s", strings.Join(errs, "\n  "))
	}
	return nil
}

// apply returns src with m's anchor replaced.
func apply(src []byte, m mutant) []byte {
	return bytes.Replace(src, []byte(m.Anchor), []byte(m.Replace), 1)
}
