package exper

import (
	"bytes"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 12 {
		t.Fatalf("registry has %d experiments, want 12", len(all))
	}
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12"}
	for i, id := range want {
		if all[i].ID != id {
			t.Fatalf("All()[%d] = %s, want %s", i, all[i].ID, id)
		}
		if _, ok := ByID(id); !ok {
			t.Fatalf("ByID(%s) missing", id)
		}
	}
	if _, ok := ByID("E99"); ok {
		t.Fatal("ByID(E99) should not exist")
	}
}

// TestAllExperimentsPassQuick runs the whole suite in quick mode: every
// experiment must reproduce its paper claim's shape.
func TestAllExperimentsPassQuick(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			out, err := e.Run(Options{Quick: true, Seed: 42})
			if err != nil {
				t.Fatalf("%s errored: %v", e.ID, err)
			}
			var buf bytes.Buffer
			if _, err := out.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			if !out.Passed {
				t.Fatalf("%s failed:\n%s", e.ID, buf.String())
			}
			if len(out.Tables) == 0 {
				t.Fatalf("%s produced no tables", e.ID)
			}
			if !strings.Contains(buf.String(), e.ID+":") {
				t.Fatalf("%s output missing header:\n%s", e.ID, buf.String())
			}
		})
	}
}

func TestOutcomeRendering(t *testing.T) {
	o := &Outcome{ID: "EX", Title: "demo", Passed: true}
	o.note("hello %d", 7)
	var buf bytes.Buffer
	if _, err := o.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{"EX: demo [ok]", "note: hello 7"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in:\n%s", want, s)
		}
	}
	o.fail("boom %s", "x")
	buf.Reset()
	if _, err := o.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "[FAILED]") || !strings.Contains(buf.String(), "FAIL: boom x") {
		t.Errorf("failed outcome rendering:\n%s", buf.String())
	}
}

func TestTableRendering(t *testing.T) {
	tbl := newTable("Table 1: demo", "col-a", "col-b", "col-c")
	tbl.addRow("1", "x")
	tbl.addRow("22", "yy", "zz")
	var buf bytes.Buffer
	tbl.render(&buf)
	out := buf.String()
	for _, want := range []string{"Table 1: demo", "col-a", "22", "zz"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // title + header + 2 rows
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), out)
	}
}

func TestTableWithoutTitle(t *testing.T) {
	tbl := newTable("", "a")
	tbl.addRow("1")
	var buf bytes.Buffer
	tbl.render(&buf)
	if strings.HasPrefix(buf.String(), "\n") {
		t.Fatal("leading blank line for untitled table")
	}
}
