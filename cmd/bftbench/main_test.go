package main

import (
	"strings"
	"testing"
)

// TestRunOneExperiment runs one quick experiment through the command's
// seam: it exits nil and prints the experiment's table marked [ok].
func TestRunOneExperiment(t *testing.T) {
	var out, errOut strings.Builder
	if err := run([]string{"-experiment", "E3", "-quick"}, &out, &errOut); err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, errOut.String())
	}
	if !strings.Contains(out.String(), "== E3:") || !strings.Contains(out.String(), "[ok]") {
		t.Fatalf("stdout lacks the E3 table marked [ok]:\n%s", out.String())
	}
}

// TestRunRefusals: an unknown experiment and the deleted -sweep flag
// are errors that print no table.
func TestRunRefusals(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-experiment", "E99"}, `unknown experiment "E99"`},
		{[]string{"-sweep", "12"}, "flag provided but not defined: -sweep"},
	} {
		var out, errOut strings.Builder
		err := run(tc.args, &out, &errOut)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("run(%q) = %v, want an error containing %q", tc.args, err, tc.want)
		}
		if out.Len() != 0 {
			t.Fatalf("run(%q) printed to stdout:\n%s", tc.args, out.String())
		}
	}
}
