package main

// Flag-matrix coverage for the orthogonal -engine × -protocol CLI: every
// valid combination runs end to end on a small scenario, every invalid
// combination fails with an actionable error naming the offending flags.

import (
	"strings"
	"testing"
)

// runCLI executes the command with args and returns stdout, stderr and
// the error.
func runCLI(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	var out, errOut strings.Builder
	err := run(args, &out, &errOut)
	return out.String(), errOut.String(), err
}

// small keeps the matrix fast: a 15×15 torus with gentle parameters that
// every engine×protocol cell completes.
var small = []string{"-w", "15", "-h", "15", "-r", "2", "-t", "1", "-mf", "2"}

func TestEngineProtocolMatrix(t *testing.T) {
	engines := []string{"fast", "ref", "actor"}
	protocols := []string{"b", "bheter", "koo", "reactive"}
	for _, eng := range engines {
		for _, proto := range protocols {
			t.Run(eng+"/"+proto, func(t *testing.T) {
				args := append([]string{"-engine", eng, "-protocol", proto}, small...)
				out, _, err := runCLI(t, args...)
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				if !strings.Contains(out, "engine="+eng) {
					t.Fatalf("report names the wrong engine:\n%s", out)
				}
				if !strings.Contains(out, "protocol="+proto) {
					t.Fatalf("report names the wrong protocol:\n%s", out)
				}
				if !strings.Contains(out, "completed=true") {
					t.Fatalf("%s/%s did not complete:\n%s", eng, proto, out)
				}
				if proto == "reactive" && !strings.Contains(out, "reactive: rounds=") {
					t.Fatalf("reactive run missing its extension line:\n%s", out)
				}
			})
		}
	}
}

// TestReactiveAdversarialMatrix runs the reactive protocol with its
// policy-driven adversary on both slot-level engines.
func TestReactiveAdversarialMatrix(t *testing.T) {
	for _, eng := range []string{"fast", "ref"} {
		args := append([]string{"-engine", eng, "-protocol", "reactive",
			"-adversary", "random", "-density", "0.06", "-policy", "disrupt"}, small...)
		out, _, err := runCLI(t, args...)
		if err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		if !strings.Contains(out, "completed=true") {
			t.Fatalf("%s adversarial reactive did not complete:\n%s", eng, out)
		}
	}
}

// TestDeprecatedReactiveEngineAlias pins the -engine reactive alias:
// still runs (as fast+reactive, reporting engine=reactive), warns on
// stderr, and rejects a contradictory static -protocol.
func TestDeprecatedReactiveEngineAlias(t *testing.T) {
	out, errOut, err := runCLI(t, append([]string{"-engine", "reactive"}, small...)...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "engine=reactive") || !strings.Contains(out, "protocol=reactive") {
		t.Fatalf("alias did not run the reactive protocol:\n%s", out)
	}
	if !strings.Contains(errOut, "deprecated") {
		t.Fatalf("alias did not warn: %q", errOut)
	}
	if _, _, err := runCLI(t, append([]string{"-engine", "reactive", "-protocol", "b"}, small...)...); err == nil ||
		!strings.Contains(err.Error(), "-engine reactive") {
		t.Fatalf("alias with -protocol b: err = %v, want conflict", err)
	}
}

// TestInvalidCombinations checks the actionable rejections.
func TestInvalidCombinations(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"unknown engine", []string{"-engine", "warp"}, "unknown engine"},
		{"unknown protocol", []string{"-protocol", "gossip"}, "unknown protocol"},
		{"unknown policy", []string{"-protocol", "reactive", "-policy", "zap"}, "unknown policy"},
		{"policy without reactive", []string{"-protocol", "b", "-policy", "forge"}, "-policy only applies to -protocol reactive"},
		{"mmax without reactive", []string{"-protocol", "koo", "-mmax", "32"}, "-mmax only applies to -protocol reactive"},
		{"m with reactive", []string{"-protocol", "reactive", "-m", "9"}, "-m only applies to -protocol full"},
		{"full without m", []string{"-protocol", "full"}, "-protocol full needs -m"},
		{"bheter off-torus", []string{"-protocol", "bheter", "-topology", "rgg", "-n", "100", "-t", "1"}, "torus construction"},
		{"jamming adversary with reactive", []string{"-protocol", "reactive", "-adversary", "sandwich"}, "use -adversary none or random"},
		{"actor with adversary", []string{"-engine", "actor", "-adversary", "random"}, "fault-free"},
		{"strategy adversary on actor via reactive", []string{"-engine", "actor", "-protocol", "reactive", "-adversary", "random"}, "fault-free"},
		{"broadcasts with reactive", []string{"-protocol", "reactive", "-broadcasts", "4"}, "-broadcasts runs the threshold protocol family"},
		{"negative broadcasts", []string{"-broadcasts", "-3"}, "Broadcasts"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := runCLI(t, append(tc.args, small...)...)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestBroadcastsFlag runs the multi-broadcast traffic mode through the
// CLI on every engine and checks the multi summary line appears with a
// strict batching win.
func TestBroadcastsFlag(t *testing.T) {
	for _, eng := range []string{"fast", "ref", "actor"} {
		t.Run(eng, func(t *testing.T) {
			args := append([]string{"-engine", eng, "-broadcasts", "8"}, small...)
			out, _, err := runCLI(t, args...)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if !strings.Contains(out, "completed=true") {
				t.Fatalf("%s multi run did not complete:\n%s", eng, out)
			}
			if !strings.Contains(out, "multi: broadcasts=8 completed=8/8") {
				t.Fatalf("multi summary line missing or incomplete:\n%s", out)
			}
		})
	}
	t.Run("broadcasts-1-matches-single", func(t *testing.T) {
		single, _, err := runCLI(t, small...)
		if err != nil {
			t.Fatal(err)
		}
		multi, _, err := runCLI(t, append([]string{"-broadcasts", "1"}, small...)...)
		if err != nil {
			t.Fatal(err)
		}
		if single != multi {
			t.Fatalf("-broadcasts 1 changed the output:\nsingle:\n%s\nmulti:\n%s", single, multi)
		}
	})
}

// TestTraceFlag smoke-tests the JSONL tracer through the CLI seam.
func TestTraceFlag(t *testing.T) {
	out, _, err := runCLI(t, append([]string{"-protocol", "reactive", "-trace"}, small...)...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `"kind":"accept"`) {
		t.Fatalf("trace output missing accept events:\n%s", out[:min(400, len(out))])
	}
}
