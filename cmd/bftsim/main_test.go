package main

// Flag-matrix coverage for the orthogonal -engine × -protocol CLI: every
// valid combination runs end to end on a small scenario, every invalid
// combination fails with an actionable error naming the offending flag
// or spec field.

import (
	"fmt"
	"os"
	"path/filepath"
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
	engines := []string{"fast", "ref"}
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

// TestInvalidCombinations checks the actionable rejections.
func TestInvalidCombinations(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"unknown engine", []string{"-engine", "warp"}, "unknown engine"},
		{"reactive is not an engine", []string{"-engine", "reactive"}, "-protocol reactive"},
		{"unknown protocol", []string{"-protocol", "gossip"}, "unknown protocol"},
		{"unknown policy", []string{"-protocol", "reactive", "-policy", "zap"}, "unknown policy"},
		{"policy without reactive", []string{"-protocol", "b", "-policy", "forge"}, "-policy only applies to -protocol reactive"},
		{"mmax without reactive", []string{"-protocol", "koo", "-mmax", "32"}, "-mmax only applies to -protocol reactive"},
		{"m with reactive", []string{"-protocol", "reactive", "-m", "9"}, "-m only applies to -protocol full"},
		{"full without m", []string{"-protocol", "full"}, "protocol full needs m > 0"},
		{"bheter off-torus", []string{"-protocol", "bheter", "-topology", "rgg", "-n", "100", "-t", "1"}, "torus construction"},
		{"jamming adversary with reactive", []string{"-protocol", "reactive", "-adversary", "sandwich"}, "use adversary none or random"},
		{"sandwich off-torus", []string{"-adversary", "sandwich", "-topology", "grid"}, "torus construction"},
		{"figure2 off-torus", []string{"-adversary", "figure2", "-topology", "rgg", "-n", "100", "-t", "1"}, "torus construction"},
		{"unknown adversary", []string{"-adversary", "gremlin"}, "unknown adversary"},
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
	for _, eng := range []string{"fast", "ref"} {
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
	// The trace watches decisions alone, so a traced threshold run still
	// retires its settled transmitters.
	out, _, err = runCLI(t, append([]string{"-trace", "-timing"}, small...)...)
	if err != nil {
		t.Fatal(err)
	}
	var full, frontier, booked, retired int
	_, sends, _ := strings.Cut(out, "timing: sends ")
	if _, err := fmt.Sscanf(sends, "full=%d frontier=%d booked=%d retired=%d", &full, &frontier, &booked, &retired); err != nil ||
		retired == 0 || !strings.Contains(out, `"kind":"accept"`) {
		t.Fatalf("a traced threshold run shows no accept events or no retired sends (%v):\n%s", err, out)
	}
}

// TestGoldenOutput holds the command's whole output to files recorded
// from the binary of the commit before bftsim stopped resolving
// protocol, adversary and policy names itself (testdata/golden/NAME.txt
// is that binary's stdout for the flags below): filling a ScenarioSpec
// must build exactly the scenarios the private name tables built.
func TestGoldenOutput(t *testing.T) {
	reactive := "-w 15 -h 15 -r 2 -t 1 -mf 3 -protocol reactive -adversary random -density 0.06 -seed 5 -policy "
	cases := map[string]string{
		"random-torus":      "-w 20 -h 20 -r 2 -t 3 -mf 2 -adversary random -density 0.1 -seed 5",
		"random-grid":       "-topology grid -w 20 -h 20 -r 2 -t 3 -mf 2 -adversary random -density 0.1 -seed 5",
		"random-rgg":        "-topology rgg -n 300 -t 1 -mf 2 -adversary random -density 0.1 -seed 5",
		"sandwich":          "-w 20 -h 20 -r 2 -t 3 -mf 2 -adversary sandwich",
		"figure2":           "-w 45 -h 45 -r 4 -t 1 -mf 1000 -protocol full -m 59 -adversary figure2",
		"reactive-disrupt":  reactive + "disrupt",
		"reactive-forge":    reactive + "forge",
		"reactive-nackspam": reactive + "nackspam",
		"reactive-mixed":    reactive + "mixed",
		"reactive-rgg-ref":  "-engine ref -topology rgg -n 300 -t 1 -mf 2 -protocol reactive -adversary random -density 0.05 -seed 7",
		"broadcasts8":       "-w 45 -h 45 -r 2 -t 2 -mf 2 -broadcasts 8",
		"bheter-random":     "-w 15 -h 15 -r 2 -t 1 -mf 2 -protocol bheter -adversary random -seed 3",
		"koo-ref-random":    "-engine ref -w 15 -h 15 -r 2 -t 1 -mf 2 -protocol koo -adversary random -seed 3",
	}
	for name, args := range cases {
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "golden", name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := runCLI(t, strings.Fields(args)...)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Fatalf("bftsim %s\ngot:\n%swant:\n%s", args, got, want)
			}
		})
	}
}

// TestTimingFlag checks that -timing appends the phase rows and counts
// and leaves the report lines as an untimed run prints them.
func TestTimingFlag(t *testing.T) {
	for _, eng := range []string{"fast", "ref"} {
		t.Run(eng, func(t *testing.T) {
			args := append([]string{"-engine", eng, "-broadcasts", "4"}, small...)
			plain, _, err := runCLI(t, args...)
			if err != nil {
				t.Fatal(err)
			}
			timed, _, err := runCLI(t, append([]string{"-timing"}, args...)...)
			if err != nil {
				t.Fatal(err)
			}
			report, rows, ok := strings.Cut(timed, "timing: total=")
			if !ok || report != plain {
				t.Fatalf("-timing changed the report or printed no total:\n%s\nuntimed:\n%s", timed, plain)
			}
			for _, want := range []string{"timing: begin", "timing: deliver", "timing: finish", "timing: slots executed=", "timing: sends full="} {
				if !strings.Contains(rows, want) {
					t.Fatalf("-timing output lacks %q:\n%s", want, timed)
				}
			}
		})
	}
}
