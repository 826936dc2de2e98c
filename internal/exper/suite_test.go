package exper

import (
	"bytes"
	"errors"
	"testing"
)

// renderSuite runs every experiment through RunMany and concatenates the
// outcomes as bftbench prints them.
func renderSuite(t *testing.T, opts Options) []byte {
	t.Helper()
	outs, err := RunMany(All(), opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, o := range outs {
		if _, err := o.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestRunManyDeterministicAcrossWorkerCounts: the quick suite renders
// byte-identically on 1 worker and on 8 sweep workers.
func TestRunManyDeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick suite twice")
	}
	seq := renderSuite(t, Options{Quick: true, Seed: 42, Workers: 1})
	par := renderSuite(t, Options{Quick: true, Seed: 42, Workers: 8})
	if !bytes.Equal(seq, par) {
		t.Fatal("parallel harness output differs from sequential")
	}
}

// TestSuiteGoldenSeed42 pins the text of `bftbench -seed 42` (and of
// `-workers 4`): every table of E1–E12 byte for byte. A change that is
// meant to move a number re-records the file with -update-golden and
// shows the diff; anything else that moves it is a regression.
func TestSuiteGoldenSeed42(t *testing.T) {
	seq := renderSuite(t, Options{Seed: 42})
	checkGolden(t, "suite_seed42.txt", seq)
	if par := renderSuite(t, Options{Seed: 42, Workers: 4}); !bytes.Equal(seq, par) {
		t.Fatal("parallel harness output differs from sequential")
	}
}

// TestRunManyWrapsErrors: a failing experiment's error names the
// experiment, earlier outcomes survive, and every experiment gets the
// whole worker budget for its own sweep.
func TestRunManyWrapsErrors(t *testing.T) {
	var workers int
	es := []Experiment{
		{ID: "EOK", Title: "ok", Run: func(opts Options) (*Outcome, error) {
			workers = opts.Workers
			return &Outcome{ID: "EOK", Passed: true}, nil
		}},
		{ID: "EBAD", Title: "bad", Run: func(Options) (*Outcome, error) {
			return nil, errors.New("kaput")
		}},
	}
	outs, err := RunMany(es, Options{Workers: 8})
	if err == nil || err.Error() != "EBAD: kaput" {
		t.Fatalf("err = %v, want EBAD: kaput", err)
	}
	if outs[0] == nil || !outs[0].Passed || outs[1] != nil {
		t.Fatalf("outcomes = %v, want [ok, nil]", outs)
	}
	if workers != 8 {
		t.Fatalf("experiment ran with Workers = %d, want all 8", workers)
	}
}

// TestOutcomeWriteToByteCount: WriteTo must return the true byte count
// (io.WriterTo contract), tables included.
func TestOutcomeWriteToByteCount(t *testing.T) {
	o := &Outcome{ID: "EX", Title: "demo", Passed: true}
	o.note("hello")
	tbl := newTable("title", "a", "b")
	tbl.addRow("1", "22")
	tbl.addRow("333", "4")
	o.Tables = append(o.Tables, tbl)
	var buf bytes.Buffer
	n, err := o.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) || n == 0 {
		t.Fatalf("WriteTo returned %d bytes, buffer has %d", n, buf.Len())
	}
}
