package bftbcast

import (
	"bytes"
	"errors"
	"testing"

	"bftbcast/internal/plan"
)

// fuzzPlanMaxNodes bounds the accepted grids whose plan the fuzz target
// compiles, so one input costs milliseconds.
const fuzzPlanMaxNodes = 4096

// FuzzDecodeGridSpec holds the grid decoder, which faces the daemon's
// socket, to its contract on arbitrary bodies: DecodeGridSpec either
// refuses with an error wrapping ErrBadSpec, or returns a grid of at most
// maxGridPoints points whose Encode output decodes again and re-encodes
// to the same bytes, and whose topology, at up to fuzzPlanMaxNodes
// nodes, compiles to a plan. The seed corpus
// (testdata/fuzz/FuzzDecodeGridSpec) holds the smoke script's grids, the
// benchmark's daemon grid, two small bodies that used to be accepted and
// then exhaust memory, and a bounded grid whose 2r+1 overflowed and
// panicked the plan compiler.
func FuzzDecodeGridSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, doc []byte) {
		g, err := DecodeGridSpec(doc)
		if err != nil {
			if !errors.Is(err, ErrBadSpec) {
				t.Fatalf("error does not wrap ErrBadSpec: %v", err)
			}
			return
		}
		if n := g.NPoints(); n < 1 || n > maxGridPoints {
			t.Fatalf("accepted a grid of %d points (bound %d)", n, maxGridPoints)
		}
		enc, err := g.Encode()
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeGridSpec(enc)
		if err != nil {
			t.Fatalf("re-decoding %s: %v", enc, err)
		}
		again, err := back.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, again) {
			t.Fatalf("re-encoding moved:\n%s\n%s", enc, again)
		}
		tp, err := NewTopology(g.Base.Topology)
		if err != nil {
			t.Fatalf("accepted grid's topology: %v", err)
		}
		if tp.Size() <= fuzzPlanMaxNodes {
			plan.Compute(tp)
		}
	})
}
