package ref_test

// TestRefFingerprints pins the reference engine to itself across the
// retirement of its inline slot loop. testdata/ref_fingerprints.txt holds
// one FNV-1a fingerprint per case over every field of ref.RunContext's
// Result, recorded at commit 7ddc375 — the last one where a Spec run went
// through the inline engine (ref.go's run/deliver/accept) — by a
// throwaway program, not kept, that printed refFingerprintCases through
// resultFingerprint below. The test recomputes them on the one remaining
// loop, so "new ref == old ref" is shown without going through the fast
// engine. A new sim.Result field moves every fingerprint: re-record from a
// checkout that has the field and is otherwise this package unchanged.

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"reflect"
	"testing"

	"bftbcast/internal/adversary"
	"bftbcast/internal/core"
	"bftbcast/internal/grid"
	"bftbcast/internal/sim"
	"bftbcast/internal/sim/ref"
	"bftbcast/internal/sim/simtest"
)

const refFingerprintFile = "testdata/ref_fingerprints.txt"

// resultFingerprint folds every field of res, in declaration order, into
// FNV-64a (scalars as 8 little-endian bytes, slices length-prefixed).
// Timing, the run's wall time and nil on these untimed runs, is no
// outcome and is left out.
func resultFingerprint(res *sim.Result) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	var fold func(v reflect.Value)
	fold = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Bool:
			if v.Bool() {
				put(1)
			} else {
				put(0)
			}
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			put(uint64(v.Int()))
		case reflect.Float64:
			put(math.Float64bits(v.Float()))
		case reflect.Slice:
			put(uint64(v.Len()))
			for i := 0; i < v.Len(); i++ {
				fold(v.Index(i))
			}
		default:
			panic("resultFingerprint: unhandled Result field kind " + v.Kind().String())
		}
	}
	rv := reflect.ValueOf(*res)
	for i := 0; i < rv.NumField(); i++ {
		if rv.Type().Field(i).Name == "Timing" {
			continue
		}
		fold(rv.Field(i))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// refFingerprintCases is the recorded case list: 200 draws of the fuzzed
// topology × placement × strategy × spec matrix (torus, bounded grid and
// RGG; about a third of them fault-free by t = 0), 40 draws with the
// adversary stripped, the E1 sandwich budget sweep attacked and as
// control, and the E2 Figure 2 stall.
func refFingerprintCases(t *testing.T) []simtest.Case {
	gen, err := simtest.NewGen(0xF1D0)
	if err != nil {
		t.Fatal(err)
	}
	var cases []simtest.Case
	for i := 0; i < 200; i++ {
		cases = append(cases, gen.Next())
	}
	for i := 0; i < 40; i++ {
		cases = append(cases, gen.NextFaultFree())
	}

	e1 := core.Params{R: 2, T: 5, MF: 4}
	tor20 := grid.MustNew(20, 20, 2)
	sw := adversary.Sandwich{YLow: 7, YHigh: 13, T: e1.T}
	for _, m := range []int{e1.M0() - 4, e1.M0(), e1.M0() + 1, 2 * e1.M0()} {
		for _, attack := range []bool{true, false} {
			spec, err := core.NewFullBudget(e1, m)
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, simtest.Case{
				Desc: fmt.Sprintf("E1 sandwich m=%d attack=%v", m, attack),
				Build: func() sim.Config {
					cfg := sim.Config{Topo: tor20, Params: e1, Spec: spec, Source: tor20.ID(0, 0), Placement: sw}
					if attack {
						cfg.Strategy = adversary.NewTargeted(sw.VictimBand(tor20))
					}
					return cfg
				},
			})
		}
	}

	e2 := core.Params{R: 4, T: 1, MF: 1000}
	tor45 := grid.MustNew(45, 45, 4)
	spec, err := core.NewFullBudget(e2, e2.M0()+1)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, simtest.Case{
		Desc: "E2 figure2 m=m0+1",
		Build: func() sim.Config {
			return sim.Config{
				Topo: tor45, Params: e2, Spec: spec, Source: tor45.ID(0, 0),
				Placement: adversary.Figure2Lattice(4),
				Strategy:  adversary.NewTargeted(adversary.Figure2Victims(tor45)),
			}
		},
	})
	return cases
}

// refFingerprintLine is one table line: the fingerprint (or "rejected"
// when ref.RunContext refused the config), then the case description,
// which also catches a drifted generator before anyone compares hashes.
func refFingerprintLine(c simtest.Case) (string, *sim.Result) {
	res, err := ref.RunContext(context.Background(), c.Build())
	if err != nil {
		return "rejected " + c.Desc, nil
	}
	return resultFingerprint(res) + " " + c.Desc, res
}

func TestRefFingerprints(t *testing.T) {
	f, err := os.Open(refFingerprintFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		want = append(want, sc.Text())
	}
	cases := refFingerprintCases(t)
	if len(want) != len(cases) {
		t.Fatalf("%s has %d lines, the case list %d", refFingerprintFile, len(want), len(cases))
	}
	var completed, failed, attacked int
	for i, c := range cases {
		got, res := refFingerprintLine(c)
		if got != want[i] {
			t.Fatalf("case %d: the reference engine moved\n got %s\nwant %s", i, got, want[i])
		}
		if res == nil {
			continue
		}
		if res.Completed {
			completed++
		} else {
			failed++
		}
		if res.BadMessages > 0 {
			attacked++
		}
	}
	if completed == 0 || failed == 0 || attacked == 0 {
		t.Fatalf("degenerate case mix: completed=%d failed=%d attacked=%d", completed, failed, attacked)
	}
}
