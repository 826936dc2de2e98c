package protocol_test

// The independent oracle for the multi-broadcast machine itself:
// testdata/multi_fingerprints.json holds, per cell, FNV-64a fingerprints
// of the fast engine's full Result plus MultiStats and of the
// instance-tagged event stream, recorded at commit 468f202 — before
// multi.go's batch application was rewritten. TestMultiFastVsRef drives
// the same machine from two engine loops, so it cannot see a wrong
// Deliver; this can, at every M the word masks care about.

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"reflect"
	"testing"

	"bftbcast/internal/adversary"
	"bftbcast/internal/core"
	"bftbcast/internal/grid"
	"bftbcast/internal/protocol"
	"bftbcast/internal/radio"
	"bftbcast/internal/sim"
	"bftbcast/internal/topo"
)

var updateMultiFingerprints = flag.Bool("update-multi-fingerprints", false,
	"rewrite testdata/multi_fingerprints.json from the current multi machine (run on the parent of a Deliver rewrite, never on the rewrite)")

const multiFingerprintFile = "testdata/multi_fingerprints.json"

// multiFingerprint is one recorded cell. The counts make a mismatch
// legible (which stream moved) before anyone diffs hashes.
type multiFingerprint struct {
	Report     string `json:"report"`
	Events     string `json:"events"`
	Deliveries int    `json:"instance_deliveries"`
	Decisions  int    `json:"instance_decisions"`
	Wrong      int    `json:"wrong_decisions"`
}

// fingerprinter folds int64 words into FNV-64a, little-endian.
type fingerprinter struct {
	h hash.Hash64
	b [8]byte
}

func newFingerprinter() *fingerprinter { return &fingerprinter{h: fnv.New64a()} }

func (f *fingerprinter) add(vs ...int64) {
	for _, v := range vs {
		binary.LittleEndian.PutUint64(f.b[:], uint64(v))
		f.h.Write(f.b[:])
	}
}

func (f *fingerprinter) flag(b bool) {
	if b {
		f.add(1)
	} else {
		f.add(0)
	}
}

func (f *fingerprinter) hex() string { return fmt.Sprintf("%#016x", f.h.Sum64()) }

// resultFingerprint covers every Result field the machine can move and
// the whole MultiStats record.
func resultFingerprint(res *sim.Result, ms *protocol.MultiStats) string {
	f := newFingerprinter()
	f.flag(res.Completed)
	f.flag(res.Stalled)
	f.flag(res.TimedOut)
	f.add(int64(res.Slots), int64(res.TotalGood), int64(res.DecidedGood), int64(res.WrongDecisions),
		int64(res.GoodMessages), int64(res.BadMessages), int64(res.RejectedJams),
		int64(res.GoodGoodCollisions), int64(res.BadCount))
	for i := range res.Decided {
		f.flag(res.Decided[i])
		f.add(int64(res.DecidedValue[i]), int64(res.Correct[i]), int64(res.Wrong[i]), int64(res.Sent[i]))
	}
	f.add(int64(ms.M), int64(ms.BatchedSends), int64(ms.NaiveSends), int64(ms.EntriesCarried), int64(ms.Decisions))
	for _, in := range ms.Instances {
		f.add(int64(in.Source), int64(in.StartSlot), int64(in.ReleaseSlot),
			int64(in.DecidedGood), int64(in.WrongDecisions), int64(in.DoneSlot))
		f.flag(in.Completed)
	}
	return f.hex()
}

// wrongValueJammer is the under-provisioned leg's adversary: every bad
// node jams on its own one-in-eleven slots until its budget runs out
// (spreading the forged copies over the staggered instance starts
// instead of burning them in the first slots like Spammer, and never
// declining a hopeless fight like Corruptor), cycling through every
// trackable wrong value, ValueFalse..MaxTrackedValue — the last one
// lands in the bucket the machine clamps exotic values into (the engine
// rejects jam values beyond it).
type wrongValueJammer struct {
	bad  []grid.NodeID
	buf  []radio.Tx
	next radio.Value
}

func (*wrongValueJammer) Name() string { return "wrong-value-jammer" }

func (w *wrongValueJammer) Jams(v *adversary.View, slot int, _ []radio.Delivery) []radio.Tx {
	if w.bad == nil {
		for i, b := range v.Bad {
			if b {
				w.bad = append(w.bad, grid.NodeID(i))
			}
		}
	}
	w.buf = w.buf[:0]
	for _, b := range w.bad {
		if (slot+int(b))%11 == 0 && v.Budget[b].Left() > 0 {
			w.buf = append(w.buf, radio.Tx{From: b, Value: radio.ValueFalse + w.next, Jam: true})
			w.next = (w.next + 1) % (protocol.MaxTrackedValue - radio.ValueFalse + 1)
		}
	}
	return w.buf
}

// multiCell is one fingerprint cell: a topology kind, an instance
// count, a seed and an adversary leg.
type multiCell struct {
	kind string
	m    int
	seed uint64
	leg  string
}

func (c multiCell) key() string { return fmt.Sprintf("%s/M%d/seed%d/%s", c.kind, c.m, c.seed, c.leg) }

// Fingerprint legs. "wrong" is the under-provisioned one: a hand-built
// spec with threshold 1 against t=2, mf=12 and the densest placement the
// engine admits, so one forged copy decides a node, good relays carry
// non-ValueTrue entries and the late-wrong bucket and the sticky on-air
// value are exercised — paths a valid t-local placement never reaches
// (Lemma 1).
const (
	legFaultFree = "faultfree"
	legCorruptor = "corruptor"
	legWrong     = "wrong"
)

// config assembles the cell's engine config; every call builds fresh
// strategy and machine values (both are single-run objects).
func (c multiCell) config(t *testing.T) sim.Config {
	t.Helper()
	var (
		tp  topo.Topology
		err error
	)
	params := core.Params{R: 2, T: 1, MF: 2}
	switch c.kind {
	case "torus":
		tp, err = grid.New(15, 15, 2)
	case "grid":
		tp, err = topo.NewBounded(15, 15, 2)
	case "rgg":
		tp, err = topo.NewConnectedRGG(250, 11)
		params.R = 1
	}
	if err != nil {
		t.Fatal(err)
	}
	spec, err := core.NewProtocolB(params)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{Topo: tp, Params: params, Seed: c.seed}
	switch c.leg {
	case legCorruptor:
		cfg.Placement = adversary.Random{T: params.T, Density: 0.05, Seed: c.seed}
		cfg.Strategy = adversary.NewCorruptor()
	case legWrong:
		cfg.Params.T, cfg.Params.MF = 2, 12
		sends := func(grid.NodeID) int { return 3 }
		spec = core.Spec{Name: "threshold-1", SourceRepeats: 3, Threshold: 1, Sends: sends, Budget: sends}
		cfg.Placement = adversary.Random{T: 2, Density: 0.3, Seed: c.seed}
		cfg.Strategy = &wrongValueJammer{}
	}
	cfg.Machine = &protocol.Multi{Spec: spec, M: c.m}
	return cfg
}

// multiFingerprintCells lists the matrix: torus/grid/rgg × the M values
// either side of a word boundary × 3 seeds × {fault-free, Corruptor},
// plus the wrong-value leg. Every topology has more than 130 good nodes
// under every leg, so no M needs capping. The -short subset keeps one
// seed, every leg and an M on each side of 64.
func multiFingerprintCells() []multiCell {
	ms := []int{1, 2, 9, 32, 63, 64, 65, 130}
	seeds := []uint64{1, 2, 3}
	if testing.Short() {
		ms, seeds = []int{1, 9, 65}, seeds[:1]
	}
	var cells []multiCell
	for _, kind := range []string{"torus", "grid", "rgg"} {
		for _, m := range ms {
			for _, seed := range seeds {
				for _, leg := range []string{legFaultFree, legCorruptor, legWrong} {
					cells = append(cells, multiCell{kind, m, seed, leg})
				}
			}
		}
	}
	return cells
}

// fingerprintCell runs the cell twice — unobserved for the Result,
// observed for the event stream — and requires both runs to agree on
// the Result.
func fingerprintCell(t *testing.T, c multiCell) multiFingerprint {
	t.Helper()
	res, ms := runMulti(t, c.config(t))
	out := multiFingerprint{Report: resultFingerprint(res, ms)}
	for _, in := range ms.Instances {
		out.Wrong += in.WrongDecisions
	}

	cfg := c.config(t)
	ev := newFingerprinter()
	cfg.Hooks.OnInstanceDeliver = func(slot, instance int, from, to grid.NodeID, v radio.Value) {
		out.Deliveries++
		ev.add(1, int64(slot), int64(instance), int64(from), int64(to), int64(v))
	}
	cfg.Hooks.OnInstanceDecide = func(slot, instance int, id grid.NodeID, v radio.Value) {
		out.Decisions++
		ev.add(2, int64(slot), int64(instance), int64(id), int64(v))
	}
	cfg.Hooks.OnAccept = func(slot int, id grid.NodeID, v radio.Value) {
		ev.add(3, int64(slot), int64(id), int64(v))
	}
	if got := resultFingerprint(runMulti(t, cfg)); got != out.Report {
		t.Errorf("%s: observed run's Result %s differs from the unobserved run's %s", c.key(), got, out.Report)
	}
	out.Events = ev.hex()
	return out
}

// TestMultiFingerprints asserts every cell against the parent-recorded
// fingerprints.
func TestMultiFingerprints(t *testing.T) {
	cells := multiFingerprintCells()
	if *updateMultiFingerprints {
		if testing.Short() {
			t.Fatal("-update-multi-fingerprints records the full matrix; drop -short")
		}
		rec := make(map[string]multiFingerprint, len(cells))
		for _, c := range cells {
			rec[c.key()] = fingerprintCell(t, c)
		}
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(multiFingerprintFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(multiFingerprintFile)
	if err != nil {
		t.Fatal(err)
	}
	var rec map[string]multiFingerprint
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatalf("%s: %v", multiFingerprintFile, err)
	}
	wrongLegs := 0
	for _, c := range cells {
		want, ok := rec[c.key()]
		if !ok {
			t.Errorf("%s: no recorded fingerprint", c.key())
			continue
		}
		got := fingerprintCell(t, c)
		if got != want {
			t.Errorf("%s:\n got  %+v\n want %+v", c.key(), got, want)
		}
		if c.leg == legWrong {
			wrongLegs++
			if got.Wrong == 0 {
				t.Errorf("%s: the under-provisioned leg decided nothing wrong; it no longer reaches the wrong-value paths", c.key())
			}
		} else if got.Wrong != 0 {
			t.Errorf("%s: %d wrong decisions under a valid placement (Lemma 1)", c.key(), got.Wrong)
		}
	}
	if wrongLegs == 0 {
		t.Fatal("matrix has no wrong-value cell")
	}
}

// TestMultiObservedMatchesUnobserved pins that the hooked and unhooked
// walks of the one batch loop book identical state: a cell run with no
// hook, with the engine's raw delivery hook only, and with the
// per-instance hooks yields equal Results and MultiStats, and the
// instance-delivery events number exactly the entries the final
// Correct and Wrong arrays booked.
func TestMultiObservedMatchesUnobserved(t *testing.T) {
	for _, c := range []multiCell{
		{"torus", 9, 1, legCorruptor},
		{"rgg", 65, 2, legCorruptor},
		{"grid", 65, 3, legWrong},
		{"torus", 130, 1, legWrong},
	} {
		run := func(hooks protocol.Hooks) (*sim.Result, *protocol.MultiStats) {
			cfg := c.config(t)
			cfg.Hooks = hooks
			return runMulti(t, cfg)
		}
		bare, bareStats := run(protocol.Hooks{})
		raw, rawStats := run(protocol.Hooks{OnDeliver: func(int, radio.Delivery) {}})
		entries := 0
		tagged, taggedStats := run(protocol.Hooks{
			OnDeliver:         func(int, radio.Delivery) {},
			OnInstanceDeliver: func(int, int, grid.NodeID, grid.NodeID, radio.Value) { entries++ },
			OnInstanceDecide:  func(int, int, grid.NodeID, radio.Value) {},
		})
		if !reflect.DeepEqual(bare, raw) || !reflect.DeepEqual(bareStats, rawStats) {
			t.Errorf("%s: a raw delivery hook changed the run", c.key())
		}
		if !reflect.DeepEqual(bare, tagged) || !reflect.DeepEqual(bareStats, taggedStats) {
			t.Errorf("%s: the per-instance hooks changed the run", c.key())
		}
		booked := 0
		for i := range bare.Correct {
			booked += int(bare.Correct[i]) + int(bare.Wrong[i])
		}
		if entries != booked || entries == 0 {
			t.Errorf("%s: %d instance-delivery events, Correct+Wrong booked %d", c.key(), entries, booked)
		}
	}
}
