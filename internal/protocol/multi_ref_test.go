package protocol

// A test-only reference for multiInstance: the per-entry batch
// application the machine ran before its word-mask rewrite (commit
// 468f202), kept with []bool decided flags, a per-sender instance list
// and one full applyEntry per carried entry. It shares the attached
// instance's draws (sources, staggers, bad set) and nothing else, so
// TestMultiDeliverMatchesPerEntryReference can feed both the same
// delivery batches and compare everything observable after each one.

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"bftbcast/internal/core"
	"bftbcast/internal/grid"
	"bftbcast/internal/plan"
	"bftbcast/internal/radio"
	"bftbcast/internal/stats"
)

type multiRef struct {
	spec      core.Spec
	m         int
	bad       []bool
	goodTotal int

	st State

	counts          []int32
	decided         []bool
	value           []radio.Value
	relayRemaining  []int32
	decidedCount    []int32
	hasWrong        []bool
	physOutstanding []int32
	batchStamp      []int
	batch           [][]int // per sender: the instances its transmission of batchStamp carries

	inst  []MultiInstanceStats
	stats MultiStats

	onInstanceDeliver func(slot, instance int, from, to grid.NodeID, v radio.Value)
	onInstanceDecide  func(slot, instance int, id grid.NodeID, v radio.Value)
}

// newMultiRef builds a reference run over the same draws as a freshly
// attached (not yet bootstrapped) instance.
func newMultiRef(mi *multiInstance) *multiRef {
	n, stride := mi.n, mi.m*mi.n
	r := &multiRef{
		spec: mi.spec, m: mi.m, bad: mi.bad, goodTotal: mi.goodTotal,
		st: State{
			Decided: make([]bool, n), Value: make([]radio.Value, n),
			Correct: make([]int32, n), Wrong: make([]int32, n),
			BooksSlots: true,
		},
		counts:          make([]int32, stride*(MaxTrackedValue+1)),
		decided:         make([]bool, stride),
		value:           make([]radio.Value, stride),
		relayRemaining:  make([]int32, stride),
		decidedCount:    make([]int32, n),
		hasWrong:        make([]bool, n),
		physOutstanding: make([]int32, n),
		batchStamp:      make([]int, n),
		batch:           make([][]int, n),
		inst:            append([]MultiInstanceStats(nil), mi.inst...),
		stats:           MultiStats{M: mi.m},
	}
	for i := range r.batchStamp {
		r.batchStamp[i] = -1
	}
	return r
}

func (r *multiRef) isBad(id grid.NodeID) bool { return r.bad != nil && r.bad[id] }

// tick is Bootstrap (slot 0) and Tick: release every due instance.
func (r *multiRef) tick(slot int, buf []Send) []Send {
	for j := 0; j < r.m; j++ {
		if r.inst[j].ReleaseSlot >= 0 || r.inst[j].StartSlot > slot {
			continue
		}
		r.inst[j].ReleaseSlot = slot
		src := r.inst[j].Source
		idx := int(src)*r.m + j
		r.decided[idx], r.value[idx] = true, radio.ValueTrue
		r.noteDecided(j, src, radio.ValueTrue, slot)
		r.stats.NaiveSends += r.spec.SourceRepeats
		r.relayRemaining[idx] = int32(r.spec.SourceRepeats)
		buf = r.schedule(src, r.spec.SourceRepeats, buf)
	}
	return buf
}

func (r *multiRef) schedule(u grid.NodeID, want int, buf []Send) []Send {
	need := want - int(r.physOutstanding[u])
	if need <= 0 {
		return buf
	}
	r.physOutstanding[u] += int32(need)
	r.stats.BatchedSends += need
	return append(buf, Send{ID: u, N: need})
}

func (r *multiRef) noteDecided(j int, u grid.NodeID, v radio.Value, slot int) {
	r.decidedCount[u]++
	r.st.Decided[u] = int(r.decidedCount[u]) == r.m
	if v != radio.ValueTrue {
		if !r.hasWrong[u] {
			r.hasWrong[u], r.st.Value[u] = true, v
		}
		r.inst[j].WrongDecisions++
	} else if !r.hasWrong[u] && r.st.Value[u] == radio.ValueNone {
		r.st.Value[u] = radio.ValueTrue
	}
	r.inst[j].DecidedGood++
	if r.inst[j].DecidedGood == r.goodTotal {
		r.inst[j].DoneSlot, r.inst[j].Completed = slot, true
	}
}

func (r *multiRef) deliver(slot int, ds []radio.Delivery, hooks *Hooks, buf []Send) []Send {
	for _, d := range ds {
		if hooks.OnDeliver != nil {
			hooks.OnDeliver(slot, d)
		}
		u, w := d.To, d.From
		if r.isBad(w) {
			if r.isBad(u) {
				continue
			}
			for j := 0; j < r.m; j++ {
				if r.inst[j].ReleaseSlot >= 0 {
					buf = r.applyEntry(slot, j, w, u, d.Value, hooks, buf)
				}
			}
			continue
		}
		if r.batchStamp[w] != slot {
			r.batchStamp[w] = slot
			r.batch[w] = r.batch[w][:0]
			for j := 0; j < r.m; j++ {
				if r.relayRemaining[int(w)*r.m+j] > 0 {
					r.relayRemaining[int(w)*r.m+j]--
					r.batch[w] = append(r.batch[w], j)
				}
			}
			r.stats.EntriesCarried += len(r.batch[w])
			if r.physOutstanding[w] > 0 {
				r.physOutstanding[w]--
			}
		}
		if r.isBad(u) {
			continue
		}
		for _, j := range r.batch[w] {
			buf = r.applyEntry(slot, j, w, u, r.value[int(w)*r.m+j], hooks, buf)
		}
	}
	return buf
}

func (r *multiRef) applyEntry(slot, j int, from, u grid.NodeID, v radio.Value, hooks *Hooks, buf []Send) []Send {
	if r.onInstanceDeliver != nil {
		r.onInstanceDeliver(slot, j, from, u, v)
	}
	if v == radio.ValueTrue {
		r.st.Correct[u]++
	} else {
		r.st.Wrong[u]++
	}
	tracked := v
	if tracked < 0 || tracked > MaxTrackedValue {
		tracked = MaxTrackedValue
	}
	idx := int(u)*r.m + j
	ci := idx*(MaxTrackedValue+1) + int(tracked)
	r.counts[ci]++
	if r.decided[idx] || r.counts[ci] != int32(r.spec.Threshold) {
		return buf
	}
	r.decided[idx], r.value[idx] = true, v
	r.stats.Decisions++
	r.noteDecided(j, u, v, slot)
	sends := r.spec.Sends(u)
	r.stats.NaiveSends += sends
	r.relayRemaining[idx] += int32(sends)
	buf = r.schedule(u, int(r.relayRemaining[idx]), buf)
	if hooks.OnAccept != nil {
		hooks.OnAccept(slot, u, v)
	}
	if r.onInstanceDecide != nil {
		r.onInstanceDecide(slot, j, u, v)
	}
	return buf
}

// finish returns the run record the machine would publish.
func (r *multiRef) finish() *MultiStats {
	out := r.stats
	out.Instances = append([]MultiInstanceStats(nil), r.inst...)
	return &out
}

// multiEvent is one hook firing, in a form reflect.DeepEqual compares.
type multiEvent struct {
	kind     string
	slot, j  int
	from, to grid.NodeID
	v        radio.Value
}

// multiRecorder collects a run's hook stream.
type multiRecorder struct{ events []multiEvent }

func (rec *multiRecorder) hooks() *Hooks {
	return &Hooks{
		OnDeliver: func(slot int, d radio.Delivery) {
			rec.events = append(rec.events, multiEvent{"deliver", slot, -1, d.From, d.To, d.Value})
		},
		OnAccept: func(slot int, id grid.NodeID, v radio.Value) {
			rec.events = append(rec.events, multiEvent{"accept", slot, -1, grid.None, id, v})
		},
	}
}

func (rec *multiRecorder) instanceDeliver(slot, j int, from, to grid.NodeID, v radio.Value) {
	rec.events = append(rec.events, multiEvent{"deliver-instance", slot, j, from, to, v})
}

func (rec *multiRecorder) instanceDecide(slot, j int, id grid.NodeID, v radio.Value) {
	rec.events = append(rec.events, multiEvent{"decide-instance", slot, j, grid.None, id, v})
}

// TestMultiDeliverMatchesPerEntryReference drives the machine and the
// per-entry reference with identical randomised delivery batches and
// compares State, the returned Sends and the hook streams after every
// batch, then the published MultiStats. The batches obey what the
// machine relies on from a radio slot — one transmission per sender, at
// most one delivery per receiver, no delivery to a transmitting node —
// and nothing else: any sender reaches any receiver, some transmissions
// are silenced outright, and bad senders carry arbitrary values,
// including ones beyond MaxTrackedValue and below zero that only the
// clamp bucket can hold. The threshold-1 leg lets those forged copies
// decide good nodes, so good relays carry non-ValueTrue entries into
// decided and undecided pairs alike. TestInstanceConformance checks
// booked slots.
func TestMultiDeliverMatchesPerEntryReference(t *testing.T) {
	ms := []int{1, 2, 9, 32, 63, 64, 65, 130}
	seeds := 3
	if testing.Short() {
		ms, seeds = []int{1, 9, 65}, 1
	}
	params := core.Params{R: 2, T: 1, MF: 2}
	protocolB, err := core.NewProtocolB(params)
	if err != nil {
		t.Fatal(err)
	}
	// Full budget at m = 11 owes more entries per decision than a node's
	// ring has expiry buckets, so buckets hold pairs due a lap later; two
	// instance counts, one and two mask words, cover that.
	fullBudget, err := core.NewFullBudget(params, 11)
	if err != nil {
		t.Fatal(err)
	}
	three := func(grid.NodeID) int { return 3 }
	specs := []core.Spec{
		protocolB,
		fullBudget,
		{Name: "threshold-1", SourceRepeats: 3, Threshold: 1, Sends: three, Budget: three},
	}
	tor, err := grid.New(15, 15, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range specs {
		specMs := ms
		if spec.Name == fullBudget.Name {
			specMs = []int{9, 65}
		}
		for _, m := range specMs {
			correct, wrong, ran := 0, 0, 0
			for seed := uint64(1); seed <= uint64(seeds); seed++ {
				for _, observed := range []bool{false, true} {
					name := fmt.Sprintf("%s/M%d/seed%d/observed=%v", spec.Name, m, seed, observed)
					t.Run(name, func(t *testing.T) {
						c, w := driveMultiAgainstRef(t, plan.For(tor), params, spec, m, seed, observed)
						correct, wrong, ran = correct+c, wrong+w, ran+1
					})
				}
			}
			// Source-release decisions count as neither, so M = 1 can
			// legitimately go all one way; from M = 2 up both kinds of
			// entry must have been decided on and carried. A -run filter
			// that drops some of the cells leaves the check out.
			if m > 1 && ran == 2*seeds && (correct == 0 || wrong == 0) {
				t.Errorf("%s/M%d: %d correct and %d wrong decisions; the drive no longer mixes values", spec.Name, m, correct, wrong)
			}
		}
	}
}

// sameState is reflect.DeepEqual(a, b) with the per-node arrays compared
// as typed slices, which keeps the per-slot check of a 600-slot drive
// from dominating the test's run time.
func sameState(a, b State) bool {
	if !slices.Equal(a.Decided, b.Decided) || !slices.Equal(a.Value, b.Value) ||
		!slices.Equal(a.Correct, b.Correct) || !slices.Equal(a.Wrong, b.Wrong) ||
		!slices.Equal(a.Settled, b.Settled) {
		return false
	}
	a.Decided, a.Value, a.Correct, a.Wrong, a.Settled = nil, nil, nil, nil, nil
	b.Decided, b.Value, b.Correct, b.Wrong, b.Settled = nil, nil, nil, nil, nil
	return reflect.DeepEqual(a, b)
}

func driveMultiAgainstRef(t *testing.T, pl *plan.Plan, params core.Params, spec core.Spec, m int, seed uint64, observed bool) (correct, wrong int) {
	n := pl.Size()
	rng := stats.NewRNG(seed*1_000_003 + uint64(m))
	bad := make([]bool, n)
	for i := 1; i < n; i++ {
		bad[i] = rng.Intn(12) == 0
	}
	var got, want multiRecorder
	machine := &Multi{Spec: spec, M: m}
	inst, err := machine.Attach(Env{Plan: pl, Params: params, Bad: bad, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	mi := inst.(*multiInstance)
	ref := newMultiRef(mi)
	ref.onInstanceDecide = want.instanceDecide
	if observed {
		ref.onInstanceDeliver = want.instanceDeliver
	}
	gotHooks, wantHooks := got.hooks(), want.hooks()
	gotHooks.OnInstanceDecide = got.instanceDecide
	if observed {
		gotHooks.OnInstanceDeliver = got.instanceDeliver
	}

	pending := make([]int, n) // engine-side sends scheduled and not yet transmitted
	firstWrong := make([]radio.Value, n)
	accepted := make([]bool, n)
	compare := func(slot int, gotSends, wantSends []Send) {
		t.Helper()
		if !slices.Equal(gotSends, wantSends) {
			t.Fatalf("slot %d: sends diverge:\n got  %v\n want %v", slot, gotSends, wantSends)
		}
		if !slices.Equal(got.events, want.events) {
			t.Fatalf("slot %d: hook streams diverge (%d vs %d events)", slot, len(got.events), len(want.events))
		}
		if !sameState(mi.st, ref.st) {
			t.Fatalf("slot %d: State diverges:\n got  %+v\n want %+v", slot, mi.st, ref.st)
		}
		// The on-air value is sticky on the first wrong acceptance and
		// ValueTrue otherwise.
		for _, e := range got.events {
			if e.kind != "decide-instance" {
				continue
			}
			accepted[e.to] = true
			if e.v != radio.ValueTrue && firstWrong[e.to] == radio.ValueNone {
				firstWrong[e.to] = e.v
			}
		}
		for u := range accepted {
			onAir := radio.ValueTrue
			if firstWrong[u] != radio.ValueNone {
				onAir = firstWrong[u]
			}
			if accepted[u] && mi.st.Value[u] != onAir {
				t.Fatalf("slot %d: node %d on air with %d, want %d", slot, u, mi.st.Value[u], onAir)
			}
		}
		for _, s := range gotSends {
			pending[s.ID] += s.N
		}
		got.events, want.events = got.events[:0], want.events[:0]
	}
	compare(0, mi.Bootstrap(nil), ref.tick(0, nil))

	var (
		senders []grid.NodeID
		onAir   = make([]radio.Value, n)
		ds      []radio.Delivery
	)
	for slot := 0; slot < 600; slot++ {
		senders = senders[:0]
		for i := range onAir {
			onAir[i] = radio.ValueNone
		}
		for i := 0; i < n; i++ {
			switch {
			case bad[i] && rng.Intn(60) == 0:
				onAir[i] = radio.Value(rng.Intn(14) - 1) // -1..12
				if onAir[i] == radio.ValueNone {
					onAir[i] = radio.ValueFalse
				}
			case !bad[i] && pending[i] > 0 && rng.Intn(4) == 0:
				pending[i]--
				if rng.Intn(10) == 0 {
					continue // transmitted, every delivery silenced: never observed
				}
				onAir[i] = mi.st.Value[i]
			default:
				continue
			}
			senders = append(senders, grid.NodeID(i))
		}
		if len(senders) == 0 {
			continue
		}
		ds = ds[:0]
		for u := 0; u < n; u++ {
			if onAir[u] != radio.ValueNone || rng.Intn(3) == 0 {
				continue // transmitting (half-duplex) or out of everyone's range
			}
			w := senders[rng.Intn(len(senders))]
			ds = append(ds, radio.Delivery{To: grid.NodeID(u), From: w, Value: onAir[w]})
		}
		if len(ds) == 0 {
			continue
		}
		gotSends, err := mi.Deliver(slot, ds, gotHooks, nil)
		if err != nil {
			t.Fatal(err)
		}
		compare(slot, mi.Tick(slot, gotSends), ref.tick(slot, ref.deliver(slot, ds, wantHooks, nil)))
	}
	mi.Finish(600)
	gotStats, wantStats := mi.st.Record.(*MultiStats), ref.finish()
	if !reflect.DeepEqual(gotStats, wantStats) {
		t.Fatalf("MultiStats diverge:\n got  %+v\n want %+v", gotStats, wantStats)
	}
	if gotStats.Decisions == 0 || gotStats.EntriesCarried == 0 {
		t.Fatalf("degenerate drive: %+v", gotStats)
	}
	for _, in := range gotStats.Instances {
		wrong += in.WrongDecisions
	}
	return gotStats.Decisions - wrong, wrong
}
