package protocol

import (
	"errors"
	"fmt"
	"math/bits"

	"bftbcast/internal/core"
	"bftbcast/internal/grid"
	"bftbcast/internal/radio"
	"bftbcast/internal/stats"
)

// Multi is the multi-broadcast traffic machine: M concurrent instances
// of one counts-threshold protocol (distinct source nodes, staggered
// start slots) multiplexed over a single TDMA slot stream. It is the
// repo's workload model for "many users broadcast at once" (the
// multi-broadcast schemes of Levin/Kowalski/Segal motivate the metric):
// each instance runs the unmodified threshold acceptance rule, and the
// machine batches transmissions — one physical send by a node carries
// its current entry for every instance that still owes a relay — so the
// message-efficiency win over M sequential runs is measurable
// (BatchedSends vs NaiveSends in MultiStats).
//
// Batching semantics. Per instance j and node u, relayRemaining[j][u]
// is the number of future transmissions by u that still carry u's
// instance-j entry; an acceptance (or a source release) sets it to the
// protocol's send count. physOutstanding[u] tracks the physical
// transmissions already scheduled at the engine but not yet observed,
// so an acceptance only schedules the difference — overlapping
// instances share the same physical sends. A transmission by u is
// observed through its first radio delivery of the slot (one
// transmission per sender per slot; half-duplex keeps a transmitting
// node from accepting in the same slot, so the batch popped for a
// sender is slot-deterministic regardless of delivery order). A
// transmission whose every delivery is silenced (ValueNone jam at all
// neighbors) is never observed: the entries it would have carried stay
// owed and physOutstanding stays high, deterministically and
// identically on every engine.
//
// The engine transmits one value per node (State.Value); the receiver
// applies the sender's per-instance accepted values from its own
// relayRemaining bookkeeping, so the aggregate on-air value is a
// display/adversary-view summary: ValueTrue once any instance accepted,
// sticky on the first wrong acceptance. Adversarial deliveries (bad
// From) cannot be attributed to an instance and are counted once in
// every started instance — the strongest consistent reading of a
// forged copy.
//
// Batch application. A batch is a pair of instance masks (entries
// carried, and those worth ValueTrue), and each receiver keeps a mask of
// the instances it has decided. Protocol B relays 2·t·mf+1 copies but
// accepts after t·mf+1, so nearly every carried entry reaches a pair
// that decided long ago: such an entry can only bump the receiver's
// Correct/Wrong counter — the pair's per-value tallies are never read
// again — and is booked by popcount, a word of instances at a time.
// Only entries for instances the receiver has not decided run the
// threshold rule, in ascending instance order, so acceptances, Sends,
// Hooks.OnAccept and Hooks.OnInstanceDecide come in the order of an
// entry-by-entry application. Hooks.OnInstanceDeliver, when set, fires
// once per carried entry, late or live, in ascending instance order, each acceptance
// right after the entry that caused it (DESIGN.md §12).
//
// With M = 1 the machine is bit-identical to ThresholdInstance: every
// batch has exactly one entry (a node's observed transmissions never
// exceed its scheduled sends), physOutstanding is zero at a node's
// only acceptance, and the per-delivery event order matches — the
// facade's regression pins this.
//
// Like Reactive, a Multi value is single-run-in-flight: the run record
// hands off through the machine (Finish → TakeStats), so concurrent
// runs must each attach their own machine value.
type Multi struct {
	// Spec is the threshold protocol every instance runs.
	Spec core.Spec
	// M is the number of concurrent broadcast instances (>= 1).
	M int

	// stats is the last finished instance's run record (see TakeStats).
	stats *MultiStats
}

// MultiInstanceStats is one broadcast instance's outcome inside a
// multi-broadcast run.
type MultiInstanceStats struct {
	// Source is the instance's source node (instance 0 uses the
	// scenario source; the rest are drawn from the seed).
	Source grid.NodeID
	// StartSlot is the planned staggered start (instance 0 starts at 0).
	StartSlot int
	// ReleaseSlot is the slot the instance actually started in, -1 if
	// the run drained before its start slot ticked.
	ReleaseSlot int
	// DecidedGood counts good nodes decided in this instance
	// (including the pre-decided source).
	DecidedGood int
	// WrongDecisions counts good nodes that accepted a value other
	// than ValueTrue in this instance.
	WrongDecisions int
	// DoneSlot is the slot the instance's last good node decided in,
	// -1 if the instance did not complete.
	DoneSlot int
	// Completed reports whether every good node decided in this
	// instance.
	Completed bool
}

// MultiStats is the run record a multi instance publishes at Finish,
// backing the facade's MultiResult extension.
type MultiStats struct {
	// M is the instance count.
	M int
	// Instances holds the per-instance outcomes, indexed by instance.
	Instances []MultiInstanceStats
	// BatchedSends is the number of physical good-node transmissions
	// the machine scheduled (batched: one send carries one entry per
	// owing instance).
	BatchedSends int
	// NaiveSends is the number of transmissions M independent
	// single-instance runs of the same schedule would have scheduled
	// (the sum of per-acceptance send counts plus source repeats).
	NaiveSends int
	// EntriesCarried is the total number of instance entries carried by
	// observed transmissions (> BatchedSends exactly when batching won).
	EntriesCarried int
	// Decisions counts good-node acceptances across all instances
	// (excluding pre-decided sources); Decisions/Slots is the run's
	// aggregate decision throughput.
	Decisions int
}

// Name implements Machine.
func (m *Multi) Name() string {
	base := m.Spec.Name
	if base == "" {
		base = "threshold"
	}
	return fmt.Sprintf("multi(%s x%d)", base, m.M)
}

// TakeStats returns (and clears) the run record published by the last
// instance that Finished. Engines call Finish before returning their
// result, so a successful Run is always followed by a non-nil
// TakeStats.
func (m *Multi) TakeStats() *MultiStats {
	s := m.stats
	m.stats = nil
	return s
}

// multiSeedSalt decorrelates the machine's source/stagger draws from
// the engine-side users of the same scenario seed (adversary placement,
// strategies).
const multiSeedSalt = 0x6d756c7469626373 // "multibcs"

// Attach implements Machine.
func (m *Multi) Attach(env Env) (Instance, error) {
	if env.Plan == nil {
		return nil, errors.New("protocol: multi machine needs a plan")
	}
	if err := m.Spec.Validate(); err != nil {
		return nil, err
	}
	if m.M < 1 {
		return nil, fmt.Errorf("protocol: multi machine needs M >= 1, got %d", m.M)
	}
	n := env.Plan.Size()
	if int(env.Source) < 0 || int(env.Source) >= n {
		return nil, errors.New("protocol: source out of range")
	}
	period := env.Plan.Period()
	if period <= 0 {
		return nil, errors.New("protocol: multi machine needs a compiled TDMA schedule")
	}
	good := n
	if env.Bad != nil {
		good = 0
		for _, b := range env.Bad {
			if !b {
				good++
			}
		}
	}
	if m.M > good {
		return nil, fmt.Errorf("protocol: %d broadcast instances need %d distinct good sources, topology has %d",
			m.M, m.M, good)
	}
	if env.bad(env.Source) {
		return nil, errors.New("protocol: multi machine needs a good scenario source")
	}

	mi := &multiInstance{
		machine:   m,
		spec:      m.Spec,
		m:         m.M,
		n:         n,
		bad:       env.Bad,
		goodTotal: good,
		threshold: int32(m.Spec.Threshold),
		words:     (m.M + 63) / 64,
	}
	mi.st.Decided = make([]bool, n)
	mi.st.Value = make([]radio.Value, n)
	mi.st.Correct = make([]int32, n)
	mi.st.Wrong = make([]int32, n)

	stride := m.M * n
	mi.counts = make([]int32, stride*(MaxTrackedValue+1))
	mi.value = make([]radio.Value, stride)
	mi.relayRemaining = make([]int32, stride)

	mi.decided = make([]uint64, n*mi.words)
	mi.owing = make([]uint64, n*mi.words)
	mi.batch = make([]carriedWord, n*mi.words)
	mi.started = make([]uint64, mi.words)

	mi.decidedCount = make([]int32, n)
	mi.hasWrong = make([]bool, n)
	mi.physOutstanding = make([]int32, n)
	mi.isSource = make([]bool, n)
	mi.batchStamp = make([]int, n)
	for i := range mi.batchStamp {
		mi.batchStamp[i] = -1
	}

	// Draw the instance sources (distinct good nodes; instance 0 is the
	// scenario source) and the staggered start slots (within one TDMA
	// period, instance 0 at 0) deterministically from the scenario seed.
	rng := stats.NewRNG(env.Seed ^ multiSeedSalt)
	mi.inst = make([]MultiInstanceStats, m.M)
	mi.inst[0] = MultiInstanceStats{Source: env.Source, StartSlot: 0, ReleaseSlot: -1, DoneSlot: -1}
	mi.isSource[env.Source] = true
	for j := 1; j < m.M; j++ {
		src := grid.None
		for attempt := 0; attempt < 16*n; attempt++ {
			cand := grid.NodeID(rng.Intn(n))
			if !env.bad(cand) && !mi.isSource[cand] {
				src = cand
				break
			}
		}
		if src == grid.None {
			// Rejection sampling stalled (dense adversary); fall back to
			// the first unused good node — still seed-deterministic.
			for i := 0; i < n; i++ {
				if !env.bad(grid.NodeID(i)) && !mi.isSource[grid.NodeID(i)] {
					src = grid.NodeID(i)
					break
				}
			}
		}
		mi.isSource[src] = true
		mi.inst[j] = MultiInstanceStats{Source: src, StartSlot: 0, ReleaseSlot: -1, DoneSlot: -1}
	}
	for j := 1; j < m.M; j++ {
		mi.inst[j].StartSlot = rng.Intn(period)
	}
	return mi, nil
}

// multiInstance is one multi-broadcast run's state. Per-instance arrays
// are flat, sized M·n and laid out receiver-major (indexed u·m+j): node
// u's M instance slots are one contiguous row. Which instances a node
// has decided, which it still owes entries for, and which its current
// transmission carries are instance masks — ⌈M/64⌉ words per node, bit
// j%64 of word j/64 — so a delivery is applied a word at a time: the
// carried entries that land on an already-decided (receiver, instance)
// pair, almost all of them once the first copies have gone round, are
// booked as two popcounts, and only the rest walk the threshold rule.
// The aggregate State arrays are the engine-facing summary (Decided =
// all M instances decided, Value = the on-air value, Correct/Wrong =
// protocol-level entry counts).
type multiInstance struct {
	machine   *Multi
	spec      core.Spec
	m, n      int
	bad       []bool
	goodTotal int
	threshold int32
	words     int // mask words per node, ⌈m/64⌉

	st State

	// counts is per-value receipt tallies of the pairs still undecided:
	// once (u, j) decides nothing reads its tallies again, so entries
	// landing on it are not tallied. One plane per tracked value, so a
	// run that only ever hears ValueTrue works in 4 bytes per pair.
	counts         []int32       // [tracked*m*n + u*m+j]
	value          []radio.Value // [u*m+j] accepted value
	relayRemaining []int32       // [u*m+j] entries u still owes instance j

	// Instance masks, [u*words+k].
	decided []uint64 // u accepted (or, as its source, released) instance j
	owing   []uint64 // relayRemaining[u*m+j] > 0

	decidedCount    []int32 // per node: instances decided
	hasWrong        []bool  // per node: some instance accepted a wrong value
	physOutstanding []int32 // per node: scheduled, not-yet-observed physical sends
	isSource        []bool  // per node: is an instance source

	// Per-slot transmission observation: batchStamp[w] is the last slot
	// good sender w's transmission was popped in (-1 initially) and
	// batch[w*words+k] what it carries in that slot. A bad sender's row
	// holds the forged copy being applied (see Deliver).
	batchStamp []int
	batch      []carriedWord

	inst     []MultiInstanceStats
	released int      // instances released so far
	started  []uint64 // the released instances, as a mask

	batchedSends   int
	naiveSends     int
	entriesCarried int
	decisions      int

	maxSends int // cached Sizing scan; 0 until computed
}

// carriedWord is one word of a transmission's entry batch: the instances
// it carries an entry for, and the subset whose entry is ValueTrue.
type carriedWord struct{ all, tru uint64 }

// maskBit locates instance j in node u's row of an instance mask.
func (mi *multiInstance) maskBit(u grid.NodeID, j int) (word int, bit uint64) {
	return int(u)*mi.words + j>>6, 1 << (j & 63)
}

// State implements Instance.
func (mi *multiInstance) State() *State { return &mi.st }

// Bootstrap implements Instance: release every instance whose start
// slot is 0 (always including instance 0).
func (mi *multiInstance) Bootstrap(buf []Send) []Send {
	return mi.releaseDue(0, buf)
}

// Tick implements Instance: release instances whose staggered start
// slot has arrived. Ticks fire only on delivering slots; the source's
// repeated bootstrap sends keep the first TDMA period busy, so every
// start slot inside it is reached while the run is live (a start slot
// the run drains before stays unreleased and is reported with
// ReleaseSlot -1).
func (mi *multiInstance) Tick(slot int, buf []Send) []Send {
	if mi.released < mi.m {
		buf = mi.releaseDue(slot, buf)
	}
	return buf
}

// Book implements Instance. Multi publishes no settled mask — a receiver
// settles only when all M instances decide — so it is never booked.
func (mi *multiInstance) Book(int, []radio.Tx) error {
	return errors.New("protocol: the multi machine publishes no settled mask")
}

// releaseDue starts every not-yet-released instance with
// StartSlot <= slot, in instance order.
func (mi *multiInstance) releaseDue(slot int, buf []Send) []Send {
	for j := 0; j < mi.m; j++ {
		if mi.inst[j].ReleaseSlot < 0 && mi.inst[j].StartSlot <= slot {
			buf = mi.release(j, slot, buf)
		}
	}
	return buf
}

// release pre-decides instance j's source on ValueTrue (no acceptance
// event, mirroring the single-broadcast bootstrap) and schedules its
// opening repeats through the shared physical-send pool.
func (mi *multiInstance) release(j, slot int, buf []Send) []Send {
	mi.inst[j].ReleaseSlot = slot
	mi.released++
	mi.started[j>>6] |= 1 << (j & 63)
	src := mi.inst[j].Source
	idx := int(src)*mi.m + j
	mi.value[idx] = radio.ValueTrue
	mi.noteDecided(j, src, radio.ValueTrue, slot)
	repeats := mi.spec.SourceRepeats // >= 1 (Spec.Validate)
	mi.naiveSends += repeats
	mi.relayRemaining[idx] = int32(repeats)
	word, bit := mi.maskBit(src, j)
	mi.owing[word] |= bit
	return mi.schedule(src, repeats, buf)
}

// schedule requests enough physical transmissions at u to cover `want`
// further entry carries, reusing sends already outstanding.
func (mi *multiInstance) schedule(u grid.NodeID, want int, buf []Send) []Send {
	need := want - int(mi.physOutstanding[u])
	if need <= 0 {
		return buf
	}
	mi.physOutstanding[u] += int32(need)
	mi.batchedSends += need
	return append(buf, Send{ID: u, N: need})
}

// noteDecided marks the (j, u) pair decided and updates the per-node
// and per-instance aggregates: the all-instances Decided flag, the
// sticky on-air Value, and the instance's completion bookkeeping.
func (mi *multiInstance) noteDecided(j int, u grid.NodeID, v radio.Value, slot int) {
	word, bit := mi.maskBit(u, j)
	mi.decided[word] |= bit
	mi.decidedCount[u]++
	if int(mi.decidedCount[u]) == mi.m {
		mi.st.Decided[u] = true
	}
	if v != radio.ValueTrue {
		if !mi.hasWrong[u] {
			mi.hasWrong[u] = true
			mi.st.Value[u] = v
		}
		mi.inst[j].WrongDecisions++
	} else if !mi.hasWrong[u] && mi.st.Value[u] == radio.ValueNone {
		mi.st.Value[u] = radio.ValueTrue
	}
	mi.inst[j].DecidedGood++
	if mi.inst[j].DecidedGood == mi.goodTotal {
		mi.inst[j].DoneSlot = slot
		mi.inst[j].Completed = true
	}
}

// Deliver implements Instance. Each raw delivery fires the engine's
// OnDeliver hook first (preserving the single-broadcast event stream);
// a good sender's first delivery of the slot pops its transmission
// batch (the instances it still owes entries, decremented once per
// transmission — before the bad-receiver skip, since the transmission
// happened regardless of who heard it); a forged or jammed copy cannot
// be attributed to an instance, so it is a batch carrying its value
// once in every started instance — the strongest consistent reading;
// either batch is then applied at the receiver.
func (mi *multiInstance) Deliver(slot int, ds []radio.Delivery, hooks *Hooks, buf []Send) ([]Send, error) {
	for _, d := range ds {
		if hooks.OnDeliver != nil {
			hooks.OnDeliver(slot, d)
		}
		u := d.To
		w := d.From
		if mi.bad != nil && mi.bad[w] {
			if mi.bad[u] {
				continue // adversary nodes do not run the protocol
			}
			for k, started := range mi.started {
				c := carriedWord{all: started}
				if d.Value == radio.ValueTrue {
					c.tru = started
				}
				mi.batch[int(w)*mi.words+k] = c
			}
			buf = mi.applyBatch(slot, w, u, nil, d.Value, hooks, buf)
			continue
		}
		if mi.batchStamp[w] != slot {
			mi.popBatch(slot, w)
		}
		if mi.bad != nil && mi.bad[u] {
			continue // adversary nodes do not run the protocol
		}
		row := int(w) * mi.m
		buf = mi.applyBatch(slot, w, u, mi.value[row:row+mi.m], radio.ValueNone, hooks, buf)
	}
	return buf, nil
}

// popBatch observes good sender w's transmission on its first delivery
// of the slot: pop one owed entry from every instance w owes (clearing
// the owing bit of an instance it has now paid off), record what the
// transmission carries, and consume one outstanding physical send.
// Later deliveries of the same transmission reuse the recorded batch.
// The popped set is slot-deterministic: w transmits at most once per
// slot and, being half-duplex, cannot accept (and so cannot change its
// owed entries or their values) in a slot it transmits in.
func (mi *multiInstance) popBatch(slot int, w grid.NodeID) {
	mi.batchStamp[w] = slot
	row := int(w) * mi.m
	for k, lo := 0, int(w)*mi.words; k < mi.words; k++ {
		c := carriedWord{all: mi.owing[lo+k]}
		for rest := c.all; rest != 0; rest &= rest - 1 {
			bit := rest & -rest
			idx := row + k<<6 + bits.TrailingZeros64(rest)
			if mi.value[idx] == radio.ValueTrue {
				c.tru |= bit
			}
			mi.relayRemaining[idx]--
			if mi.relayRemaining[idx] == 0 {
				mi.owing[lo+k] &^= bit
			}
		}
		mi.batch[lo+k] = c
		mi.entriesCarried += bits.OnesCount64(c.all)
	}
	if mi.physOutstanding[w] > 0 {
		mi.physOutstanding[w]--
	}
}

// applyBatch applies the batch recorded in sender w's row to good
// receiver u: one entry per carried instance j, worth vals[j] (a good
// sender's accepted values) or, with vals nil, the forged value. An
// entry landing on an instance u has already decided can only bump u's
// receipt counters, so those are booked by popcount, a word at a time,
// and only the entries that can still change state walk the threshold
// rule, in ascending instance order. With hooks.OnInstanceDeliver set the
// walk covers every carried entry instead — the hook fires per entry,
// late or live, in ascending instance order — and books the late ones
// as it passes them; either way the same counters move by the same
// amounts.
func (mi *multiInstance) applyBatch(slot int, w, u grid.NodeID, vals []radio.Value, forged radio.Value, hooks *Hooks, buf []Send) []Send {
	observe := hooks.OnInstanceDeliver
	batch := mi.batch[int(w)*mi.words:][:mi.words]
	decided := mi.decided[int(u)*mi.words:][:mi.words]
	for k, c := range batch {
		late := c.all & decided[k]
		walk := c.all &^ late
		if observe != nil {
			walk = c.all
		} else {
			mi.st.Correct[u] += int32(bits.OnesCount64(late & c.tru))
			mi.st.Wrong[u] += int32(bits.OnesCount64(late &^ c.tru))
		}
		for ; walk != 0; walk &= walk - 1 {
			bit := walk & -walk
			j := k<<6 + bits.TrailingZeros64(walk)
			v := forged
			if vals != nil {
				v = vals[j]
			}
			if observe != nil {
				observe(slot, j, w, u, v)
				if late&bit != 0 {
					mi.countEntry(u, v)
					continue
				}
			}
			buf = mi.applyLive(slot, j, u, v, hooks, buf)
		}
	}
	return buf
}

// countEntry books one received entry of value v in u's receipt
// counters.
func (mi *multiInstance) countEntry(u grid.NodeID, v radio.Value) {
	if v == radio.ValueTrue {
		mi.st.Correct[u]++
	} else {
		mi.st.Wrong[u]++
	}
}

// applyLive runs the counts-threshold rule for one instance-j entry of
// value v delivered to good node u, undecided in j, scheduling the
// acceptance relay through the shared physical-send pool.
func (mi *multiInstance) applyLive(slot, j int, u grid.NodeID, v radio.Value, hooks *Hooks, buf []Send) []Send {
	mi.countEntry(u, v)
	tracked := v
	if tracked < 0 || tracked > MaxTrackedValue {
		tracked = MaxTrackedValue // clamp exotic values into the last bucket
	}
	idx := int(u)*mi.m + j
	ci := int(tracked)*mi.m*mi.n + idx
	mi.counts[ci]++
	if mi.counts[ci] != mi.threshold {
		return buf
	}
	mi.value[idx] = v
	mi.decisions++
	mi.noteDecided(j, u, v, slot)
	sends := mi.spec.Sends(u)
	mi.naiveSends += sends
	mi.relayRemaining[idx] += int32(sends)
	if mi.relayRemaining[idx] > 0 {
		word, bit := mi.maskBit(u, j)
		mi.owing[word] |= bit
	}
	buf = mi.schedule(u, int(mi.relayRemaining[idx]), buf)
	if hooks.OnAccept != nil {
		hooks.OnAccept(slot, u, v)
	}
	if hooks.OnInstanceDecide != nil {
		hooks.OnInstanceDecide(slot, j, u, v)
	}
	return buf
}

// GoodBudget implements Instance: instance sources are unlimited (the
// engine already leaves the scenario source unlimited; secondary
// sources get the same treatment), every other node carries M times its
// single-instance budget.
func (mi *multiInstance) GoodBudget(id grid.NodeID) int {
	if mi.isSource[id] {
		return -1
	}
	b := mi.spec.Budget(id)
	if b < 0 {
		return b
	}
	return mi.m * b
}

// Threshold implements Instance.
func (mi *multiInstance) Threshold() int { return mi.spec.Threshold }

// Sizing implements Instance: a node's physical sends are bounded by M
// non-overlapping acceptances, so the horizon scales the
// single-instance maximum by M (the first-period staggers are absorbed
// by the horizon's slack terms). With M = 1 this is exactly the
// threshold instance's sizing.
func (mi *multiInstance) Sizing() (sourceSends, maxSends int) {
	if mi.maxSends == 0 {
		if mi.spec.MaxSends > 0 {
			mi.maxSends = mi.spec.MaxSends
		} else {
			for i := 0; i < mi.n; i++ {
				if s := mi.spec.Sends(grid.NodeID(i)); s > mi.maxSends {
					mi.maxSends = s
				}
			}
		}
	}
	return mi.spec.SourceRepeats, mi.m * mi.maxSends
}

// Finish implements Instance: publish the run record to the machine.
func (mi *multiInstance) Finish(slots int) {
	out := make([]MultiInstanceStats, mi.m)
	copy(out, mi.inst)
	mi.machine.stats = &MultiStats{
		M:              mi.m,
		Instances:      out,
		BatchedSends:   mi.batchedSends,
		NaiveSends:     mi.naiveSends,
		EntriesCarried: mi.entriesCarried,
		Decisions:      mi.decisions,
	}
}
