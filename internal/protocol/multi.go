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
// Batching semantics. From its acceptance (or its source release) on,
// node u owes instance j an entry on each of its next transmissions, as
// many as the protocol's send count: the pair records which of u's
// transmissions carries the last one, so what u still owes is a
// difference of two counts, and a transmission pops every owing instance
// a mask word at a time (see multiInstance). physOutstanding[u] tracks
// the physical transmissions already scheduled at the engine but not yet
// observed, so an acceptance only schedules the difference — overlapping
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
// applies the sender's per-instance accepted values from the machine's
// own bookkeeping, so the aggregate on-air value is a
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
// Booked slots. The machine books whole slots (State.BooksSlots): on a
// run with no strategy and no delivery hook, Book gets each slot as its
// transmissions and applies it without building a delivery, and the
// Deliver that follows, with no deliveries, makes the acceptances Book
// found in the order a resolved batch would have (see Book). A booked
// transmission's receipts go on a per-sender ledger that Finish folds
// into Correct and Wrong, so those two are complete by Finish, not
// slot by slot; the acceptance state is exact after every slot.
//
// With M = 1 the machine is bit-identical to ThresholdInstance: every
// batch has exactly one entry (a node's observed transmissions never
// exceed its scheduled sends), physOutstanding is zero at a node's
// only acceptance, and the per-delivery event order matches — the
// facade's regression pins this.
//
// The run record (MultiStats) is published on the instance's State at
// Finish, so a Multi value holds only its configuration and may drive
// concurrent runs.
type Multi struct {
	// Spec is the threshold protocol every instance runs.
	Spec core.Spec
	// M is the number of concurrent broadcast instances (>= 1).
	M int
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

// MultiStats is the run record a multi instance publishes at Finish
// (State.Record), backing the facade's MultiResult extension.
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
		spec:      m.Spec,
		m:         m.M,
		n:         n,
		goodTotal: good,
		threshold: int32(m.Spec.Threshold),
		words:     (m.M + 63) / 64,
		adj:       env.Plan.Adjacency(),
	}
	if good < n {
		mi.bad = env.Bad // nil when the placement marked no node
	}
	mi.tor, _ = env.Plan.Topo().(*grid.Torus)
	mi.st.BooksSlots = true

	stride := m.M * n
	mi.value = make([]radio.Value, stride)

	// Every mask, per node and per run, is carved from one arena, every
	// int32 array from another and every flag from a third.
	nm, nt := n*mi.words, (n+63)/64
	masks := make([]uint64, (4+expiryRing)*nm+mi.words+nt+(nt+63)/64)
	mi.decided, masks = carve(masks, nm)
	mi.owing, masks = carve(masks, nm)
	mi.trueMask, masks = carve(masks, nm)
	mi.fresh, masks = carve(masks, nm)
	mi.due, masks = carve(masks, expiryRing*nm)
	mi.started, masks = carve(masks, mi.words)
	mi.touched, mi.touchedSum = carve(masks, nt)
	box := 0
	if mi.tor != nil {
		box = n + mi.tor.Width()
	}
	ints := make([]int32, stride+7*n+box)
	mi.lastTx, ints = carve(ints, stride)
	mi.st.Correct, ints = carve(ints, n)
	mi.st.Wrong, ints = carve(ints, n)
	mi.ledTrue, ints = carve(ints, n)
	mi.ledOther, ints = carve(ints, n)
	mi.txCount, ints = carve(ints, n)
	mi.decidedCount, ints = carve(ints, n)
	mi.physOutstanding, mi.box = carve(ints, n)
	flags := make([]bool, 3*n)
	mi.st.Decided, flags = carve(flags, n)
	mi.hasWrong, mi.isSource = carve(flags, n)
	mi.st.Value = make([]radio.Value, n)
	mi.batch = make([]carriedWord, n*mi.words)
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

// carve splits the first k entries off an arena, capped so that an append
// to them cannot reach the rest.
func carve[T any](arena []T, k int) (head, rest []T) {
	return arena[:k:k], arena[k:]
}

// expiryRing is the number of expiry buckets per node (see multiInstance);
// a power of two.
const expiryRing = 8

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
//
// A transmission pops a word at a time as well. Node u's transmissions
// are numbered by txCount[u]; an owed pair (u, j) records in lastTx the
// number of the transmission that carries its last entry, and sits in
// bucket lastTx % expiryRing of u's ring of due masks. Popping u's next
// transmission reads owing (all it carries) and owing & trueMask (the
// entries worth ValueTrue), bumps txCount[u] and pays off the pairs of
// the bucket it lands on whose lastTx it is: with an owed count above
// expiryRing a bucket also holds pairs due a lap or more later, which
// stay. A pair owes at most once, from its only decision.
type multiInstance struct {
	spec      core.Spec
	m, n      int
	bad       []bool // nil when no node is bad
	goodTotal int
	threshold int32
	words     int              // mask words per node, ⌈m/64⌉
	adj       *radio.Adjacency // the plan's rows, walked by Book
	tor       *grid.Torus      // the plan's topology when it is a torus, else nil

	st State

	// counts is per-value receipt tallies of the pairs still undecided:
	// once (u, j) decides nothing reads its tallies again, so entries
	// landing on it are not tallied. One plane per tracked value, each
	// allocated on its first tally, so a run that only ever hears
	// ValueTrue allocates and works in 4 bytes per pair.
	counts [MaxTrackedValue + 1][]int32 // [tracked][u*m+j]
	value  []radio.Value                // [u*m+j] accepted value
	lastTx []int32                      // [u*m+j] u's transmission carrying its last owed j entry
	// txCount[u] numbers u's observed transmissions (see multiInstance).
	txCount []int32

	// Instance masks, [u*words+k].
	decided  []uint64 // u accepted (or, as its source, released) instance j
	owing    []uint64 // u still owes instance j entries
	trueMask []uint64 // u's instance-j value is ValueTrue
	fresh    []uint64 // u crossed the threshold in j in a Book; Deliver accepts it
	// due is every node's ring of expiry buckets, [(u*expiryRing+b)*words+k]:
	// the owing pairs whose lastTx % expiryRing is b.
	due []uint64

	// Booked receipts: per sender, the ValueTrue entries and the others its
	// booked transmissions carried, folded into Correct and Wrong at Finish
	// (see Book); box is the torus fold's scratch.
	ledTrue, ledOther []int32
	box               []int32

	// touched has one bit per node holding a fresh bit and touchedSum one
	// bit per word of touched, so Deliver finds the pending acceptances in
	// ascending node order without a sort.
	touched, touchedSum []uint64

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

// Book implements Instance for a booked slot (State.BooksSlots): every
// transmission reaches its sender's whole row, and no hook observes a
// delivery. A sender with a non-empty row pops its batch once — an
// isolated sender is never observed, as in Deliver, and a row of bad
// receivers only is still popped — and every good receiver in the row
// gets the batch as applyBatch would apply it, with two differences.
// The receipts are not counted per receiver: the batch's ValueTrue and
// other entries go on the sender's ledger, which Finish folds into
// Correct and Wrong over the sender's row, so by Finish they read as if
// every entry had been delivered (no Strategy or per-delivery hook reads
// them on a booked run). And a threshold crossing is not accepted here:
// it is marked fresh (its value recorded) for the Deliver that follows.
// A receiver hears one transmission per slot and transmits none, so no
// pair crosses twice and nothing the rest of the slot reads depends on
// the acceptances being deferred. The row is walked a mask word at a
// time, and only the receivers with an undecided carried instance do
// more than one word operation.
func (mi *multiInstance) Book(slot int, txs []radio.Tx) error {
	decided, bad, words := mi.decided, mi.bad, mi.words
	for i := range txs {
		w := txs[i].From
		row := mi.adj.Neighbors(w)
		if len(row) == 0 {
			continue
		}
		tru, other := mi.popBatch(slot, w)
		mi.ledTrue[w] += tru
		mi.ledOther[w] += other
		vals := mi.value[int(w)*mi.m:][:mi.m]
		for k, c := range mi.batch[int(w)*words:][:words] {
			if c.all == 0 {
				continue
			}
			for _, u := range row {
				walk := c.all &^ decided[int(u)*words+k]
				if walk == 0 || bad != nil && bad[u] {
					continue // nothing live, or an adversary node, which does not run the protocol
				}
				mi.bookLive(u, k, walk, vals)
			}
		}
	}
	return nil
}

// bookLive tallies at good receiver u the entries of mask word k that u
// has not decided (walk), worth vals[j], and marks each threshold
// crossing fresh.
func (mi *multiInstance) bookLive(u grid.NodeID, k int, walk uint64, vals []radio.Value) {
	for ; walk != 0; walk &= walk - 1 {
		j := k<<6 + bits.TrailingZeros64(walk)
		if mi.tally(u, j, vals[j]) {
			mi.value[int(u)*mi.m+j] = vals[j]
			mi.fresh[int(u)*mi.words+k] |= walk & -walk
			mi.touch(u)
		}
	}
}

// touch marks u as holding a fresh acceptance.
func (mi *multiInstance) touch(u grid.NodeID) {
	wi := int(u) >> 6
	if mi.touched[wi] == 0 {
		mi.touchedSum[wi>>6] |= 1 << (wi & 63)
	}
	mi.touched[wi] |= 1 << (int(u) & 63)
}

// acceptBooked makes the acceptances the slot's Book left fresh, in
// ascending (receiver, instance) order, and clears the marks as it goes.
func (mi *multiInstance) acceptBooked(slot int, hooks *Hooks, buf []Send) []Send {
	for si, sw := range mi.touchedSum {
		if sw == 0 {
			continue
		}
		mi.touchedSum[si] = 0
		for ; sw != 0; sw &= sw - 1 {
			wi := si<<6 + bits.TrailingZeros64(sw)
			tw := mi.touched[wi]
			mi.touched[wi] = 0
			for ; tw != 0; tw &= tw - 1 {
				u := grid.NodeID(wi<<6 + bits.TrailingZeros64(tw))
				fresh := mi.fresh[int(u)*mi.words:][:mi.words]
				for k, f := range fresh {
					fresh[k] = 0
					for ; f != 0; f &= f - 1 {
						j := k<<6 + bits.TrailingZeros64(f)
						buf = mi.accept(slot, j, u, mi.value[int(u)*mi.m+j], hooks, buf)
					}
				}
			}
		}
	}
	return buf
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
	mi.value[int(src)*mi.m+j] = radio.ValueTrue
	word, bit := mi.maskBit(src, j)
	mi.trueMask[word] |= bit
	mi.noteDecided(j, src, radio.ValueTrue, slot)
	repeats := mi.spec.SourceRepeats // >= 1 (Spec.Validate)
	mi.naiveSends += repeats
	mi.owe(src, j, int32(repeats))
	return mi.schedule(src, repeats, buf)
}

// owe makes u owe its next k > 0 transmissions an instance-j entry: the
// pair's lastTx and its bucket in u's ring (see multiInstance). A pair
// owes only from its one decision, so it is in no bucket yet.
func (mi *multiInstance) owe(u grid.NodeID, j int, k int32) {
	last := mi.txCount[u] + k
	mi.lastTx[int(u)*mi.m+j] = last
	word, bit := mi.maskBit(u, j)
	mi.owing[word] |= bit
	mi.due[(int(u)*expiryRing+int(last)&(expiryRing-1))*mi.words+j>>6] |= bit
}

// owed returns how many of u's coming transmissions still carry an
// instance-j entry.
func (mi *multiInstance) owed(u grid.NodeID, j int) int32 {
	word, bit := mi.maskBit(u, j)
	if mi.owing[word]&bit == 0 {
		return 0
	}
	return mi.lastTx[int(u)*mi.m+j] - mi.txCount[u]
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
// either batch is then applied at the receiver. After a booked slot's
// Book, ds is empty and Deliver makes the acceptances Book left fresh.
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
	return mi.acceptBooked(slot, hooks, buf), nil
}

// popBatch observes good sender w's transmission on its first delivery
// of the slot: it carries one entry of every instance w owes, and the
// pairs whose last owed entry it carries are paid off (see
// multiInstance); it records what the transmission carries and consumes
// one outstanding physical send. Later deliveries of the same
// transmission reuse the recorded batch. The popped set is
// slot-deterministic: w transmits at most once per slot and, being
// half-duplex, cannot accept (and so cannot change its owed entries or
// their values) in a slot it transmits in. It returns how many of the
// carried entries are worth ValueTrue and how many are not.
func (mi *multiInstance) popBatch(slot int, w grid.NodeID) (tru, other int32) {
	mi.batchStamp[w] = slot
	mi.txCount[w]++
	tx := mi.txCount[w]
	lo := int(w) * mi.words
	due := mi.due[(int(w)*expiryRing+int(tx)&(expiryRing-1))*mi.words:][:mi.words]
	for k, d := range due {
		all := mi.owing[lo+k]
		c := carriedWord{all: all, tru: all & mi.trueMask[lo+k]}
		if d != 0 {
			paid := mi.paidOff(w, k, d, tx)
			due[k] = d &^ paid
			mi.owing[lo+k] = all &^ paid
		}
		mi.batch[lo+k] = c
		nt := bits.OnesCount64(c.tru)
		tru += int32(nt)
		other += int32(bits.OnesCount64(c.all) - nt)
	}
	mi.entriesCarried += int(tru + other)
	if mi.physOutstanding[w] > 0 {
		mi.physOutstanding[w]--
	}
	return tru, other
}

// paidOff returns the pairs of d, word k of one of w's expiry buckets,
// whose last owed entry goes out with w's transmission tx.
func (mi *multiInstance) paidOff(w grid.NodeID, k int, d uint64, tx int32) (paid uint64) {
	last := mi.lastTx[int(w)*mi.m+k<<6:]
	for ; d != 0; d &= d - 1 {
		if last[bits.TrailingZeros64(d)] == tx {
			paid |= d & -d
		}
	}
	return paid
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
// value v delivered to good node u, undecided in j.
func (mi *multiInstance) applyLive(slot, j int, u grid.NodeID, v radio.Value, hooks *Hooks, buf []Send) []Send {
	mi.countEntry(u, v)
	if !mi.tally(u, j, v) {
		return buf
	}
	return mi.accept(slot, j, u, v, hooks, buf)
}

// tally counts one instance-j entry of value v at good node u, undecided
// in j, and reports whether it brought v to the threshold.
func (mi *multiInstance) tally(u grid.NodeID, j int, v radio.Value) bool {
	tracked := v
	if tracked < 0 || tracked > MaxTrackedValue {
		tracked = MaxTrackedValue // clamp exotic values into the last bucket
	}
	plane := mi.counts[tracked]
	if plane == nil {
		plane = make([]int32, mi.m*mi.n)
		mi.counts[tracked] = plane
	}
	idx := int(u)*mi.m + j
	plane[idx]++
	return plane[idx] == mi.threshold
}

// accept makes u's acceptance of v in instance j, scheduling the
// acceptance relay through the shared physical-send pool.
func (mi *multiInstance) accept(slot, j int, u grid.NodeID, v radio.Value, hooks *Hooks, buf []Send) []Send {
	mi.value[int(u)*mi.m+j] = v
	if v == radio.ValueTrue {
		word, bit := mi.maskBit(u, j)
		mi.trueMask[word] |= bit
	}
	mi.decisions++
	mi.noteDecided(j, u, v, slot)
	sends := mi.spec.Sends(u)
	mi.naiveSends += sends
	if sends > 0 {
		mi.owe(u, j, int32(sends))
	}
	buf = mi.schedule(u, int(mi.owed(u, j)), buf)
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
	return mi.spec.SourceRepeats, mi.m * specMaxSends(mi.spec, mi.n)
}

// Finish implements Instance: fold the booked receipts into Correct and
// Wrong, and publish the run record.
func (mi *multiInstance) Finish(slots int) {
	mi.foldLedger()
	out := make([]MultiInstanceStats, mi.m)
	copy(out, mi.inst)
	mi.st.Record = &MultiStats{
		M:              mi.m,
		Instances:      out,
		BatchedSends:   mi.batchedSends,
		NaiveSends:     mi.naiveSends,
		EntriesCarried: mi.entriesCarried,
		Decisions:      mi.decisions,
	}
}

// foldLedger adds each sender's booked receipts to the Correct and Wrong
// of its row — on a torus as a box sum (boxFold), elsewhere by scattering
// over each row — and leaves the adversary nodes at zero, as delivery
// would have. A run that booked nothing has an empty ledger.
func (mi *multiInstance) foldLedger() {
	st := &mi.st
	if mi.tor != nil {
		boxFold(mi.tor, mi.box, st.Correct, mi.ledTrue)
		boxFold(mi.tor, mi.box, st.Wrong, mi.ledOther)
	} else {
		for w, tru := range mi.ledTrue {
			other := mi.ledOther[w]
			if tru == 0 && other == 0 {
				continue
			}
			for _, u := range mi.adj.Neighbors(grid.NodeID(w)) {
				st.Correct[u] += tru
				st.Wrong[u] += other
			}
		}
	}
	for i, b := range mi.bad {
		if b {
			st.Correct[i], st.Wrong[i] = 0, 0 // adversary nodes do not run the protocol
		}
	}
}
