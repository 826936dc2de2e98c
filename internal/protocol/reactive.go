// The Section 5 reactive protocol (Breactive) as a protocol.Machine:
// certified propagation over a reactive reliable local broadcast built
// on the two-level AUED code, run on the shared slot-level engine stack.
// It is the repository's only Section 5 implementation: the facade,
// bftsim, bftsimd jobs, bench/ and experiment E8 all execute it.
//
// Mapping onto engine slots: a node that accepts schedules ONE local
// broadcast; each of its TDMA slots transmits one data message round
// (K·L sub-slots on the air, one engine transmission here). The machine
// re-runs the coding layer per round inside Deliver: one in-range bad
// node may attack the round's sub-bit patterns (or spam a fake NACK),
// receivers decode, detections raise NACKs, and any NACK schedules one
// retransmission at the sender via the returned Send. A local broadcast
// therefore ends exactly when a data round draws no NACK — which, with
// deterministic policies, happens precisely when the in-range attackers'
// budgets are exhausted. The paper's sender additionally listens for
// (2r+1)²−1 NACK-free rounds before it stops; that quiet window is not
// modelled, because it never changes sends, deliveries or decisions,
// only how long the sender keeps listening afterwards (DESIGN.md §10).
//
// A round costs what it has to do. Deliver brings a slot's batch into
// (sender, receiver) order with one counting pass over the senders
// instead of a sort. A value's payload and bit-level codeword are built
// once, on its first round; every later round redraws the K·L sub-bit
// patterns into the same storage with word-wide writes — the draws are
// part of the machine's pinned RNG stream whether or not an attacker is
// there to observe them. Only an attacked round copies and decodes
// sub-bits; a receiver outside an attack hears the codeword intact. After
// a value's first round, a round without an attack allocates nothing.
//
// Most rounds reach receivers that have long accepted. The machine
// publishes a settled mask — decided, with no armed bad neighbour, so no
// NACK can still be owed — and the fast engine hands it only the rest of
// each jam-free slot (see the protocol package comment). Book hands over
// the slot's transmissions instead, and Deliver runs every sender's round
// from them in sender order, so the pattern redraw, the attack and the
// NACK spam of a round that reached no live receiver still happen, in the
// same order, on the same RNG stream. What the skipped receivers would
// have done is certain: they hear the payload intact (no attacker is in
// their range), serve the edge once and count it, which Finish does for
// every edge at once. A decided node that still has an armed bad
// neighbour stays on the frontier, since a corrupted round makes it NACK.
//
// Local broadcasts proceed concurrently in TDMA slot order (the engines'
// time base); the per-seed event stream is pinned by the golden reactive
// trace in the facade tests, and the protocol's guarantees — certified
// propagation, Theorem 4 message bounds, forgery probability — are
// asserted on this machine under Sweep, cancellation, observers and the
// fast/ref differential oracles.
package protocol

import (
	"fmt"
	"math"
	"slices"

	"bftbcast/internal/auedcode"
	"bftbcast/internal/core"
	"bftbcast/internal/grid"
	"bftbcast/internal/radio"
	"bftbcast/internal/stats"
)

// Reactive is the Section 5 protocol machine. The protocol does not know
// the adversary budget mf (Env.Params.MF); it only knows MMax.
//
// An instance publishes its run record (ReactiveStats) on its State at
// Finish, so a Reactive value holds only its configuration and may drive
// concurrent runs.
type Reactive struct {
	// MMax is the loose budget bound known to the protocol (sets the
	// sub-bit length L). Must be >= max(1, mf).
	MMax int
	// PayloadBits is the broadcast message size k.
	PayloadBits int
	// Policy selects the adversary behavior (0 = PolicyDisrupt).
	Policy AttackPolicy
}

// ReactiveStats is the run record a reactive instance publishes at
// Finish (State.Record); the facade hands it out as Report.Reactive.
// It holds what only the machine knows: completion, decisions and the
// bad-node count are the engine result's own fields.
type ReactiveStats struct {
	LocalBroadcasts int
	MessageRounds   int // data rounds across all local broadcasts

	DataSends []int32 // per node
	NackSends []int32 // per node
	Bad       []bool  // the resolved placement

	// MaxNodeMessages is the per-node maximum of data+NACK messages over
	// good non-source nodes; the Theorem 4 message bound is 2(t·mf+1).
	MaxNodeMessages int
	// MaxNodeSubSlots is MaxNodeMessages · K · L.
	MaxNodeSubSlots int
	// Theorem4SubSlots is the paper's closed-form budget.
	Theorem4SubSlots int

	ForgedDeliveries int // undetected wrong values planted (prob ≈ 2^-L each)
	AttacksSpent     int // adversary messages consumed
	CodewordBits     int
	SubBitLength     int
}

// CheckParams is the reactive parameter rule, the one place it lives:
// t within the certified-propagation threshold for radio range r
// (0 <= t <= CPMaxT(r)), a non-negative adversary budget mf that the
// protocol's loose bound covers (MMax >= max(1, mf)), and a payload the
// code can carry (1 <= PayloadBits <= auedcode.MaxPayloadBits). Attach
// enforces it, and Scenario validation calls it on the defaulted machine
// so an impossible corner of a grid is refused at submit time.
func (m *Reactive) CheckParams(r, t, mf int) error {
	if t < 0 || t > CPMaxT(r) {
		return fmt.Errorf("protocol: reactive t=%d outside [0,%d] for r=%d", t, CPMaxT(r), r)
	}
	if mf < 0 {
		return fmt.Errorf("protocol: reactive mf=%d must be >= 0", mf)
	}
	if m.MMax < 1 || m.MMax < mf {
		return fmt.Errorf("protocol: reactive mmax=%d must be >= max(1, mf=%d)", m.MMax, mf)
	}
	if m.PayloadBits < 1 || m.PayloadBits > auedcode.MaxPayloadBits {
		return fmt.Errorf("protocol: reactive payload bits %d outside [1,%d]", m.PayloadBits, auedcode.MaxPayloadBits)
	}
	return nil
}

// Attach implements Machine.
func (m *Reactive) Attach(env Env) (Instance, error) {
	if env.Plan == nil {
		return nil, fmt.Errorf("protocol: reactive machine needs a plan")
	}
	tor := env.Plan.Topo()
	t, mf := env.Params.T, env.Params.MF
	if err := m.CheckParams(tor.Range(), t, mf); err != nil {
		return nil, err
	}
	n := tor.Size()
	tEff := t
	if tEff == 0 {
		tEff = 1 // the code needs t >= 1; L only shrinks with t
	}
	code, err := auedcode.NewCode(m.PayloadBits, n, tEff, m.MMax)
	if err != nil {
		return nil, err
	}
	acc, err := NewAcceptance(AcceptConfig{
		Topo:      tor,
		Source:    env.Source,
		Threshold: t + 1,
	})
	if err != nil {
		return nil, err
	}
	adj := env.Plan.Adjacency()
	inst := &reactiveInstance{
		k:         m.PayloadBits,
		env:       env,
		code:      code,
		acc:       acc,
		adj:       adj,
		rng:       stats.NewRNG(env.Seed),
		policy:    m.Policy,
		t:         t,
		mf:        mf,
		served:    make([]bool, len(adj.Nbrs)),
		fill:      make([]int32, n),
		armed:     make([]int32, n),
		settledAt: make([]int32, n),
		lastBook:  make([]int32, n),
		bookSlot:  -1,
		rs: ReactiveStats{
			DataSends:        make([]int32, n),
			NackSends:        make([]int32, n),
			CodewordBits:     code.CodewordBits(),
			SubBitLength:     code.SubBitLength(),
			Theorem4SubSlots: core.Theorem4Budget(n, tEff, mf, m.MMax, m.PayloadBits),
		},
	}
	if inst.policy == 0 {
		inst.policy = PolicyDisrupt
	}
	inst.st.Decided = acc.Decided
	inst.st.Value = acc.Value
	inst.st.Correct = make([]int32, n)
	inst.st.Wrong = make([]int32, n)
	inst.st.Settled = make([]bool, n)
	for i := range inst.settledAt {
		inst.settledAt[i] = math.MaxInt32
	}
	if env.Bad != nil {
		inst.budget = make([]radio.Budget, n)
		for i := range inst.budget {
			if env.Bad[i] {
				inst.budget[i] = radio.NewBudget(mf)
				if mf > 0 {
					for _, nb := range adj.Neighbors(grid.NodeID(i)) {
						inst.armed[nb]++
					}
				}
			}
		}
	}
	if inst.armed[env.Source] == 0 {
		inst.settle(env.Source, -1)
	}
	return inst, nil
}

// reactiveInstance is one run's reactive protocol state.
type reactiveInstance struct {
	k      int // PayloadBits, the broadcast message size
	env    Env
	code   *auedcode.Code
	acc    *Acceptance
	adj    *radio.Adjacency
	rng    *stats.RNG
	policy AttackPolicy
	t, mf  int

	st     State
	budget []radio.Budget // bad-node attack budgets (nil when fault-free)
	// served marks (sender → receiver) CSR edges whose local broadcast
	// already delivered a payload, deduplicating retransmission rounds;
	// indexed by position in the adjacency's sorted rows.
	served []bool

	// The settled mask (see the file comment). armed[u] counts u's bad
	// neighbours with budget left; a decided node settles once it has
	// none, since only an armed neighbour can corrupt what it hears, and a
	// node that hears only clean payloads owes no NACK. settledAt[u] is
	// the first slot whose frontier skips u: the slot after the one in
	// which it settled (0 when it settled at Attach, MaxInt32 while it has
	// not settled). lastBook[s] is one past the last booked slot that
	// carried a round of s (0: none); Finish serves and counts every edge
	// of s to a receiver skipped by then that no delivered round served.
	armed     []int32
	settledAt []int32
	lastBook  []int32
	disarmed  []grid.NodeID // nodes the current round's spending settled

	rounds   []radio.Delivery // canonical per-slot scratch (sorted by From, To)
	fill     []int32          // per-node bucket cursor of the canonicalisation; all zero between slots
	heads    []roundHead      // the slot's rounds in sender order
	bookSlot int              // the slot whose rounds heads holds from Book, -1 when none
	codes    []valueCode      // coding state per transmitted value (a run has one or two)
	ones     []int            // forge-attack scratch: 1-bit positions of the codeword
	rs       ReactiveStats
}

// roundHead is one sender's round in a slot: its sender, the value it
// transmits, and the end of its deliveries in the canonical batch.
type roundHead struct {
	from grid.NodeID
	v    radio.Value
	end  int32
}

// valueCode is what every data round of one value shares: the k-bit
// payload and the codeword, whose bit level is fixed and whose sub-bit
// storage each round redraws in place.
type valueCode struct {
	v       radio.Value
	payload auedcode.BitString
	cw      *auedcode.Codeword
}

// State implements Instance.
func (e *reactiveInstance) State() *State { return &e.st }

// Bootstrap implements Instance: the source opens the first local
// broadcast with one data round.
func (e *reactiveInstance) Bootstrap(buf []Send) []Send {
	e.rs.LocalBroadcasts++
	return append(buf, Send{ID: e.env.Source, N: 1})
}

// Deliver implements Instance. Results must not depend on which engine
// produced the batch — the fast engine hands over one merged
// ascending-receiver list, the dense reference engine per-transmission
// walks — so the batch is first brought into (sender, receiver) order and
// then fed to the RNG stream one sender's round at a time. That takes one
// counting pass, not a sort: count per sender into the per-node scratch,
// order the slot's handful of distinct senders, scatter stably into the
// senders' buckets. A bucket keeps the batch's receiver order, which the
// fast and reference engines both emit ascending (the order oracle
// asserts it on their batches); each round checks that, and the sort
// behind the check serves only a caller outside those engines.
//
// After a Book the slot's rounds are the booked transmissions, not the
// senders found in the batch: every round runs its header — the pattern
// redraw, the attack, the NACK spam — in sender order, with the frontier
// deliveries of its sender, so the RNG stream and the budgets move as
// under full delivery even for a round that reached no live receiver.
func (e *reactiveInstance) Deliver(slot int, ds []radio.Delivery, hooks *Hooks, buf []Send) ([]Send, error) {
	booked := slot == e.bookSlot
	e.bookSlot = -1
	if !booked {
		e.heads = e.heads[:0]
	}
	for _, d := range ds {
		if e.fill[d.From] == 0 && !booked {
			e.heads = append(e.heads, roundHead{from: d.From, v: d.Value})
		}
		e.fill[d.From]++
	}
	heads := e.heads
	if !booked {
		slices.SortFunc(heads, byFrom)
	}
	// Turn the counts into each bucket's write cursor, scatter, and read
	// each bucket's end off its advanced cursor.
	at := int32(0)
	for _, h := range heads {
		at, e.fill[h.from] = at+e.fill[h.from], at
	}
	e.rounds = slices.Grow(e.rounds[:0], len(ds))[:len(ds)]
	for _, d := range ds {
		e.rounds[e.fill[d.From]] = d
		e.fill[d.From]++
	}
	for i := range heads {
		heads[i].end = e.fill[heads[i].from]
		e.fill[heads[i].from] = 0
	}
	lo := int32(0)
	for _, h := range heads {
		round := e.rounds[lo:h.end]
		lo = h.end
		if !slices.IsSortedFunc(round, byTo) {
			slices.SortFunc(round, byTo)
		}
		var err error
		if buf, err = e.dataRound(slot, h.from, h.v, round, hooks, buf); err != nil {
			return buf, err
		}
	}
	return buf, nil
}

func byFrom(a, b roundHead) int    { return int(a.from - b.from) }
func byTo(a, b radio.Delivery) int { return int(a.To - b.To) }

// Book implements Instance: it records the slot's rounds for the Deliver
// that follows — every transmission, in sender order — and notes each
// sender's booked slot for Finish. A sender with no neighbour has no
// round in a full batch, but none shares a slot with another sender: a
// node with no neighbour never accepts, so it transmits only as the
// source, before any other node has a send, and a slot no one hears gets
// no Deliver.
func (e *reactiveInstance) Book(slot int, txs []radio.Tx) error {
	heads := e.heads[:0]
	for _, tx := range txs {
		heads = append(heads, roundHead{from: tx.From, v: tx.Value})
		e.lastBook[tx.From] = int32(slot + 1)
	}
	slices.SortFunc(heads, byFrom)
	e.heads = heads
	e.bookSlot = slot
	return nil
}

// dataRound processes one sender's message round: encode, let one
// in-range bad node attack or spam, decode per receiver, raise NACKs,
// deliver clean (or undetectedly forged) payloads to certified
// propagation, and schedule the retransmission a NACK forces. ds holds
// the round's deliveries in ascending receiver order — after a Book only
// those to receivers that were not settled, possibly none.
func (e *reactiveInstance) dataRound(slot int, sender grid.NodeID, v radio.Value, ds []radio.Delivery, hooks *Hooks, buf []Send) ([]Send, error) {
	if e.env.bad(sender) {
		return buf, nil // bad nodes act through the attack policies
	}
	e.rs.MessageRounds++
	e.rs.DataSends[sender]++
	vc, err := e.encode(v)
	if err != nil {
		return buf, err
	}
	payload := vc.payload
	attacked, attacker, err := e.attackRound(slot, e.armedNeighbor(sender), vc.cw, hooks)
	if err != nil {
		return buf, err
	}
	var (
		attackedGot auedcode.BitString
		attackedOK  bool
	)
	if attacker != grid.None {
		// Only the verdict matters; the integrity error stays unformatted.
		got, err := e.code.ReceiveSub(attacked)
		attackedGot, attackedOK = got, err == nil
	}
	tor := e.env.Plan.Topo()
	row := e.adj.SortedNeighbors(sender)
	rowOff := int(e.adj.Off[sender])
	edge := 0
	nackHeard := false
	for _, d := range ds {
		to := d.To
		if e.env.bad(to) {
			continue
		}
		// Advance the CSR cursor to the receiver's edge slot (both the
		// round's receivers and the sorted row ascend).
		for edge < len(row) && row[edge] < to {
			edge++
		}
		got, ok := payload, true
		if attacker != grid.None && tor.Dist(to, attacker) <= tor.Range() {
			got, ok = attackedGot, attackedOK
		}
		switch {
		case ok && got.Equal(payload):
			if !e.serve(rowOff, edge, row, to) {
				break
			}
			if hooks.OnDeliver != nil {
				hooks.OnDeliver(slot, radio.Delivery{To: to, From: sender, Value: v})
			}
			e.countPayload(to, v)
			buf = e.cpDeliver(slot, to, sender, v, hooks, buf)
		case ok:
			// An undetected forgery: the receiver trusts a wrong payload.
			if !e.serve(rowOff, edge, row, to) {
				break
			}
			e.rs.ForgedDeliveries++
			fv := e.valueFor(got)
			if hooks.OnDeliver != nil {
				hooks.OnDeliver(slot, radio.Delivery{To: to, From: sender, Value: fv})
			}
			e.countPayload(to, fv)
			buf = e.cpDeliver(slot, to, sender, fv, hooks, buf)
		default:
			e.rs.NackSends[to]++
			nackHeard = true
		}
	}
	if e.spamNack(slot, sender, hooks) {
		nackHeard = true
	}
	if nackHeard {
		buf = append(buf, Send{ID: sender, N: 1})
	}
	// Nodes the round's spending disarmed into settling tell the engine
	// through a send that schedules nothing (see the seam contract).
	for _, u := range e.disarmed {
		buf = append(buf, Send{ID: u})
	}
	e.disarmed = e.disarmed[:0]
	return buf, nil
}

// serve marks the (sender → receiver) edge as delivered, returning false
// when an earlier round of this local broadcast already served it.
func (e *reactiveInstance) serve(rowOff, edge int, row []grid.NodeID, to grid.NodeID) bool {
	if edge >= len(row) || row[edge] != to {
		return true // not a plan edge (degenerate medium); deliver once, unserved
	}
	if e.served[rowOff+edge] {
		return false
	}
	e.served[rowOff+edge] = true
	return true
}

// countPayload tallies the payload delivery into the receipt counters.
func (e *reactiveInstance) countPayload(to grid.NodeID, v radio.Value) {
	if v == radio.ValueTrue {
		e.st.Correct[to]++
	} else {
		e.st.Wrong[to]++
	}
}

// cpDeliver hands a payload to certified propagation and, on acceptance,
// opens the receiver's own local broadcast.
func (e *reactiveInstance) cpDeliver(slot int, to, from grid.NodeID, v radio.Value, hooks *Hooks, buf []Send) []Send {
	if !e.acc.Deliver(to, from, v) {
		return buf
	}
	if e.armed[to] == 0 {
		e.settle(to, slot)
	}
	if hooks.OnAccept != nil {
		hooks.OnAccept(slot, to, v)
	}
	e.rs.LocalBroadcasts++
	return append(buf, Send{ID: to, N: 1})
}

// settle marks u settled in slot (see the armed field).
func (e *reactiveInstance) settle(u grid.NodeID, slot int) {
	e.st.Settled[u] = true
	e.settledAt[u] = int32(slot + 1)
}

// spend takes one message from bad node x's budget. The message that
// empties it disarms x, which settles every decided neighbour left with
// no armed bad neighbour.
func (e *reactiveInstance) spend(x grid.NodeID, slot int) bool {
	if !e.budget[x].TrySpend() {
		return false
	}
	if e.budget[x].Left() == 0 {
		for _, nb := range e.adj.Neighbors(x) {
			if e.armed[nb]--; e.armed[nb] == 0 && e.st.Decided[nb] {
				e.settle(nb, slot)
				e.disarmed = append(e.disarmed, nb)
			}
		}
	}
	return true
}

// encode returns v's coding state holding this round's encoding: the
// value's first round builds the payload and the codeword (Encode), later
// rounds redraw its sub-bit patterns in place — the same draws from the
// RNG stream either way.
func (e *reactiveInstance) encode(v radio.Value) (*valueCode, error) {
	for i := range e.codes {
		if vc := &e.codes[i]; vc.v == v {
			vc.cw.Redraw(e.rng)
			return vc, nil
		}
	}
	payload := e.payloadFor(v)
	cw, err := e.code.Encode(payload, e.rng)
	if err != nil {
		return nil, err
	}
	e.codes = append(e.codes, valueCode{v: v, payload: payload, cw: cw})
	return &e.codes[len(e.codes)-1], nil
}

// attackRound lets attacker, the armed bad node in the sender's range
// (grid.None when there is none), attack the round's sub-bit patterns. It
// returns the attacked sub-bit string and the attacker (grid.None when no
// attack happened).
func (e *reactiveInstance) attackRound(slot int, attacker grid.NodeID, cw *auedcode.Codeword, hooks *Hooks) (auedcode.BitString, grid.NodeID, error) {
	if attacker == grid.None {
		return auedcode.BitString{}, grid.None, nil
	}
	policy := e.policy
	if policy == PolicyMixed {
		switch e.rs.AttacksSpent % 3 {
		case 0:
			policy = PolicyDisrupt
		case 1:
			policy = PolicyForge
		default:
			policy = PolicyNackSpam
		}
	}
	if policy == PolicyNackSpam {
		return auedcode.BitString{}, grid.None, nil // handled in spamNack
	}
	if !e.spend(attacker, slot) {
		return auedcode.BitString{}, grid.None, nil
	}
	e.rs.AttacksSpent++
	if hooks.OnSend != nil {
		hooks.OnSend(slot, attacker, radio.ValueNone, true)
	}
	switch policy {
	case PolicyForge:
		// Try to erase a random 1-bit; detected otherwise. (The guard
		// bit keeps every codeword non-zero, so ones is never empty.)
		ones := e.ones[:0]
		for i := 0; i < cw.Bits.Len(); i++ {
			if cw.Bits.Get(i) == 1 {
				ones = append(ones, i)
			}
		}
		e.ones = ones
		bit := ones[e.rng.Intn(len(ones))]
		sub, _, err := cw.AttackCancelRandom(bit, e.rng)
		if err != nil {
			return auedcode.BitString{}, grid.None, err
		}
		return sub, attacker, nil
	default: // PolicyDisrupt
		// Flip a silent sub-slot of a 0-bit: always detected.
		for i := 0; i < cw.Bits.Len(); i++ {
			if cw.Bits.Get(i) == 0 {
				sub, err := cw.AttackFlipUp(i)
				if err != nil {
					return auedcode.BitString{}, grid.None, err
				}
				return sub, attacker, nil
			}
		}
		// All-ones codeword (cannot happen: count segments contain
		// zeros); attack the first sub-slot anyway.
		sub := cw.Sub.Clone()
		sub.Set(0, 1)
		return sub, attacker, nil
	}
}

// spamNack lets a bad node in the sender's range burn budget on a fake
// NACK, forcing a retransmission.
func (e *reactiveInstance) spamNack(slot int, sender grid.NodeID, hooks *Hooks) bool {
	if e.policy != PolicyNackSpam && e.policy != PolicyMixed {
		return false
	}
	spammer := e.armedNeighbor(sender)
	if spammer == grid.None {
		return false
	}
	if !e.spend(spammer, slot) {
		return false
	}
	e.rs.AttacksSpent++
	if hooks.OnSend != nil {
		hooks.OnSend(slot, spammer, radio.ValueNone, true)
	}
	return true
}

// armedNeighbor returns the first bad neighbor of sender with remaining
// budget, in the compiled plan's CSR order, or grid.None.
func (e *reactiveInstance) armedNeighbor(sender grid.NodeID) grid.NodeID {
	if e.armed[sender] == 0 {
		return grid.None
	}
	for _, nb := range e.adj.Neighbors(sender) {
		if e.env.Bad[nb] && e.budget[nb].Left() != 0 {
			return nb
		}
	}
	return grid.None
}

// payloadFor encodes a protocol value into the k-bit payload.
func (e *reactiveInstance) payloadFor(v radio.Value) auedcode.BitString {
	p := auedcode.NewBitString(e.k)
	width := e.k
	if width > 16 {
		width = 16
	}
	p.WriteUint(uint(v), e.k-width, width)
	return p
}

// valueFor decodes a payload back into a protocol value.
func (e *reactiveInstance) valueFor(p auedcode.BitString) radio.Value {
	width := e.k
	if width > 16 {
		width = 16
	}
	return radio.Value(p.ReadUint(e.k-width, width))
}

// Tick implements Instance: the reactive rounds are delivery-driven
// (NACKs are accounted inside the round that provoked them), so no
// time-driven sends exist.
func (e *reactiveInstance) Tick(_ int, buf []Send) []Send { return buf }

// GoodBudget implements Instance: the reactive protocol bounds messages
// by the NACK loop itself, not a static budget.
func (e *reactiveInstance) GoodBudget(grid.NodeID) int { return -1 }

// Threshold implements Instance (the certified-propagation threshold).
func (e *reactiveInstance) Threshold() int { return e.t + 1 }

// Sizing implements Instance: per Theorem 4 a node sends at most
// 2(t·mf+1) messages, padded for the fault-free floor.
func (e *reactiveInstance) Sizing() (sourceSends, maxSends int) {
	return 1, 2*(e.t*e.mf+1) + 16
}

// Finish implements Instance: book what the frontier slots skipped and
// publish the run record. A receiver that was settled when a booked
// round of s went out heard s's payload intact, so the edge is served
// and counted once unless a delivered round already served it
// (settledness is monotone, so s's last booked round decides).
func (e *reactiveInstance) Finish(int) {
	for s, last := range e.lastBook {
		if last == 0 {
			continue
		}
		counts := e.st.Wrong
		if e.st.Value[s] == radio.ValueTrue {
			counts = e.st.Correct
		}
		row := e.adj.SortedNeighbors(grid.NodeID(s))
		served := e.served[e.adj.Off[s]:][:len(row)]
		for k, to := range row {
			if !served[k] && e.settledAt[to] < last {
				served[k] = true
				counts[to]++
			}
		}
	}
	rs := &e.rs
	n := e.env.Plan.Size()
	if e.env.Bad != nil {
		rs.Bad = append([]bool(nil), e.env.Bad...)
	} else {
		rs.Bad = make([]bool, n)
	}
	for i := 0; i < n; i++ {
		id := grid.NodeID(i)
		if rs.Bad[i] || id == e.env.Source {
			continue
		}
		if msgs := int(rs.DataSends[i] + rs.NackSends[i]); msgs > rs.MaxNodeMessages {
			rs.MaxNodeMessages = msgs
		}
	}
	rs.MaxNodeSubSlots = rs.MaxNodeMessages * rs.CodewordBits * rs.SubBitLength
	out := *rs
	out.DataSends = append([]int32(nil), rs.DataSends...)
	out.NackSends = append([]int32(nil), rs.NackSends...)
	e.st.Record = &out
}
