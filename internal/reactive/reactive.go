// Package reactive implements Section 5 of the paper: reliable broadcast
// when the bad nodes' budget mf is unknown.
//
// The building block is a reactive reliable local broadcast. A sender
// encodes its message with the two-level AUED code (package auedcode) and
// transmits it as one message round (K·L sub-slots). A receiver that
// detects an integrity violation broadcasts a NACK; the receipt of any
// NACK — genuine or adversarial — makes the sender retransmit with fresh
// random sub-bit patterns. The sender stops once (2r+1)²−1 consecutive
// message rounds pass without a NACK, giving every neighbor a NACK
// opportunity in the TDMA cycle.
//
// On top of the primitive runs the certified-propagation protocol of
// Bhandari–Vaidya (package bv), yielding protocol Breactive, which
// tolerates t < ½r(2r+1) with probability at least 1 − 1/n (Theorem 4).
//
// This package is the FROZEN sequential runtime: it executes local
// broadcasts one at a time in NextRelay order, as the seed did. It is
// reference code: experiments E8 and E10 run it (E10 for the QuietWindow
// ablation only it has), the machine's cross-check test compares
// outcomes against it, and the facade borrows its Result type for the
// Report.Reactive extension; nothing else reaches it. The production
// path is the reactive protocol machine in internal/protocol, which runs
// the same NACK/AUED semantics concurrently on the shared engine stack
// (TDMA slot time, Sweep, cancellation, observers, differential
// oracles); its per-seed traces differ from this runtime by scheduling
// only. Do not extend this package — grow the machine instead.
package reactive

import (
	"context"
	"errors"
	"fmt"

	"bftbcast/internal/adversary"
	"bftbcast/internal/auedcode"
	"bftbcast/internal/bv"
	"bftbcast/internal/core"
	"bftbcast/internal/grid"
	"bftbcast/internal/plan"
	"bftbcast/internal/protocol"
	"bftbcast/internal/radio"
	"bftbcast/internal/stats"
	"bftbcast/internal/topo"
)

// AttackPolicy selects how bad nodes spend their (unknown to the
// protocol) budget. It is an alias of the protocol machine's type, so
// the same values drive both runtimes.
type AttackPolicy = protocol.AttackPolicy

// Attack policies (see protocol.AttackPolicy).
const (
	PolicyDisrupt  = protocol.PolicyDisrupt
	PolicyForge    = protocol.PolicyForge
	PolicyNackSpam = protocol.PolicyNackSpam
	PolicyMixed    = protocol.PolicyMixed
)

// Config describes one Breactive run.
type Config struct {
	// Topo is the network topology (grid.Torus, topo.Bounded, topo.RGG).
	Topo topo.Topology
	// T is the locally-bounded fault parameter; must satisfy
	// t < ½r(2r+1) (the certified-propagation threshold).
	T int
	// MF is the actual adversary budget, unknown to the protocol.
	MF int
	// MMax is the loose upper bound known to the protocol (sets L).
	MMax int
	// PayloadBits is the broadcast message size k.
	PayloadBits int
	Source      grid.NodeID
	Placement   adversary.Placement
	Policy      AttackPolicy // 0 = PolicyDisrupt
	Seed        uint64
	// QuietWindow overrides the (2r+1)²−1 NACK-free rounds required to
	// finish a local broadcast (0 = paper default). Used by ablations.
	QuietWindow int
	// MaxRoundsPerBroadcast caps one local broadcast (0 = generous
	// default).
	MaxRoundsPerBroadcast int
	// OnSlotStart, when non-nil, observes every data message round (the
	// reactive runtime's slot notion), numbered globally across local
	// broadcasts.
	OnSlotStart func(round int)
	// OnSend, when non-nil, observes every data transmission and (with
	// adversarial=true and value ValueNone) every adversarial attack or
	// fake NACK spent against the current round.
	OnSend func(round int, from grid.NodeID, v radio.Value, adversarial bool)
	// OnDeliver, when non-nil, observes every clean (or undetectedly
	// forged) payload delivery of the coding layer.
	OnDeliver func(round int, d radio.Delivery)
	// OnDecide, when non-nil, observes every certified-propagation
	// acceptance.
	OnDecide func(round int, id grid.NodeID, v radio.Value)
}

// Result reports a Breactive run.
type Result struct {
	Completed      bool
	WrongDecisions int // good nodes holding a value != Vtrue at the end
	DecidedGood    int
	TotalGood      int
	BadCount       int

	LocalBroadcasts int
	MessageRounds   int // data rounds across all local broadcasts

	DataSends []int32 // per node
	NackSends []int32 // per node

	// MaxNodeMessages is the per-node maximum of data+NACK messages; the
	// Theorem 4 message bound is 2(t·mf+1).
	MaxNodeMessages int
	// MaxNodeSubSlots is MaxNodeMessages · K · L, comparable to the
	// Theorem 4 sub-slot budget.
	MaxNodeSubSlots int
	// Theorem4SubSlots is the paper's closed-form budget
	// 2(t·mf+1)(2·log n + log t + log mmax)(k + 2·log k + 2).
	Theorem4SubSlots int

	ForgedDeliveries int // undetected wrong values planted (prob ≈ 2^-L each)
	AttacksSpent     int // adversary messages consumed
	CodewordBits     int
	SubBitLength     int

	// Per-node final state, indexed by NodeID.
	Decided      []bool
	DecidedValue []radio.Value
	Bad          []bool // the resolved placement
}

// Run executes Breactive to fixpoint.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cooperative cancellation: the engine checks ctx
// once per message round (and per relay) and returns ctx.Err() when it
// fires. A nil ctx behaves like context.Background().
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Topo == nil {
		return nil, errors.New("reactive: config needs a topology")
	}
	r := cfg.Topo.Range()
	if cfg.T < 0 || cfg.T > bv.MaxToleratedT(r) {
		return nil, fmt.Errorf("reactive: t=%d outside [0,%d] for r=%d", cfg.T, bv.MaxToleratedT(r), r)
	}
	if cfg.MF < 0 {
		return nil, fmt.Errorf("reactive: mf=%d must be >= 0", cfg.MF)
	}
	if cfg.MMax < 1 || cfg.MMax < cfg.MF {
		return nil, fmt.Errorf("reactive: mmax=%d must be >= max(1, mf=%d)", cfg.MMax, cfg.MF)
	}
	if cfg.PayloadBits < 1 {
		return nil, fmt.Errorf("reactive: payload bits %d", cfg.PayloadBits)
	}
	n := cfg.Topo.Size()
	if int(cfg.Source) < 0 || int(cfg.Source) >= n {
		return nil, fmt.Errorf("reactive: source %d out of range", cfg.Source)
	}

	tEff := cfg.T
	if tEff == 0 {
		tEff = 1 // the code needs t >= 1; L only shrinks with t
	}
	code, err := auedcode.NewCode(cfg.PayloadBits, n, tEff, cfg.MMax)
	if err != nil {
		return nil, err
	}

	placement := cfg.Placement
	if placement == nil {
		placement = adversary.None{}
	}
	bad, err := placement.Place(cfg.Topo, cfg.Source)
	if err != nil {
		return nil, err
	}
	if _, err := adversary.Validate(cfg.Topo, bad, cfg.Source, cfg.T); err != nil {
		return nil, err
	}

	proto, err := bv.New(cfg.Topo, cfg.T, cfg.Source)
	if err != nil {
		return nil, err
	}

	e := &engine{
		ctx:      ctx,
		cfg:      cfg,
		pl:       plan.For(cfg.Topo),
		code:     code,
		proto:    proto,
		bad:      bad,
		received: make([]int32, n),
		rng:      stats.NewRNG(cfg.Seed),
		policy:   cfg.Policy,
		quiet:    cfg.QuietWindow,
		res: Result{
			DataSends:        make([]int32, n),
			NackSends:        make([]int32, n),
			CodewordBits:     code.CodewordBits(),
			SubBitLength:     code.SubBitLength(),
			Theorem4SubSlots: core.Theorem4Budget(n, tEff, cfg.MF, cfg.MMax, cfg.PayloadBits),
		},
	}
	if e.policy == 0 {
		e.policy = PolicyDisrupt
	}
	if cfg.OnDecide != nil {
		proto.OnAccept = func(id grid.NodeID, v radio.Value) { cfg.OnDecide(e.curRound, id, v) }
	}
	if e.quiet <= 0 {
		e.quiet = cfg.Topo.MaxDegree()
	}
	e.budget = make([]radio.Budget, n)
	for i := range e.budget {
		if bad[i] {
			e.budget[i] = radio.NewBudget(cfg.MF)
			e.res.BadCount++
		}
	}
	return e.run()
}

type engine struct {
	ctx    context.Context
	cfg    Config
	pl     *plan.Plan
	code   *auedcode.Code
	proto  *bv.Protocol
	bad    []bool
	budget []radio.Budget
	rng    *stats.RNG
	policy AttackPolicy
	quiet  int

	// received is the per-local-broadcast "got a clean copy" set,
	// flattened into an epoch-stamped array: received[id] == recvEpoch
	// marks id as served in the current broadcast, and bumping recvEpoch
	// clears the whole set in O(1).
	received  []int32
	recvEpoch int32

	curRound int // global data-round index (res.MessageRounds - 1)
	res      Result
}

func (e *engine) run() (*Result, error) {
	for {
		if err := e.ctx.Err(); err != nil {
			return nil, err
		}
		sender := e.proto.NextRelay()
		if sender == grid.None {
			break
		}
		if e.bad[sender] {
			continue // bad relayers act through the adversary policies
		}
		v, _ := e.proto.Decided(sender)
		if err := e.localBroadcast(sender, v); err != nil {
			return nil, err
		}
	}
	return e.finish(), nil
}

// payloadFor encodes a protocol value into the k-bit payload.
func (e *engine) payloadFor(v radio.Value) auedcode.BitString {
	p := auedcode.NewBitString(e.cfg.PayloadBits)
	width := e.cfg.PayloadBits
	if width > 16 {
		width = 16
	}
	p.WriteUint(uint(v), e.cfg.PayloadBits-width, width)
	return p
}

// valueFor decodes a payload back into a protocol value.
func (e *engine) valueFor(p auedcode.BitString) radio.Value {
	width := e.cfg.PayloadBits
	if width > 16 {
		width = 16
	}
	return radio.Value(p.ReadUint(e.cfg.PayloadBits-width, width))
}

// localBroadcast runs the reactive NACK loop for one sender.
func (e *engine) localBroadcast(sender grid.NodeID, v radio.Value) error {
	e.res.LocalBroadcasts++
	tor := e.cfg.Topo
	payload := e.payloadFor(v)

	maxRounds := e.cfg.MaxRoundsPerBroadcast
	if maxRounds <= 0 {
		maxRounds = 2*(e.cfg.T*e.cfg.MF+1) + 2*e.quiet + 16
	}

	e.recvEpoch++ // clears the received set of the previous broadcast
	quietRun := 0
	pendingData := true // transmit in the first round

	for round := 0; round < maxRounds; round++ {
		if err := e.ctx.Err(); err != nil {
			return err
		}
		nackHeard := false
		if pendingData {
			pendingData = false
			e.curRound = e.res.MessageRounds
			e.res.MessageRounds++
			e.res.DataSends[sender]++
			if e.cfg.OnSlotStart != nil {
				e.cfg.OnSlotStart(e.curRound)
			}
			if e.cfg.OnSend != nil {
				e.cfg.OnSend(e.curRound, sender, v, false)
			}
			cw, err := e.code.Encode(payload, e.rng)
			if err != nil {
				return err
			}
			attacked, forged, attackerRange, err := e.attackRound(sender, cw)
			if err != nil {
				return err
			}
			// Deliver per receiver: inside the attacker's range the
			// attacked sub-bits are heard, outside the clean ones. The
			// walk reads the compiled plan's CSR.
			for _, to := range e.pl.Neighbors(sender) {
				if e.bad[to] {
					continue
				}
				sub := cw.Sub
				if attackerRange != nil && tor.Dist(to, attackerRange[0]) <= tor.Range() {
					sub = attacked
				}
				got, err := e.code.ReceiveSub(sub)
				switch {
				case err == nil && got.Equal(payload):
					if e.received[to] != e.recvEpoch {
						e.received[to] = e.recvEpoch
						if e.cfg.OnDeliver != nil {
							e.cfg.OnDeliver(e.curRound, radio.Delivery{To: to, From: sender, Value: v})
						}
						e.proto.Deliver(to, sender, v)
					}
				case err == nil:
					// An undetected forgery: the receiver trusts a
					// wrong payload.
					if e.received[to] != e.recvEpoch {
						e.received[to] = e.recvEpoch
						e.res.ForgedDeliveries++
						if e.cfg.OnDeliver != nil {
							e.cfg.OnDeliver(e.curRound, radio.Delivery{To: to, From: sender, Value: e.valueFor(got)})
						}
						e.proto.Deliver(to, sender, e.valueFor(got))
					}
				default:
					e.res.NackSends[to]++
					nackHeard = true
				}
			}
			_ = forged
		}

		// Adversarial NACK spam targets the sender directly.
		if e.spamNack(sender) {
			nackHeard = true
		}

		if nackHeard {
			quietRun = 0
			pendingData = true
			continue
		}
		quietRun++
		if quietRun >= e.quiet {
			return nil
		}
	}
	// Round cap reached: the quiet window never closed. Treat whatever
	// was delivered as final (the protocol layer already has it).
	return nil
}

// attackRound lets one bad node in range attack the transmission.
// It returns the attacked sub-bit string (nil when no attack), whether a
// forge succeeded, and a one-element slice naming the attacker (nil when
// none) for range checks.
func (e *engine) attackRound(sender grid.NodeID, cw *auedcode.Codeword) (auedcode.BitString, bool, []grid.NodeID, error) {
	attacker := grid.None
	// The first in-range bad node with budget attacks. Attackers beyond
	// radio range of the sender cannot hit the same receivers reliably;
	// in-range keeps the model simple and is the common case for the
	// locally-bounded placements.
	for _, nb := range e.pl.Neighbors(sender) {
		if e.bad[nb] && e.budget[nb].Left() != 0 {
			attacker = nb
			break
		}
	}
	if attacker == grid.None {
		return auedcode.BitString{}, false, nil, nil
	}
	policy := e.policy
	if policy == PolicyMixed {
		switch e.res.AttacksSpent % 3 {
		case 0:
			policy = PolicyDisrupt
		case 1:
			policy = PolicyForge
		default:
			policy = PolicyNackSpam
		}
	}
	if policy == PolicyNackSpam {
		return auedcode.BitString{}, false, nil, nil // handled in spamNack
	}
	if !e.budget[attacker].TrySpend() {
		return auedcode.BitString{}, false, nil, nil
	}
	e.res.AttacksSpent++
	if e.cfg.OnSend != nil {
		e.cfg.OnSend(e.curRound, attacker, radio.ValueNone, true)
	}

	switch policy {
	case PolicyForge:
		// Try to erase a random 1-bit; detected otherwise.
		var ones []int
		for i := 0; i < cw.Bits.Len(); i++ {
			if cw.Bits.Get(i) == 1 {
				ones = append(ones, i)
			}
		}
		bit := ones[e.rng.Intn(len(ones))]
		sub, erased, err := cw.AttackCancelRandom(bit, e.rng)
		if err != nil {
			return auedcode.BitString{}, false, nil, err
		}
		return sub, erased, []grid.NodeID{attacker}, nil
	default: // PolicyDisrupt
		// Flip a silent sub-slot of a 0-bit: always detected.
		for i := 0; i < cw.Bits.Len(); i++ {
			if cw.Bits.Get(i) == 0 {
				sub, err := cw.AttackFlipUp(i)
				if err != nil {
					return auedcode.BitString{}, false, nil, err
				}
				return sub, false, []grid.NodeID{attacker}, nil
			}
		}
		// All-ones codeword (cannot happen: count segments contain
		// zeros); attack the first sub-slot anyway.
		sub := cw.Sub.Clone()
		sub.Set(0, 1)
		return sub, false, []grid.NodeID{attacker}, nil
	}
}

// spamNack lets a bad node in the sender's range burn budget on a fake
// NACK, forcing a retransmission.
func (e *engine) spamNack(sender grid.NodeID) bool {
	if e.policy != PolicyNackSpam && e.policy != PolicyMixed {
		return false
	}
	spammer := grid.None
	for _, nb := range e.pl.Neighbors(sender) {
		if e.bad[nb] && e.budget[nb].Left() != 0 {
			spammer = nb
			break
		}
	}
	if spammer == grid.None {
		return false
	}
	if !e.budget[spammer].TrySpend() {
		return false
	}
	e.res.AttacksSpent++
	if e.cfg.OnSend != nil {
		e.cfg.OnSend(e.curRound, spammer, radio.ValueNone, true)
	}
	return true
}

func (e *engine) finish() *Result {
	res := &e.res
	n := e.cfg.Topo.Size()
	res.Decided = make([]bool, n)
	res.DecidedValue = make([]radio.Value, n)
	res.Bad = append([]bool(nil), e.bad...)
	for i := 0; i < n; i++ {
		id := grid.NodeID(i)
		v, ok := e.proto.Decided(id)
		res.Decided[i] = ok
		if ok {
			res.DecidedValue[i] = v
		}
		if e.bad[i] {
			continue
		}
		res.TotalGood++
		if ok {
			res.DecidedGood++
			if v != radio.ValueTrue {
				res.WrongDecisions++
			}
		}
		msgs := int(res.DataSends[i] + res.NackSends[i])
		if id != e.cfg.Source && msgs > res.MaxNodeMessages {
			res.MaxNodeMessages = msgs
		}
	}
	res.MaxNodeSubSlots = res.MaxNodeMessages * res.CodewordBits * res.SubBitLength
	res.Completed = res.DecidedGood == res.TotalGood && res.WrongDecisions == 0
	return res
}
