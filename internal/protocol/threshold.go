package protocol

import (
	"bftbcast/internal/core"
	"bftbcast/internal/grid"
	"bftbcast/internal/radio"
)

// Threshold is the Machine executing a static-budget threshold protocol
// described by a core.Spec: protocol B, Bheter, the Koo baseline and the
// full-budget protocol all run through it. It is the seam form of the
// acceptance logic the slot-level engines used to inline.
type Threshold struct {
	Spec core.Spec
}

// NewThreshold wraps a spec as a Machine.
func NewThreshold(spec core.Spec) *Threshold { return &Threshold{Spec: spec} }

// Attach implements Machine.
func (m *Threshold) Attach(env Env) (Instance, error) {
	inst := NewThresholdInstance()
	if err := inst.Bind(env, m.Spec); err != nil {
		return nil, err
	}
	return inst, nil
}

// ThresholdInstance is the Instance of the copies rule: a good node
// accepts a value at exactly Threshold = t·mf+1 received copies of it.
// It is exported (with Bind) so the fast engine's reusable Runner can
// keep one across runs: Bind re-arms it for a new (env, spec) pair,
// reusing every allocation when the topology size is unchanged — the
// zero-alloc steady state of sweeps.
//
// Its settled mask is the decided mask: a decided node only counts what
// it receives, and every decision, the source's at Bootstrap included,
// already returns the relay Send that announces a settlement. Book, and
// BookSends for a settled transmitter's remaining sends, put each booked
// transmission on its sender's ledger line for the sender's Value: it
// reached the sender's whole row, and a good sender's value is fixed
// once it decides.
//
// Every Deliver counts its deliveries into Correct and Wrong, so both are
// complete for undecided nodes while the run lasts (all adversary.View
// promises); Correct doubles as the copies counter of ValueTrue. From
// the first booking on, the ledger counts the booked slots, so only the
// receipts of the other (jammed) slots are kept again, in rcptCorrect/
// rcptWrong, seeded with everything received before; Finish adds the
// ledger fold to them, complete for every node.
type ThresholdInstance struct {
	spec   core.Spec
	bad    []bool
	source grid.NodeID
	st     State     // Settled aliases Decided
	tally  copyTally // copies of the values other than ValueTrue, a cell per node
	ledger receiptLedger

	rcptCorrect, rcptWrong []int32 // receipts outside booked slots, once opened is set
	opened                 bool    // something was booked: Finish folds the ledger
	booked                 int     // the last slot passed to Book, -1 before the first
}

// NewThresholdInstance returns an unbound instance; Bind arms it.
func NewThresholdInstance() *ThresholdInstance { return &ThresholdInstance{} }

// Bind validates the spec and re-arms the instance for a new run,
// reusing its arrays when the topology size is unchanged.
func (t *ThresholdInstance) Bind(env Env, spec core.Spec) error {
	n, err := env.checkCopies(spec, "threshold instance")
	if err != nil {
		return err
	}
	t.spec = spec
	t.bad = env.Bad
	t.source = env.Source
	t.tally.reset(n)
	t.ledger.reset(env.Plan)
	t.st.Decided = sized(t.st.Decided, n)
	t.st.Value = sized(t.st.Value, n)
	t.st.Decided[env.Source] = true
	t.st.Value[env.Source] = radio.ValueTrue
	t.st.Settled = t.st.Decided
	t.st.Correct = sized(t.st.Correct, n)
	t.st.Wrong = sized(t.st.Wrong, n)
	t.rcptCorrect = sized(t.rcptCorrect, n)
	t.rcptWrong = sized(t.rcptWrong, n)
	t.opened, t.booked = false, -1
	return nil
}

// sized returns s cleared at length n, reusing its backing array when the
// length already matches.
func sized[T any](s []T, n int) []T {
	if len(s) != n {
		return make([]T, n)
	}
	clear(s)
	return s
}

// Unbind drops the per-run references (the bad mask) so a pooled engine
// does not pin them between runs.
func (t *ThresholdInstance) Unbind() { t.bad = nil }

// State implements Instance.
func (t *ThresholdInstance) State() *State { return &t.st }

// Bootstrap implements Instance: the source repeats SourceRepeats times.
func (t *ThresholdInstance) Bootstrap(buf []Send) []Send {
	return append(buf, Send{ID: t.source, N: t.spec.SourceRepeats})
}

// Deliver implements Instance. The loop body preserves the exact
// per-delivery order the fast engine used before the seam: observer
// event, receipt counters, the copies rule (bump the value's counter,
// accept an undecided node exactly at the threshold crossing), relay
// scheduling, decide event — so observer streams and results stay
// bit-identical.
func (t *ThresholdInstance) Deliver(slot int, ds []radio.Delivery, hooks *Hooks, buf []Send) ([]Send, error) {
	st := &t.st
	for _, d := range ds {
		if hooks.OnDeliver != nil {
			hooks.OnDeliver(slot, d)
		}
		u := d.To
		if t.bad != nil && t.bad[u] {
			continue // adversary nodes do not run the protocol
		}
		var copies int32
		if d.Value == radio.ValueTrue {
			st.Correct[u]++
			copies = st.Correct[u]
		} else {
			st.Wrong[u]++
			copies = t.tally.add(int(u), d.Value)
		}
		if st.Decided[u] || copies != int32(t.spec.Threshold) {
			continue
		}
		st.Decided[u] = true
		st.Value[u] = d.Value
		buf = append(buf, Send{ID: u, N: t.spec.Sends(u)})
		if hooks.OnAccept != nil {
			hooks.OnAccept(slot, u, d.Value)
		}
	}
	if t.opened && slot != t.booked {
		// The ledger does not count these (see the type comment).
		for _, d := range ds {
			if d.Value == radio.ValueTrue {
				t.rcptCorrect[d.To]++
			} else {
				t.rcptWrong[d.To]++
			}
		}
	}
	return buf, nil
}

// Tick implements Instance (threshold protocols are purely
// delivery-driven).
func (t *ThresholdInstance) Tick(_ int, buf []Send) []Send { return buf }

// Book implements Instance: one ledger bump per transmission.
func (t *ThresholdInstance) Book(slot int, txs []radio.Tx) error {
	t.openLedger()
	for i := range txs {
		from := txs[i].From
		t.ledger.book(from, t.st.Value[from], 1)
	}
	t.booked = slot
	return nil
}

// BookSends books k transmissions of from outside any slot's Book, on
// the same terms: each reaches from's whole row, jam-free. The fast
// engine books a settled transmitter's remaining sends with it at once,
// and takes one back (k = -1) for each that a jammed slot resolves in
// full after all.
func (t *ThresholdInstance) BookSends(from grid.NodeID, k int32) {
	t.openLedger()
	t.ledger.book(from, t.st.Value[from], k)
}

// openLedger starts the booked run's receipts at the first booking with
// everything received so far (see the type comment).
func (t *ThresholdInstance) openLedger() {
	if t.opened {
		return
	}
	t.opened = true
	copy(t.rcptCorrect, t.st.Correct)
	copy(t.rcptWrong, t.st.Wrong)
}

// GoodBudget implements Instance.
func (t *ThresholdInstance) GoodBudget(id grid.NodeID) int { return t.spec.Budget(id) }

// Threshold implements Instance.
func (t *ThresholdInstance) Threshold() int { return t.spec.Threshold }

// Sizing implements Instance.
func (t *ThresholdInstance) Sizing() (sourceSends, maxSends int) {
	return t.spec.SourceRepeats, specMaxSends(t.spec, len(t.st.Decided))
}

// specMaxSends is the maximum of spec.Sends over n nodes: the
// Spec.MaxSends hint the built-in specs carry, or an O(n) scan. The
// engines call Sizing at most once per run.
func specMaxSends(spec core.Spec, n int) int {
	if spec.MaxSends > 0 {
		return spec.MaxSends
	}
	m := 0
	for i := 0; i < n; i++ {
		if s := spec.Sends(grid.NodeID(i)); s > m {
			m = s
		}
	}
	return m
}

// Finish implements Instance: a run that was booked turns its ledger
// into per-receiver receipts (see the type comment).
func (t *ThresholdInstance) Finish(int) {
	if !t.opened {
		return
	}
	st := &t.st
	copy(st.Correct, t.rcptCorrect)
	copy(st.Wrong, t.rcptWrong)
	t.ledger.fold(st.Correct, st.Wrong, t.bad)
}
