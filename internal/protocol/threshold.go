package protocol

import (
	"errors"

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
// already returns the relay Send that announces a settlement. A booked
// slot is one ledger bump per transmission, lateTx[from]++, which is
// exact because each transmission of a booked slot reached its sender's
// whole row and a good sender's value is fixed once it decides; the
// engine books a settled transmitter's remaining sends the same way, all
// at once (BookSends). Finish adds lateTx[v] to the receipts of v's row
// by Value[v] — on a torus as a box sum (see boxFold), elsewhere by
// scattering over each row.
//
// Every Deliver counts its deliveries into Correct and Wrong, so both are
// complete for undecided nodes while the run lasts (all adversary.View
// promises); Correct doubles as the copies counter of ValueTrue. The
// ledger already counts the deliveries of booked slots, so from the first
// booking on only the receipts of the slots that were not booked (jammed
// ones) are kept again, in rcptCorrect/rcptWrong, which the first booking
// seeds with everything received before it; Finish sets Correct and Wrong
// to those receipts plus the ledger fold, complete for every node.
type ThresholdInstance struct {
	spec   core.Spec
	bad    []bool
	source grid.NodeID
	adj    *radio.Adjacency
	tor    *grid.Torus // the plan's topology when it is a torus, else nil
	st     State       // Settled aliases Decided
	n      int
	// counts[u*wrongValues+v-ValueFalse] is the copies of wrong value v
	// node u received (Correct[u] counts ValueTrue, and ValueNone is never
	// delivered); exotic values share the last bucket.
	counts []int32

	lateTx                 []int32
	rcptCorrect, rcptWrong []int32 // receipts outside booked slots, once ledger is set
	ledger                 bool    // something was booked: Finish folds lateTx
	booked                 int     // the last slot passed to Book, -1 before the first
	box                    []int32 // boxFold's scratch: n row sums, then W column sums
}

// wrongValues is the number of count buckets per node: one per tracked
// value from ValueFalse to MaxTrackedValue.
const wrongValues = MaxTrackedValue - int(radio.ValueFalse) + 1

// NewThresholdInstance returns an unbound instance; Bind arms it.
func NewThresholdInstance() *ThresholdInstance { return &ThresholdInstance{} }

// Bind validates the spec and re-arms the instance for a new run,
// reusing its arrays when the topology size is unchanged.
func (t *ThresholdInstance) Bind(env Env, spec core.Spec) error {
	if env.Plan == nil {
		return errors.New("protocol: threshold instance needs a plan")
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	n := env.Plan.Size()
	if int(env.Source) < 0 || int(env.Source) >= n {
		return errors.New("protocol: source out of range")
	}
	t.spec = spec
	t.bad = env.Bad
	t.source = env.Source
	t.adj = env.Plan.Adjacency()
	t.tor, _ = env.Plan.Topo().(*grid.Torus)
	t.n = n
	t.counts = sized(t.counts, n*wrongValues)
	t.st.Decided = sized(t.st.Decided, n)
	t.st.Value = sized(t.st.Value, n)
	t.st.Decided[env.Source] = true
	t.st.Value[env.Source] = radio.ValueTrue
	t.st.Settled = t.st.Decided
	t.st.Correct = sized(t.st.Correct, n)
	t.st.Wrong = sized(t.st.Wrong, n)
	t.lateTx = sized(t.lateTx, n)
	t.rcptCorrect = sized(t.rcptCorrect, n)
	t.rcptWrong = sized(t.rcptWrong, n)
	t.ledger, t.booked = false, -1
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
			tracked := int(d.Value) - int(radio.ValueFalse)
			if tracked < 0 || tracked >= wrongValues {
				tracked = wrongValues - 1
			}
			idx := int(u)*wrongValues + tracked
			t.counts[idx]++
			copies = t.counts[idx]
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
	if t.ledger && slot != t.booked {
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
		t.lateTx[txs[i].From]++
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
	t.lateTx[from] += k
}

// openLedger starts the booked run's receipts at the first booking with
// everything received so far (see the type comment).
func (t *ThresholdInstance) openLedger() {
	if t.ledger {
		return
	}
	t.ledger = true
	copy(t.rcptCorrect, t.st.Correct)
	copy(t.rcptWrong, t.st.Wrong)
}

// GoodBudget implements Instance.
func (t *ThresholdInstance) GoodBudget(id grid.NodeID) int { return t.spec.Budget(id) }

// Threshold implements Instance.
func (t *ThresholdInstance) Threshold() int { return t.spec.Threshold }

// Sizing implements Instance.
func (t *ThresholdInstance) Sizing() (sourceSends, maxSends int) {
	return t.spec.SourceRepeats, specMaxSends(t.spec, t.n)
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
	if !t.ledger {
		return
	}
	st := &t.st
	copy(st.Correct, t.rcptCorrect)
	copy(st.Wrong, t.rcptWrong)
	if t.tor != nil {
		t.boxFold(st.Correct, true)
		t.boxFold(st.Wrong, false)
	} else {
		for i, k := range t.lateTx {
			if k == 0 {
				continue
			}
			counts := st.Wrong
			if st.Value[i] == radio.ValueTrue {
				counts = st.Correct
			}
			for _, to := range t.adj.Neighbors(grid.NodeID(i)) {
				counts[to] += k
			}
		}
	}
	for i, b := range t.bad {
		if b {
			st.Correct[i], st.Wrong[i] = 0, 0 // adversary nodes do not run the protocol
		}
	}
}

// boxFold adds to dst[u], for every node u of the torus, the ledger of
// u's neighbors whose value class is correct (Value is Vtrue) or not. A
// torus row is the (2r+1)×(2r+1) box around u less u itself, so the sum
// is separable: a wrap-around sliding window along each line, then one
// down each column over the line sums, then u's own entry taken out —
// O(n) whatever r is, against the scatter's O(n·deg). Both windows cover
// distinct cells because each side is at least 2r+1.
func (t *ThresholdInstance) boxFold(dst []int32, correct bool) {
	w, h, r := t.tor.Width(), t.tor.Height(), t.tor.Range()
	n := w * h
	if len(t.box) != n+w {
		t.box = make([]int32, n+w)
	}
	lines, cols := t.box[:n], t.box[n:]
	ledger := func(i int) int32 {
		if (t.st.Value[i] == radio.ValueTrue) == correct {
			return t.lateTx[i]
		}
		return 0
	}
	nonzero := false
	for y := 0; y < h; y++ {
		line := y * w
		var s int32
		for dx := -r; dx <= r; dx++ {
			s += ledger(line + (dx+w)%w)
		}
		in, out := r+1, w-r // the columns that enter and leave next
		for x := 0; x < w; x++ {
			lines[line+x] = s
			nonzero = nonzero || s != 0
			s += ledger(line+in) - ledger(line+out)
			if in++; in == w {
				in = 0
			}
			if out++; out == w {
				out = 0
			}
		}
	}
	if !nonzero {
		return
	}
	clear(cols)
	for dy := -r; dy <= r; dy++ {
		line := (dy + h) % h * w
		for x := range cols {
			cols[x] += lines[line+x]
		}
	}
	in, out := r+1, h-r // the lines that enter and leave next
	for y := 0; y < h; y++ {
		line := y * w
		for x, s := range cols {
			dst[line+x] += s - ledger(line+x)
		}
		enter, leave := (in%h)*w, (out%h)*w
		for x := range cols {
			cols[x] += lines[enter+x] - lines[leave+x]
		}
		in, out = in+1, out+1
	}
}
