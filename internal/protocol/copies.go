package protocol

import (
	"errors"

	"bftbcast/internal/core"
	"bftbcast/internal/grid"
	"bftbcast/internal/plan"
	"bftbcast/internal/radio"
)

// checkCopies checks what both copies-rule instances (ThresholdInstance
// and Multi's) need of a run — a plan, a valid spec and a source inside
// the plan — and returns the topology size; who names the instance.
func (e *Env) checkCopies(spec core.Spec, who string) (int, error) {
	if e.Plan == nil {
		return 0, errors.New("protocol: " + who + " needs a plan")
	}
	if err := spec.Validate(); err != nil {
		return 0, err
	}
	n := e.Plan.Size()
	if int(e.Source) < 0 || int(e.Source) >= n {
		return 0, errors.New("protocol: source out of range")
	}
	return n, nil
}

// copyTally counts the copies of each value every cell — a node, or a
// (node, instance) pair under Multi — has received, in one plane per
// tracked value, allocated on the value's first copy. Both copies-rule
// instances count ValueTrue outside it (ThresholdInstance in Correct,
// Multi in bit-sliced counters), so a fault-free run allocates no plane.
// Values outside [ValueTrue, MaxTrackedValue] share the last plane;
// ValueNone is never delivered (the medium refuses to send it, and the
// engines a jam that is not a drop and carries a value ≤ 0).
type copyTally struct {
	size   int
	planes [MaxTrackedValue][]int32 // planes[v-ValueTrue][cell]
}

// reset re-arms the tally for size cells, keeping the planes of that size.
func (c *copyTally) reset(size int) {
	c.size = size
	for k, p := range c.planes {
		if len(p) == size {
			clear(p)
		} else {
			c.planes[k] = nil
		}
	}
}

// add counts one copy of v at cell i and returns the cell's copies of v.
func (c *copyTally) add(i int, v radio.Value) int32 {
	k := int(v - radio.ValueTrue)
	if k < 0 || k >= MaxTrackedValue {
		k = MaxTrackedValue - 1
	}
	p := c.planes[k]
	if p == nil {
		p = make([]int32, c.size)
		c.planes[k] = p
	}
	p[i]++
	return p[i]
}

// receiptLedger books, per sender, the copies its transmissions carried
// to its whole row without a delivery being made: a line for ValueTrue
// and one for every other value. fold turns it into per-receiver
// receipts at Finish — on a torus as a box sum (see boxFold), elsewhere
// by scattering over each row.
type receiptLedger struct {
	tru, other []int32
	adj        *radio.Adjacency
	tor        *grid.Torus // the plan's topology when it is a torus, else nil
	box        []int32     // boxFold's scratch on a torus: n line sums, W column sums
}

// reset re-arms the ledger for a run on p, reusing its arena when the
// sizes match.
func (l *receiptLedger) reset(p *plan.Plan) {
	n := p.Size()
	l.adj = p.Adjacency()
	l.tor, _ = p.Topo().(*grid.Torus)
	box := 0
	if l.tor != nil {
		box = n + l.tor.Width()
	}
	if len(l.tru) != n || len(l.box) != box {
		a := make([]int32, 2*n+box)
		l.tru, l.other, l.box = a[:n:n], a[n:2*n:2*n], a[2*n:]
		return
	}
	clear(l.tru)
	clear(l.other)
}

// book puts k transmissions of from, each carrying one copy of v, on
// from's line for v.
func (l *receiptLedger) book(from grid.NodeID, v radio.Value, k int32) {
	if v == radio.ValueTrue {
		l.tru[from] += k
	} else {
		l.other[from] += k
	}
}

// fold adds every sender's lines to correct and wrong over its row and
// then zeroes the bad receivers: adversary nodes do not run the protocol.
func (l *receiptLedger) fold(correct, wrong []int32, bad []bool) {
	if l.tor != nil {
		boxFold(l.tor, l.box, correct, l.tru)
		boxFold(l.tor, l.box, wrong, l.other)
	} else {
		for w, tru := range l.tru {
			other := l.other[w]
			if tru == 0 && other == 0 {
				continue
			}
			for _, u := range l.adj.Neighbors(grid.NodeID(w)) {
				correct[u] += tru
				wrong[u] += other
			}
		}
	}
	for i, b := range bad {
		if b {
			correct[i], wrong[i] = 0, 0
		}
	}
}

// boxFold adds to dst[u], for every node u of torus tor, the sum of
// ledger over u's neighbors, using box (n+W entries) as scratch. A torus
// row is the (2r+1)×(2r+1) box around u less u itself, so the sum is
// separable: a wrap-around sliding window along each line, then one down
// each column over the line sums, then u's own entry taken out — O(n)
// whatever r is, against a row scatter's O(n·deg). Both windows cover
// distinct cells because each side is at least 2r+1.
func boxFold(tor *grid.Torus, box, dst, ledger []int32) {
	w, h, r := tor.Width(), tor.Height(), tor.Range()
	n := w * h
	lines, cols := box[:n], box[n:n+w]
	nonzero := false
	for y := 0; y < h; y++ {
		line := y * w
		var s int32
		for dx := -r; dx <= r; dx++ {
			s += ledger[line+(dx+w)%w]
		}
		in, out := r+1, w-r // the columns that enter and leave next
		for x := 0; x < w; x++ {
			lines[line+x] = s
			nonzero = nonzero || s != 0
			s += ledger[line+in] - ledger[line+out]
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
			dst[line+x] += s - ledger[line+x]
		}
		enter, leave := (in%h)*w, (out%h)*w
		for x := range cols {
			cols[x] += lines[enter+x] - lines[leave+x]
		}
		in, out = in+1, out+1
	}
}
