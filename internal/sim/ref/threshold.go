package ref

import (
	"errors"

	"bftbcast/internal/core"
	"bftbcast/internal/grid"
	"bftbcast/internal/protocol"
	"bftbcast/internal/radio"
)

// denseThreshold is the protocol.Machine a Spec run attaches: the
// acceptance rule exactly as the dense engine inlined it before the
// protocol seam existed, written out here instead of borrowed from
// protocol.ThresholdInstance, so that the fast engine's Spec path is
// still checked against an independent implementation. Package protocol is imported for the seam types only.
type denseThreshold struct {
	spec core.Spec
}

// Attach implements protocol.Machine. The engine hands it the resolved
// placement, so env.Bad is never nil here.
func (m denseThreshold) Attach(env protocol.Env) (protocol.Instance, error) {
	if err := m.spec.Validate(); err != nil {
		return nil, err
	}
	n := env.Plan.Size()
	d := &denseInstance{
		spec:   m.spec,
		source: env.Source,
		bad:    env.Bad,
		counts: make([]int32, n*(maxTrackedValue+1)),
		st: protocol.State{
			Decided: make([]bool, n),
			Value:   make([]radio.Value, n),
			Correct: make([]int32, n),
			Wrong:   make([]int32, n),
		},
	}
	// Base station: decided on Vtrue, repeats it SourceRepeats times.
	d.st.Decided[env.Source] = true
	d.st.Value[env.Source] = radio.ValueTrue
	return d, nil
}

type denseInstance struct {
	spec   core.Spec
	source grid.NodeID
	bad    []bool
	counts []int32 // [node*(maxTrackedValue+1) + value]
	st     protocol.State
}

func (d *denseInstance) State() *protocol.State { return &d.st }

func (d *denseInstance) Bootstrap(buf []protocol.Send) []protocol.Send {
	return append(buf, protocol.Send{ID: d.source, N: d.spec.SourceRepeats})
}

// Deliver applies each final delivery to the receiver's counters and, on
// a threshold crossing, commits the node and schedules its relays.
func (d *denseInstance) Deliver(slot int, ds []radio.Delivery, hooks *protocol.Hooks, buf []protocol.Send) ([]protocol.Send, error) {
	for _, dl := range ds {
		if hooks.OnDeliver != nil {
			hooks.OnDeliver(slot, dl)
		}
		u := dl.To
		if d.bad[u] {
			continue // adversary nodes do not run the protocol
		}
		if dl.Value == radio.ValueTrue {
			d.st.Correct[u]++
		} else {
			d.st.Wrong[u]++
		}
		v := dl.Value
		if v < 0 || v > maxTrackedValue {
			v = maxTrackedValue // clamp exotic values into the last bucket
		}
		idx := int(u)*(maxTrackedValue+1) + int(v)
		d.counts[idx]++
		if d.st.Decided[u] || d.counts[idx] != int32(d.spec.Threshold) {
			continue
		}
		d.st.Decided[u] = true
		d.st.Value[u] = dl.Value
		buf = append(buf, protocol.Send{ID: u, N: d.spec.Sends(u)})
		if hooks.OnAccept != nil {
			hooks.OnAccept(slot, u, dl.Value)
		}
	}
	return buf, nil
}

func (d *denseInstance) Tick(_ int, buf []protocol.Send) []protocol.Send { return buf }

// Book implements protocol.Instance. The dense instance publishes no
// settled mask: the reference engine delivers every slot in full.
func (d *denseInstance) Book(int, []radio.Tx) error {
	return errors.New("ref: the dense threshold instance publishes no settled mask")
}

func (d *denseInstance) GoodBudget(id grid.NodeID) int { return d.spec.Budget(id) }

func (d *denseInstance) Threshold() int { return d.spec.Threshold }

// Sizing scans every node's send count; the Spec.MaxSends hint the fast
// path trusts is deliberately not read.
func (d *denseInstance) Sizing() (sourceSends, maxSends int) {
	for i := range d.st.Decided {
		if s := d.spec.Sends(grid.NodeID(i)); s > maxSends {
			maxSends = s
		}
	}
	return d.spec.SourceRepeats, maxSends
}

func (d *denseInstance) Finish(int) {}
