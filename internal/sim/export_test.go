package sim

import (
	"fmt"

	"bftbcast/internal/grid"
)

// FrontierSlots exposes how many slots of the last run completed on the
// frontier path (see the package comment), so tests can prove a
// configuration took it — or stayed off it — instead of inferring that
// from timing.
func (r *Runner) FrontierSlots() int { return r.frontierSlots }

// SettledTxs exposes how many transmissions of the last run's frontier
// slots came from a settled row, which the engine books without reading.
func (r *Runner) SettledTxs() int { return r.settledTxs }

// RetiredTxs exposes how many transmissions of the last run were retired
// — booked at once when their sender's row settled, instead of emitted
// slot by slot (see the package comment).
func (r *Runner) RetiredTxs() int { return r.retiredTxs }

// CheckLive recounts, against the instance's settled mask, every node's
// good neighbors that are not settled and returns an error for the first
// whose live counter disagrees — or for a settled node that is not a
// decided good node. It is meant to be called from an observer hook of a
// run in progress; runs that are not on the frontier path keep no
// counters and always pass.
func (r *Runner) CheckLive() error {
	if !r.frontier {
		return nil
	}
	st := r.St
	for i := range r.live {
		if st.Settled[i] && (!st.Decided[i] || r.Bad[i]) {
			return fmt.Errorf("slot %d: node %d is settled but not a decided good node", r.curSlot, i)
		}
		var want int32
		for _, nb := range r.neighbors(grid.NodeID(i)) {
			if !r.Bad[nb] && !st.Settled[nb] {
				want++
			}
		}
		if r.live[i] != want {
			return fmt.Errorf("slot %d: live[%d] = %d, recount against the settled mask %d", r.curSlot, i, r.live[i], want)
		}
	}
	return nil
}

// Figure2Params hands the Figure 2 parameters (see figure2_test.go) to
// the external test package.
var Figure2Params = figure2Params

// BookedSlots exposes how many slots of the last run were booked whole
// (see the package comment), so tests can prove a configuration took that
// path — or stayed off it.
func (r *Runner) BookedSlots() int { return r.bookedSlots }
