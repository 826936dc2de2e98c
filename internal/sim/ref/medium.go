package ref

import (
	"fmt"

	"bftbcast/internal/grid"
	"bftbcast/internal/radio"
	"bftbcast/internal/topo"
)

// medium is a frozen copy of the original radio.Medium resolver, kept
// here so the reference engine's behavior AND cost model stay fixed while
// the shared radio package evolves with the fast path. It resolves each
// transmission by walking the topology's neighbor iterator per slot
// (closures and modular arithmetic included), exactly as the seed did.
type medium struct {
	t topo.Topology

	epoch    int32
	mark     []int32       // epoch stamp per node
	nGood    []int16       // concurrent good transmissions heard
	goodVal  []radio.Value // value of the (sole) good transmission heard
	goodFrom []grid.NodeID // its transmitter
	jamVal   []radio.Value // value chosen by the first jam heard, ValueNone = drop
	jamFrom  []grid.NodeID // the winning jammer
	jammed   []bool
	sending  []bool // half-duplex: transmitters cannot receive this slot

	touched []grid.NodeID // receivers touched this slot
	row     []grid.NodeID // scratch for one transmitter's neighbors

	// goodGoodCollisions counts receivers that observed two or more
	// concurrent good transmissions, which a valid TDMA schedule makes
	// impossible. A non-zero count indicates a schedule violation bug.
	goodGoodCollisions int
}

// newMedium returns a medium for t.
func newMedium(t topo.Topology) *medium {
	n := t.Size()
	return &medium{
		t:        t,
		mark:     make([]int32, n),
		nGood:    make([]int16, n),
		goodVal:  make([]radio.Value, n),
		goodFrom: make([]grid.NodeID, n),
		jamVal:   make([]radio.Value, n),
		jamFrom:  make([]grid.NodeID, n),
		jammed:   make([]bool, n),
		sending:  make([]bool, n),
		touched:  make([]grid.NodeID, 0, 256),
	}
}

// resolve computes the deliveries produced by the slot's transmissions and
// invokes deliver for each receiver that hears something. Deliveries are
// reported in ascending receiver id order to keep runs deterministic.
// Transmitting nodes are half-duplex and never receive in the same slot.
func (m *medium) resolve(txs []radio.Tx, deliver func(radio.Delivery)) error {
	m.epoch++
	if m.epoch < 0 { // extremely long runs: reset stamps
		m.epoch = 1
		for i := range m.mark {
			m.mark[i] = 0
		}
	}
	m.touched = m.touched[:0]

	for _, tx := range txs {
		if tx.Value == radio.ValueNone && !tx.Drop {
			return fmt.Errorf("ref: transmission from %d carries ValueNone", tx.From)
		}
		m.sending[tx.From] = true
	}

	for _, tx := range txs {
		m.row = m.t.AppendNeighbors(m.row[:0], tx.From)
		for _, to := range m.row {
			if m.mark[to] != m.epoch {
				m.mark[to] = m.epoch
				m.nGood[to] = 0
				m.goodVal[to] = radio.ValueNone
				m.jamVal[to] = radio.ValueNone
				m.jammed[to] = false
				m.touched = append(m.touched, to)
			}
			if tx.Jam {
				if !m.jammed[to] {
					m.jammed[to] = true
					m.jamFrom[to] = tx.From
					if tx.Drop {
						m.jamVal[to] = radio.ValueNone
					} else {
						m.jamVal[to] = tx.Value
					}
				}
				continue
			}
			m.nGood[to]++
			m.goodVal[to] = tx.Value
			m.goodFrom[to] = tx.From
		}
	}

	// Sort touched receivers for deterministic delivery order. The slice
	// is short (bounded by transmitters × neighborhood size); insertion
	// sort avoids allocation.
	insertionSortIDs(m.touched)

	for _, to := range m.touched {
		if m.sending[to] {
			continue // half-duplex
		}
		switch {
		case m.jammed[to]:
			if v := m.jamVal[to]; v != radio.ValueNone {
				deliver(radio.Delivery{To: to, Value: v, From: m.jamFrom[to], Collided: true})
			}
		case m.nGood[to] == 1:
			deliver(radio.Delivery{To: to, Value: m.goodVal[to], From: m.goodFrom[to]})
		case m.nGood[to] >= 2:
			m.goodGoodCollisions++
		}
	}

	for _, tx := range txs {
		m.sending[tx.From] = false
	}
	return nil
}

func insertionSortIDs(s []grid.NodeID) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}
