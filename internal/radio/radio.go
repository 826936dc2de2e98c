// Package radio models the single-channel slotted radio medium of the
// paper. In each time slot a set of nodes transmit; every node within
// range r of exactly one transmitter receives that transmitter's value,
// while nodes within range of two or more concurrent transmitters observe
// a collision. Collisions are adversary-controlled: "their common neighbor
// nodes can receive a wrong message, or no message at all, without
// noticing anything abnormal", so a colliding bad transmission either
// substitutes its own value at the affected receivers or silences the slot
// for them. Receivers never learn transmitter identities from the medium
// itself; identity can only be inferred from the TDMA schedule.
package radio

import (
	"fmt"
	"math/bits"
	"slices"

	"bftbcast/internal/grid"
	"bftbcast/internal/topo"
)

// Value is a broadcast value. The model is value-oblivious: the protocols
// count copies of equal values, so an int is a faithful representation of
// an arbitrary payload.
type Value int32

// Distinguished values. ValueNone is the "no delivery" sentinel and never
// appears in a transmission; ValueTrue is the source's value Vtrue;
// adversaries typically inject ValueFalse but may use any value > 0.
const (
	ValueNone  Value = 0
	ValueTrue  Value = 1
	ValueFalse Value = 2
)

// Tx is one transmission within a slot.
type Tx struct {
	From  grid.NodeID
	Value Value
	// Jam marks an adversarial transmission. At receivers where a jam
	// overlaps other transmissions (or arrives alone), the jam decides
	// the outcome: its Value is delivered, or nothing if Drop is set.
	Jam  bool
	Drop bool
}

// Delivery is the outcome of a slot at one receiver.
type Delivery struct {
	To    grid.NodeID
	Value Value
	// From is the transmitter whose signal prevailed (the sole good
	// transmitter, or the winning jammer). It is engine/adversary
	// metadata: the protocols themselves never see transmitter
	// identities, which the radio medium does not provide.
	From     grid.NodeID
	Collided bool // true when the receiver was inside a collision
}

// Adjacency is the immutable CSR (offset + neighbor array) flattening of
// a topology's neighbor relation, in the topology's deterministic
// iteration order, plus a per-node ascending copy for resolution paths
// that want receivers in id order. Construction walks the topology once;
// afterwards every neighbor query is a pair of array index reads with no
// closure calls and no modular arithmetic.
//
// An Adjacency is safe for concurrent readers and is shared by reference:
// every Medium, engine and adversary walking the same topology reads the
// same arrays (the compiled topology plan, internal/plan, caches one per
// topology).
type Adjacency struct {
	// Off and Nbrs are the CSR layout: the neighbors of node i are
	// Nbrs[Off[i]:Off[i+1]], in the topology's AppendNeighbors order.
	Off  []int32
	Nbrs []grid.NodeID
	// sorted holds the same lists in ascending id order; it aliases Nbrs
	// when the topology already iterates ascending (bounded grids, RGGs).
	sorted []grid.NodeID
}

// csrSource is implemented by topologies that already store their
// adjacency in CSR form (the RGG); NewAdjacency aliases those arrays
// instead of rebuilding an identical copy.
type csrSource interface {
	CSR() (off []int32, nbrs []grid.NodeID)
}

// NewAdjacency flattens t's neighbor relation, aliasing the topology's
// own CSR storage when it exposes one (the rows must match the
// AppendNeighbors order, which the plan conformance suite checks).
func NewAdjacency(t topo.Topology) *Adjacency {
	n := t.Size()
	a := &Adjacency{}
	if src, ok := t.(csrSource); ok {
		a.Off, a.Nbrs = src.CSR()
	} else {
		a.Off = make([]int32, n+1)
		a.Nbrs = make([]grid.NodeID, 0, n*t.MaxDegree())
		for i := 0; i < n; i++ {
			a.Nbrs = t.AppendNeighbors(a.Nbrs, grid.NodeID(i))
			a.Off[i+1] = int32(len(a.Nbrs))
		}
	}
	if isPerNodeSorted(a) {
		a.sorted = a.Nbrs
	} else {
		a.sorted = make([]grid.NodeID, len(a.Nbrs))
		copy(a.sorted, a.Nbrs)
		for i := 0; i < n; i++ {
			slices.Sort(a.sorted[a.Off[i]:a.Off[i+1]])
		}
	}
	return a
}

// isPerNodeSorted reports whether every per-node neighbor list is already
// ascending, letting sorted alias Nbrs.
func isPerNodeSorted(a *Adjacency) bool {
	for i := 0; i+1 < len(a.Off); i++ {
		if !slices.IsSorted(a.Nbrs[a.Off[i]:a.Off[i+1]]) {
			return false
		}
	}
	return true
}

// Size returns the number of nodes.
func (a *Adjacency) Size() int { return len(a.Off) - 1 }

// Neighbors returns the neighbor list of id in the topology's
// deterministic iteration order. The slice aliases the shared CSR storage
// and must not be modified.
func (a *Adjacency) Neighbors(id grid.NodeID) []grid.NodeID {
	return a.Nbrs[a.Off[id]:a.Off[id+1]]
}

// SortedNeighbors returns the neighbor list of id in ascending id order.
// The slice aliases the shared CSR storage and must not be modified.
func (a *Adjacency) SortedNeighbors(id grid.NodeID) []grid.NodeID {
	return a.sorted[a.Off[id]:a.Off[id+1]]
}

// Degree returns the number of neighbors of id.
func (a *Adjacency) Degree(id grid.NodeID) int {
	return int(a.Off[id+1] - a.Off[id])
}

// Medium resolves transmissions into deliveries on a fixed topology. The
// adjacency CSR is shared and read-only (see Adjacency); the per-slot
// resolution scratch is private, so a Medium is not safe for concurrent
// use — create one per goroutine. A Medium is reusable across runs on the
// same topology (see ResetStats).
type Medium struct {
	adj *Adjacency

	epoch    int32
	mark     []int32       // epoch stamp per node
	nGood    []int16       // concurrent good transmissions heard
	goodVal  []Value       // value of the (sole) good transmission heard
	goodFrom []grid.NodeID // its transmitter (ResolveDisjoint: its index in txs)
	jamVal   []Value       // value chosen by the first jam heard, ValueNone = drop
	jamFrom  []grid.NodeID // the winning jammer
	jammed   []bool
	sending  []bool // half-duplex: transmitters cannot receive this slot

	// words/summary are the two-level touched bitset: words has one bit
	// per node, summary one bit per word of words. Marking sets the bit of
	// each first-touched receiver; emission scans set bits in ascending id
	// order and clears as it goes, so multi-transmitter slots report
	// deliveries in receiver order in O(touched + n/4096) without sorting.
	// Allocated lazily on the first slot that needs them.
	words   []uint64
	summary []uint64

	// GoodGoodCollisions counts receivers that observed two or more
	// concurrent good transmissions, which a valid TDMA schedule makes
	// impossible. A non-zero count indicates a schedule violation bug.
	GoodGoodCollisions int
}

// NewMediumShared returns a Medium reading the shared adjacency adj. Only
// the per-slot scratch is allocated; the CSR arrays stay shared with every
// other consumer of the same plan.
func NewMediumShared(adj *Adjacency) *Medium {
	n := adj.Size()
	return &Medium{
		adj:      adj,
		mark:     make([]int32, n),
		nGood:    make([]int16, n),
		goodVal:  make([]Value, n),
		goodFrom: make([]grid.NodeID, n),
		jamVal:   make([]Value, n),
		jamFrom:  make([]grid.NodeID, n),
		jammed:   make([]bool, n),
		sending:  make([]bool, n),
	}
}

// ensureBits sizes the touched bitset on first use, so runs that never
// see a multi-transmitter slot pay nothing for it.
func (m *Medium) ensureBits() {
	if m.words != nil {
		return
	}
	nw := (len(m.mark) + 63) / 64
	m.words = make([]uint64, nw)
	m.summary = make([]uint64, (nw+63)/64)
}

// touch sets to's bit in the touched bitset (sized by ensureBits).
func (m *Medium) touch(to grid.NodeID) {
	wi := uint32(to) >> 6
	if m.words[wi] == 0 {
		m.summary[wi>>6] |= 1 << (wi & 63)
	}
	m.words[wi] |= 1 << (uint32(to) & 63)
}

// nextEpoch advances the per-slot scratch epoch, resetting the stamps on
// wraparound (extremely long runs).
func (m *Medium) nextEpoch() int32 {
	m.epoch++
	if m.epoch < 0 {
		m.epoch = 1
		for i := range m.mark {
			m.mark[i] = 0
		}
	}
	return m.epoch
}

// Neighbors returns the flattened neighbor list of id, in the
// topology's deterministic iteration order. The slice aliases the
// shared CSR storage and must not be modified; the simulation engine
// shares it for its own neighbor walks instead of building a second
// copy of the adjacency.
func (m *Medium) Neighbors(id grid.NodeID) []grid.NodeID {
	return m.adj.Neighbors(id)
}

// Adjacency returns the shared CSR adjacency the Medium resolves on.
func (m *Medium) Adjacency() *Adjacency { return m.adj }

// ResetStats clears the accumulated statistics so the Medium can be
// reused for a fresh run on the same topology. The per-slot scratch state
// is epoch-stamped and needs no clearing.
func (m *Medium) ResetStats() { m.GoodGoodCollisions = 0 }

// ResolveAppend computes the deliveries produced by the slot's
// transmissions and appends one to dst for each receiver that hears
// something, in ascending receiver id order to keep runs deterministic. It
// returns the extended slice. Transmitting nodes are half-duplex and never
// receive in the same slot.
func (m *Medium) ResolveAppend(txs []Tx, dst []Delivery) ([]Delivery, error) {
	for i := range txs {
		tx := &txs[i]
		if tx.Value == ValueNone && !tx.Drop {
			return dst, fmt.Errorf("radio: transmission from %d carries ValueNone", tx.From)
		}
		if int(tx.From) < 0 || int(tx.From) >= len(m.mark) {
			return dst, fmt.Errorf("radio: transmitter %d out of range", tx.From)
		}
	}

	// Single-transmitter slots (the most common shape of a sparse run)
	// need no collision bookkeeping at all: the sole signal reaches every
	// neighbor, already in ascending order via the sorted CSR.
	if len(txs) == 1 {
		return m.resolveSingle(&txs[0], dst), nil
	}

	epoch := m.nextEpoch()
	useBits := len(txs) > mergeMaxTx
	if useBits {
		m.ensureBits()
	}

	for i := range txs {
		m.sending[txs[i].From] = true
	}

	for i := range txs {
		tx := &txs[i]
		from := tx.From
		for _, to := range m.adj.Neighbors(from) {
			if m.mark[to] != epoch {
				m.mark[to] = epoch
				m.nGood[to] = 0
				m.goodVal[to] = ValueNone
				m.jamVal[to] = ValueNone
				m.jammed[to] = false
				if useBits {
					m.touch(to)
				}
			}
			if tx.Jam {
				if !m.jammed[to] {
					m.jammed[to] = true
					m.jamFrom[to] = from
					if tx.Drop {
						m.jamVal[to] = ValueNone
					} else {
						m.jamVal[to] = tx.Value
					}
				}
				continue
			}
			m.nGood[to]++
			m.goodVal[to] = tx.Value
			m.goodFrom[to] = from
		}
	}

	// Deliveries must be reported in ascending receiver id order. With
	// only a few transmitters, merging their already-sorted CSR neighbor
	// lists does that directly; bigger slots (dense waves of same-color
	// transmitters) scan the touched bitset, which visits receivers in id
	// order in O(touched + n/4096) — replacing the sort that used to
	// dominate large-n runs.
	if useBits {
		dst = m.emitBits(nil, dst)
	} else {
		dst = m.emitMerged(txs, dst)
	}

	for i := range txs {
		m.sending[txs[i].From] = false
	}
	return dst, nil
}

// resolveSingle appends the deliveries of a one-transmission slot: no
// collisions are possible, the transmitter is not its own neighbor, and
// the sorted CSR hands out receivers in ascending id order directly.
func (m *Medium) resolveSingle(tx *Tx, dst []Delivery) []Delivery {
	from := tx.From
	if tx.Jam && tx.Drop {
		return dst // a lone dropping jam silences nothing that was sent
	}
	for _, to := range m.adj.SortedNeighbors(from) {
		dst = append(dst, Delivery{To: to, Value: tx.Value, From: from, Collided: tx.Jam})
	}
	return dst
}

// mergeMaxTx bounds the transmitter count for merge-based emission: the
// per-receiver cost of the k-way merge grows with k, while sorting the
// touched list is k-independent.
const mergeMaxTx = 8

// emitMerged visits the union of the transmitters' sorted neighbor lists
// in ascending id order by k-way merge, emitting each receiver once. It
// produces exactly the deliveries the sort-based path would, without
// sorting.
func (m *Medium) emitMerged(txs []Tx, dst []Delivery) []Delivery {
	var heads [mergeMaxTx][]grid.NodeID
	for i := range txs {
		heads[i] = m.adj.SortedNeighbors(txs[i].From)
	}
	k := len(txs)
	for {
		min := grid.NodeID(-1)
		for i := 0; i < k; i++ {
			if len(heads[i]) > 0 && (min < 0 || heads[i][0] < min) {
				min = heads[i][0]
			}
		}
		if min < 0 {
			return dst
		}
		for i := 0; i < k; i++ {
			if len(heads[i]) > 0 && heads[i][0] == min {
				heads[i] = heads[i][1:]
			}
		}
		dst = m.emit(min, dst)
	}
}

// emit appends the outcome of the slot at receiver to, if it hears one.
func (m *Medium) emit(to grid.NodeID, dst []Delivery) []Delivery {
	if m.sending[to] {
		return dst // half-duplex
	}
	switch {
	case m.jammed[to]:
		v := m.jamVal[to]
		if v == ValueNone {
			return dst
		}
		return append(dst, Delivery{To: to, Value: v, From: m.jamFrom[to], Collided: true})
	case m.nGood[to] == 1:
		return append(dst, Delivery{To: to, Value: m.goodVal[to], From: m.goodFrom[to]})
	}
	if m.nGood[to] >= 2 {
		m.GoodGoodCollisions++
	}
	return dst
}

// emitBits appends the delivery of every receiver whose touched bit is
// set, in ascending id order, clearing the bitset as it scans so the next
// slot starts clean. With disjoint set (ResolveDisjoint), goodFrom holds
// the index into disjoint of the one transmission each receiver hears;
// otherwise emit reads the receiver's full resolution state.
func (m *Medium) emitBits(disjoint []Tx, dst []Delivery) []Delivery {
	for si, sw := range m.summary {
		if sw == 0 {
			continue
		}
		m.summary[si] = 0
		for sw != 0 {
			wi := si<<6 + bits.TrailingZeros64(sw)
			sw &= sw - 1
			w := m.words[wi]
			m.words[wi] = 0
			base := wi << 6
			for w != 0 {
				to := grid.NodeID(base + bits.TrailingZeros64(w))
				w &= w - 1
				if disjoint == nil {
					dst = m.emit(to, dst)
					continue
				}
				tx := &disjoint[m.goodFrom[to]]
				dst = append(dst, Delivery{To: to, Value: tx.Value, From: tx.From})
			}
		}
	}
	return dst
}

// ResolveDisjoint is the collision-free resolve: it appends to dst, in
// ascending receiver id order, the delivery of every receiver in range of
// one of txs for which skip is false, and returns the extended slice. The
// fast engine's frontier skips its settled receivers and its bad ones with
// one mask.
//
// It does no collision bookkeeping and no half-duplex masking, so the
// caller must guarantee both are dead work: txs are good (non-jam)
// transmissions whose receiver sets are pairwise disjoint and contain no
// transmitter of the slot — one TDMA color class under a verified
// distance-2 coloring (plan.DisjointClasses). Under that premise the
// result is exactly ResolveAppend's deliveries minus the skipped
// receivers. A slot of several transmitters writes one scratch entry per
// receiver, the index of the transmission that reaches it, next to its
// touched bit. Slots that carry a jam, and callers that need every
// delivery or the GoodGoodCollisions count, use ResolveAppend.
func (m *Medium) ResolveDisjoint(txs []Tx, skip []bool, dst []Delivery) ([]Delivery, error) {
	for i := range txs {
		tx := &txs[i]
		if int(tx.From) < 0 || int(tx.From) >= len(m.mark) {
			return dst, fmt.Errorf("radio: transmitter %d out of range", tx.From)
		}
		if tx.Value == ValueNone || tx.Jam {
			return dst, fmt.Errorf("radio: transmission from %d is not a plain good transmission", tx.From)
		}
	}
	if len(txs) == 1 {
		tx := &txs[0]
		for _, to := range m.adj.SortedNeighbors(tx.From) {
			if !skip[to] {
				dst = append(dst, Delivery{To: to, Value: tx.Value, From: tx.From})
			}
		}
		return dst, nil
	}
	// Several transmitters: record which one reaches each surviving
	// receiver and let the touched bitset hand them back in id order, as
	// ResolveAppend does for its big slots. Every entry emission reads is
	// written here, so the pass needs no epoch.
	m.ensureBits()
	for i := range txs {
		for _, to := range m.adj.Neighbors(txs[i].From) {
			if skip[to] {
				continue
			}
			m.goodFrom[to] = grid.NodeID(i)
			m.touch(to)
		}
	}
	return m.emitBits(txs, dst), nil
}
