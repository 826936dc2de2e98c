// Package plan compiles a topology into the immutable artifacts every
// execution backend re-derives per run when left to its own devices: the
// CSR-flattened adjacency (with sorted per-node neighbor lists), the
// distance-2 TDMA coloring and schedule (and whether the coloring really
// is distance-2 on that adjacency), the per-color node classes, the
// closed-neighborhood ball sizes and a diameter hint.
//
// The plan owns the paper's "pre-determined time-slotted schedule such
// that if all nodes follow the schedule then no collision will occur": the
// topology's Coloring gives every node one of Period colors, two
// same-colored nodes share no receiver, and slot s belongs to color s mod
// Period (SlotColor). On the torus the coloring is the lattice
// (x mod 2r+1) + (2r+1)·(y mod 2r+1), which needs both sides to be
// multiples of 2r+1; other topologies bring their own coloring.
//
// A Plan is computed exactly once per topology and shared by reference:
// the fast and reference slot engines, the reactive runtime, the
// adversary layer and every sweep worker all read the same arrays. Plans
// are keyed by topology identity (topologies are immutable pointer
// values), so Scenario.With derivations over one topology hit the cache,
// and so does every worker of a Sweep.
//
// Lifetime: the cache retains up to maxCached plans (with their
// topologies), evicting the oldest beyond that, so hosts that churn
// through distinct topologies cannot pin memory without bound; Purge
// drops every entry at once. Invalidation never happens implicitly —
// topologies are immutable, so a compiled plan can never go stale, and
// an evicted plan stays valid for engines already holding it.
package plan

import (
	"fmt"
	"sync"

	"bftbcast/internal/grid"
	"bftbcast/internal/radio"
	"bftbcast/internal/topo"
)

// Plan is the compiled, immutable, concurrency-safe view of one topology.
// Construct with For (cached) or Compute (uncached); the zero value is
// unusable. All exposed slices are shared storage and must not be
// modified.
type Plan struct {
	t   topo.Topology
	n   int
	adj *radio.Adjacency

	// The TDMA schedule: slot s belongs to color s mod period. colors is
	// nil and period 0 when the topology has no valid coloring (colorErr).
	colors   []int32
	period   int
	colorErr error
	classes  [][]grid.NodeID // per color, ascending node ids
	// disjoint records that the coloring was checked to be distance-2
	// on this adjacency — see DisjointClasses.
	disjoint bool

	maxDegree int
	diamHint  int
}

// maxCached bounds the cache so a host that churns through distinct
// topologies (one fresh RGG per request, say) cannot pin memory without
// bound: beyond the cap the oldest entry is evicted in insertion order.
// Evicted plans stay valid for whoever holds them — eviction only costs
// a recompute on the next For of that topology — and the cap is far
// above any sweep's working set.
const maxCached = 128

// cache maps topo.Topology (pointer identity) to *entry. Entries are
// inserted once and compiled under their own once, so concurrent callers
// never compute the same plan twice.
var cache = struct {
	sync.RWMutex
	m     map[topo.Topology]*entry
	order []topo.Topology // insertion order, for eviction
}{m: make(map[topo.Topology]*entry)}

type entry struct {
	once sync.Once
	plan *Plan
}

// For returns the compiled plan of t, computing it on first use and
// serving every later call (from any goroutine) out of the cache.
func For(t topo.Topology) *Plan {
	cache.RLock()
	en := cache.m[t]
	cache.RUnlock()
	if en == nil {
		cache.Lock()
		if en = cache.m[t]; en == nil {
			en = &entry{}
			cache.m[t] = en
			cache.order = append(cache.order, t)
			if len(cache.order) > maxCached {
				delete(cache.m, cache.order[0])
				// Clear the slot before advancing: reslicing alone keeps
				// the evicted topology reachable through the backing
				// array, pinning exactly the memory the cap releases.
				cache.order[0] = nil
				cache.order = cache.order[1:]
			}
		}
		cache.Unlock()
	}
	en.once.Do(func() { en.plan = Compute(t) })
	return en.plan
}

// Purge drops every cached plan, releasing the topologies they pin. It is
// safe to call concurrently with For; in-flight plans stay valid.
func Purge() {
	cache.Lock()
	clear(cache.m)
	cache.order = nil
	cache.Unlock()
}

// Compute compiles t without touching the cache (tests and one-shot
// tools).
func Compute(t topo.Topology) *Plan {
	p := &Plan{
		t:        t,
		n:        t.Size(),
		adj:      radio.NewAdjacency(t),
		diamHint: t.DiameterHint(),
	}
	for i := 0; i < p.n; i++ {
		if d := p.adj.Degree(grid.NodeID(i)); d > p.maxDegree {
			p.maxDegree = d
		}
	}
	colors, period, err := t.Coloring()
	switch {
	case err != nil:
		p.colorErr = fmt.Errorf("plan: %w", err)
	case period < 1 || len(colors) != p.n:
		p.colorErr = fmt.Errorf("plan: invalid coloring from %v (period %d, %d colors)", t, period, len(colors))
	default:
		p.colors, p.period = colors, period
		p.classes = make([][]grid.NodeID, period)
		counts := make([]int32, period)
		for _, c := range colors {
			counts[c]++
		}
		arena := make([]grid.NodeID, p.n)
		off := 0
		for c := range p.classes {
			p.classes[c] = arena[off : off : off+int(counts[c])]
			off += int(counts[c])
		}
		for i, c := range colors {
			p.classes[c] = append(p.classes[c], grid.NodeID(i))
		}
		p.disjoint = classesDisjoint(p.adj, colors, p.classes)
	}
	return p
}

// classesDisjoint checks, in one pass over the CSR, that the coloring is
// distance-2 on adj: walking each class's transmitters in turn, no
// receiver is reached twice within one class and none carries the class's
// own color. stamp[u] holds the last class (plus one) that reached u.
func classesDisjoint(adj *radio.Adjacency, colors []int32, classes [][]grid.NodeID) bool {
	stamp := make([]int32, len(colors))
	for c, class := range classes {
		mark := int32(c) + 1
		for _, from := range class {
			for _, to := range adj.Neighbors(from) {
				if stamp[to] == mark || colors[to] == int32(c) {
					return false
				}
				stamp[to] = mark
			}
		}
	}
	return true
}

// Topo returns the compiled topology.
func (p *Plan) Topo() topo.Topology { return p.t }

// Size returns the number of nodes.
func (p *Plan) Size() int { return p.n }

// Adjacency returns the shared CSR adjacency.
func (p *Plan) Adjacency() *radio.Adjacency { return p.adj }

// MaxDegree returns the largest degree over all nodes.
func (p *Plan) MaxDegree() int { return p.maxDegree }

// DiameterHint returns the topology's generous hop-diameter bound.
func (p *Plan) DiameterHint() int { return p.diamHint }

// ColoringErr returns why the topology has no valid TDMA coloring, or nil
// when the plan carries its schedule. It wraps the topology's own error
// (grid.ErrNotDivisible for a torus whose sides are not multiples of
// 2r+1).
func (p *Plan) ColoringErr() error { return p.colorErr }

// Colors returns the per-node TDMA color array (shared storage,
// read-only), or nil when the topology has no valid coloring.
func (p *Plan) Colors() []int32 { return p.colors }

// Period returns the schedule period — every node owns exactly one slot
// class, and slot s belongs to class s mod Period — or 0 when the
// topology has no valid coloring.
func (p *Plan) Period() int { return p.period }

// SlotColor returns the color class that owns absolute slot number slot
// under the schedule. The plan must have a valid coloring.
func (p *Plan) SlotColor(slot int) int {
	c := slot % p.period
	if c < 0 {
		c += p.period
	}
	return c
}

// ColorClasses returns, per color, the ascending node ids of that color
// class (shared storage, read-only), or nil when the topology has no
// valid coloring.
func (p *Plan) ColorClasses() [][]grid.NodeID { return p.classes }

// DisjointClasses reports whether Compute verified the coloring to be
// distance-2 on the compiled adjacency: within every color class the
// transmitters' receiver sets are pairwise disjoint and contain no member
// of the class. That is the whole premise of the TDMA schedule — a slot
// of good transmissions has no collision and no transmitter in range of
// another — and every shipped topology satisfies it; the bit exists so
// an engine may drop collision bookkeeping and half-duplex masking from
// its jam-free slots because the property was checked, not assumed. A
// topology whose Coloring() breaks it (or has none) reports false and
// keeps full resolution, so its collisions are still counted.
func (p *Plan) DisjointClasses() bool { return p.disjoint }
