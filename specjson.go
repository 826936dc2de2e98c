package bftbcast

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"bftbcast/internal/adversary"
	"bftbcast/internal/stats"
)

// ErrBadSpec rejects a malformed scenario-grid document: unknown
// protocol/adversary/policy names, axis values that contradict the
// protocol, or JSON that does not decode. Every rejection from
// DecodeGridSpec and GridSpec.Validate wraps it (possibly alongside one
// of the Scenario validation errors), so the jobs layer can map any
// submission failure to a client error with errors.Is.
var ErrBadSpec = errors.New("bftbcast: bad scenario spec")

// ScenarioSpec is the JSON-codable description of one Scenario: the
// topology by name, the fault model, the protocol and adversary by
// name, and the run limits. It is what cmd/bftsim fills from its flags
// and the base point of a GridSpec.
type ScenarioSpec struct {
	// Topology selects the network by name: kind "torus" (default),
	// "grid" or "rgg", sized by W/H/R (grids) or Nodes+Seed (rgg).
	Topology TopologySpec `json:"topology"`
	// T and MF are the fault model; R comes from the topology.
	T  int `json:"t"`
	MF int `json:"mf"`
	// Protocol is "b" (default), "bheter" (torus only), "koo", "full"
	// (requires M) or "reactive".
	Protocol string `json:"protocol,omitempty"`
	// M is the good-node budget of the "full" protocol.
	M int `json:"m,omitempty"`
	// Adversary is "none" (default), "random" (RandomPlacement with
	// Density plus the budget-aware corruptor for threshold protocols),
	// or one of the paper's torus constructions with their targeted
	// strategy: "sandwich" (Theorem 1: two stripes isolating a band of
	// rows, placed from the torus height and range) and "figure2" (the
	// Figure 2 lattice guarding the eight mirror victims). Like "bheter"
	// the constructions are torus-only, and they jam, so they do not
	// combine with the policy-driven "reactive" protocol.
	Adversary string  `json:"adversary,omitempty"`
	Density   float64 `json:"density,omitempty"`
	// Policy, MMax and PayloadBits tune the reactive protocol
	// ("disrupt" default, "forge", "nackspam", "mixed").
	Policy      string `json:"policy,omitempty"`
	MMax        int    `json:"mmax,omitempty"`
	PayloadBits int    `json:"payload_bits,omitempty"`
	// Broadcasts >= 2 enables multi-broadcast traffic (threshold only).
	Broadcasts int `json:"broadcasts,omitempty"`
	// MaxSlots is the Scenario run limit.
	MaxSlots int `json:"max_slots,omitempty"`
	// RunWorkers is accepted and ignored: it selected an in-run parallel
	// path whose results were bit-identical for every value, and stored
	// checkpoints may still carry it. A negative value is still rejected
	// (ErrBadLimits).
	RunWorkers int `json:"run_workers,omitempty"`
	// Seed drives the engine randomness, the adversary placement and —
	// through deterministic derivation — every replica of a GridSpec.
	Seed uint64 `json:"seed,omitempty"`
}

// Scenario builds the validated Scenario the spec describes. The
// returned scenario owns a freshly built topology; grids that expand
// many points share one topology instead (see GridSpec.Scenarios).
func (s *ScenarioSpec) Scenario() (*Scenario, error) {
	tp, err := NewTopology(s.Topology)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadSpec, err)
	}
	return s.scenarioOn(tp, s.T, s.MF, s.Density, s.Broadcasts, s.Seed)
}

// scenarioOn builds the spec's scenario on an already-built topology
// with the axis-varying fields overridden — the one constructor both
// the single-Scenario and the grid-expansion paths funnel through. It
// fills the Scenario struct directly instead of going through the
// functional options: grid expansion calls this once per point, and
// the ~10 option closures per point were the dominant allocation churn
// of job submission (TestAllocs/JobGrid holds the result).
func (s *ScenarioSpec) scenarioOn(tp Topology, t, mf int, density float64, broadcasts int, seed uint64) (*Scenario, error) {
	params := Params{R: tp.Range(), T: t, MF: mf}
	if err := params.Validate(); err != nil {
		// Checked before the protocol constructors see the params, so a
		// bad axis value classifies as ErrBadParams, not as whichever
		// constructor tripped over it first.
		return nil, fmt.Errorf("%w: %w: %w", ErrBadSpec, ErrBadParams, err)
	}
	if s.RunWorkers < 0 {
		return nil, fmt.Errorf("%w: %w: run_workers %d must be >= 0", ErrBadSpec, ErrBadLimits, s.RunWorkers)
	}
	sc := &Scenario{
		Topo:       tp,
		Params:     params,
		Seed:       seed,
		MaxSlots:   s.MaxSlots,
		Broadcasts: broadcasts,
	}

	reactive := s.Protocol == "reactive"
	if reactive {
		policy, err := reactivePolicy(s.Policy)
		if err != nil {
			return nil, err
		}
		sc.Protocol = ProtocolReactive
		sc.Reactive = ReactiveSpec{MMax: s.MMax, PayloadBits: s.PayloadBits, Policy: policy}
	} else {
		spec, err := s.thresholdSpec(tp, params)
		if err != nil {
			return nil, err
		}
		sc.Spec = spec
	}

	switch s.Adversary {
	case "", "none":
	case "random":
		sc.Placement = RandomPlacement{T: t, Density: density, Seed: seed}
		if !reactive {
			// The reactive adversary acts through Policy, not a jamming
			// strategy; it only needs the placement. Strategies are
			// single-run: every expanded point gets its own corruptor.
			sc.Strategy = NewCorruptor()
		}
	case "sandwich", "figure2":
		if reactive {
			return nil, fmt.Errorf("%w: adversary %s drives bad nodes through a jamming strategy, which the reactive protocol replaces with policy; use adversary none or random", ErrBadSpec, s.Adversary)
		}
		tor, ok := tp.(*Torus)
		if !ok {
			return nil, fmt.Errorf("%w: adversary %s is a torus construction (got topology %q)", ErrBadSpec, s.Adversary, s.Topology.Kind)
		}
		if s.Adversary == "sandwich" {
			low := tor.Height()/3 + 1
			sw := SandwichPlacement{YLow: low, YHigh: low + 3*tor.Range(), T: t}
			sc.Placement, sc.Strategy = sw, NewTargeted(sw.VictimBand(tor))
		} else {
			sc.Placement = adversary.Figure2Lattice(tor.Range())
			sc.Strategy = NewTargeted(adversary.Figure2Victims(tor))
		}
	default:
		return nil, fmt.Errorf("%w: unknown adversary %q (want none, random, sandwich or figure2)", ErrBadSpec, s.Adversary)
	}

	// validate fills the remaining defaults in place, exactly as
	// NewScenario would on the option-built equivalent.
	if err := sc.validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadSpec, err)
	}
	return sc, nil
}

// thresholdSpec resolves the spec's threshold-protocol name.
func (s *ScenarioSpec) thresholdSpec(tp Topology, params Params) (Spec, error) {
	switch s.Protocol {
	case "", "b":
		spec, err := NewProtocolB(params)
		if err != nil {
			return Spec{}, fmt.Errorf("%w: %w", ErrBadSpec, err)
		}
		return spec, nil
	case "bheter":
		tor, ok := tp.(*Torus)
		if !ok {
			return Spec{}, fmt.Errorf("%w: protocol bheter is a torus construction (got topology %q)", ErrBadSpec, s.Topology.Kind)
		}
		spec, err := NewBheter(params, tor, Cross{Center: tor.ID(0, 0), HalfWidth: params.R})
		if err != nil {
			return Spec{}, fmt.Errorf("%w: %w", ErrBadSpec, err)
		}
		return spec, nil
	case "koo":
		spec, err := NewKooBaseline(params)
		if err != nil {
			return Spec{}, fmt.Errorf("%w: %w", ErrBadSpec, err)
		}
		return spec, nil
	case "full":
		if s.M <= 0 {
			return Spec{}, fmt.Errorf("%w: protocol full needs m > 0", ErrBadSpec)
		}
		spec, err := NewFullBudget(params, s.M)
		if err != nil {
			return Spec{}, fmt.Errorf("%w: %w", ErrBadSpec, err)
		}
		return spec, nil
	default:
		return Spec{}, fmt.Errorf("%w: unknown protocol %q (want b, bheter, koo, full or reactive)", ErrBadSpec, s.Protocol)
	}
}

// reactivePolicy resolves the reactive attack-policy name.
func reactivePolicy(name string) (AttackPolicy, error) {
	switch name {
	case "", "disrupt":
		return PolicyDisrupt, nil
	case "forge":
		return PolicyForge, nil
	case "nackspam":
		return PolicyNackSpam, nil
	case "mixed":
		return PolicyMixed, nil
	default:
		return 0, fmt.Errorf("%w: unknown policy %q (want disrupt, forge, nackspam or mixed)", ErrBadSpec, name)
	}
}

// GridSpec is the JSON-codable description of a parameter sweep: a base
// ScenarioSpec plus axes. The grid expands to the cartesian product of
// the axes in a fixed order — seed replicas outermost, then T, MF,
// Density, Broadcasts innermost — so a spec document always names the
// same point list, which is what makes checkpointed jobs resumable: a
// restarted daemon re-expands the spec and continues at the recorded
// point index.
//
// Replica seeds are derived deterministically from Base.Seed (replica 0
// keeps Base.Seed itself, so a one-replica grid is exactly the base
// scenario); each point's scenario seed also drives its adversary
// placement.
type GridSpec struct {
	Base ScenarioSpec `json:"base"`
	// Seeds is the number of seed replicas (0 and 1 both mean one).
	Seeds int `json:"seeds,omitempty"`
	// The axes; an empty axis holds the base value fixed.
	T          []int     `json:"t,omitempty"`
	MF         []int     `json:"mf,omitempty"`
	Density    []float64 `json:"density,omitempty"`
	Broadcasts []int     `json:"broadcasts,omitempty"`
}

// DecodeGridSpec parses and validates a JSON grid document. Unknown
// fields are rejected — a misspelled axis silently fixing a parameter
// is exactly the failure mode a validating decoder exists to prevent.
func DecodeGridSpec(data []byte) (*GridSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	g := &GridSpec{}
	if err := dec.Decode(g); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadSpec, err)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// Encode renders the grid as JSON, the inverse of DecodeGridSpec.
func (g *GridSpec) Encode() ([]byte, error) {
	return json.Marshal(g)
}

// maxGridPoints bounds the points one grid document may expand to. Every
// point is folded by a job and replica seeds are drawn one by one, so the
// bound keeps a ~100-byte body from asking for unbounded work; it is far
// above any grid the repository submits (4 096 points).
const maxGridPoints = 1 << 24

// NPoints returns the number of points the grid expands to. A grid above
// maxGridPoints, which Validate refuses, reports maxGridPoints+1, so the
// count never overflows.
func (g *GridSpec) NPoints() int {
	n := g.replicas()
	if n > maxGridPoints {
		return maxGridPoints + 1
	}
	for _, axis := range []int{len(g.T), len(g.MF), len(g.Density), len(g.Broadcasts)} {
		if axis > 0 {
			if n > maxGridPoints/axis {
				return maxGridPoints + 1
			}
			n *= axis
		}
	}
	return n
}

func (g *GridSpec) replicas() int {
	if g.Seeds <= 1 {
		return 1
	}
	return g.Seeds
}

// Validate checks the grid without expanding every replica: the base
// spec and each unique axis combination are built once, so a malformed
// corner of the grid is reported at submit time with a typed error
// (ErrBadSpec or a Scenario validation error), not after hours of
// completed points.
func (g *GridSpec) Validate() error {
	if g.Seeds < 0 {
		return fmt.Errorf("%w: seeds %d must be >= 0", ErrBadSpec, g.Seeds)
	}
	if g.NPoints() > maxGridPoints {
		return fmt.Errorf("%w: the grid expands to more than %d points", ErrBadSpec, maxGridPoints)
	}
	tp, err := NewTopology(g.Base.Topology)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrBadSpec, err)
	}
	return g.forEachCombo(func(t, mf int, density float64, broadcasts int) error {
		_, err := g.Base.scenarioOn(tp, t, mf, density, broadcasts, g.Base.Seed)
		return err
	})
}

// Scenarios expands the grid's points [lo, hi) in the documented
// deterministic order (the full list is Scenarios(0, g.NPoints())).
// All points share one freshly built topology (and therefore one
// compiled plan across all sweep workers); each point derives from the
// base via the axis overrides and its replica seed. Expansion itself
// validates every built point (scenarioOn rejects malformed corners
// with the same typed errors Validate reports), so no separate Validate
// pass runs here — checkpoint resume re-expands grids constantly, and
// the double expansion used to double the submission allocation bill.
func (g *GridSpec) Scenarios(lo, hi int) ([]*Scenario, error) {
	tp, err := NewTopology(g.Base.Topology)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadSpec, err)
	}
	return g.ScenariosOn(tp, lo, hi)
}

// ScenariosOn is Scenarios on a caller-provided topology, so repeated
// range expansions of one grid (the sharded lease protocol pulls a grid
// range by range) share a single topology and its compiled plan instead
// of rebuilding both per range. Only the points inside [lo, hi) are
// built: replica blocks entirely outside the range are skipped without
// walking their axis combinations, and replica seeds are drawn only up
// to the range's last replica, so expanding a window of a huge grid
// allocates O(hi-lo), not O(NPoints).
func (g *GridSpec) ScenariosOn(tp Topology, lo, hi int) ([]*Scenario, error) {
	if g.Seeds < 0 {
		return nil, fmt.Errorf("%w: seeds %d must be >= 0", ErrBadSpec, g.Seeds)
	}
	total := g.NPoints()
	if total > maxGridPoints {
		return nil, fmt.Errorf("%w: the grid expands to more than %d points", ErrBadSpec, maxGridPoints)
	}
	if lo < 0 || hi > total || lo > hi {
		return nil, fmt.Errorf("%w: point range [%d,%d) outside grid of %d points", ErrBadSpec, lo, hi, total)
	}
	perReplica := total / g.replicas()
	seeds := deriveSeeds(g.Base.Seed, (hi+perReplica-1)/perReplica)
	out := make([]*Scenario, 0, hi-lo)
	for ri, seed := range seeds {
		base := ri * perReplica
		if base+perReplica <= lo || base >= hi {
			continue
		}
		idx := base
		err := g.forEachCombo(func(t, mf int, density float64, broadcasts int) error {
			i := idx
			idx++
			if i < lo || i >= hi {
				return nil
			}
			sc, err := g.Base.scenarioOn(tp, t, mf, density, broadcasts, seed)
			if err != nil {
				return err
			}
			out = append(out, sc)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// forEachCombo walks the axis combinations in the fixed expansion order
// (T, then MF, then Density, then Broadcasts), substituting the base
// value for empty axes.
func (g *GridSpec) forEachCombo(fn func(t, mf int, density float64, broadcasts int) error) error {
	ts := g.T
	if len(ts) == 0 {
		ts = []int{g.Base.T}
	}
	mfs := g.MF
	if len(mfs) == 0 {
		mfs = []int{g.Base.MF}
	}
	densities := g.Density
	if len(densities) == 0 {
		densities = []float64{g.Base.Density}
	}
	broadcasts := g.Broadcasts
	if len(broadcasts) == 0 {
		broadcasts = []int{g.Base.Broadcasts}
	}
	for _, t := range ts {
		for _, mf := range mfs {
			for _, d := range densities {
				for _, b := range broadcasts {
					if err := fn(t, mf, d, b); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// deriveSeeds expands a base seed into the first n replica seeds:
// replica 0 is the base itself, later replicas are drawn in order from
// the repository's deterministic RNG seeded with the base. Replica i's
// seed depends only on (base, i), so a re-expanded grid — or a prefix of
// it — reproduces its points exactly.
func deriveSeeds(base uint64, n int) []uint64 {
	out := make([]uint64, n)
	if n == 0 {
		return out
	}
	out[0] = base
	rng := stats.NewRNG(base)
	for i := 1; i < n; i++ {
		out[i] = rng.Uint64()
	}
	return out
}
