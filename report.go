package bftbcast

import "bftbcast/internal/protocol"

// Report is the unified outcome of an Engine run. Every backend returns
// the same result type underneath, so the core fields and the extension
// mean the same whichever engine ran (and the cross-engine oracles compare
// one type); the typed extension pointers carry the protocol's extra
// detail (exactly one of them is non-nil).
type Report struct {
	// Engine is the name of the backend that produced the report
	// ("fast", "ref").
	Engine string

	// Completed is true when every good node decided Vtrue.
	Completed bool
	// Stalled is true when the run drained with good nodes still
	// undecided: the broadcast failed.
	Stalled bool
	// TimedOut is true when the slot cap elapsed with work pending.
	TimedOut bool

	// Slots is the elapsed engine time in TDMA slots. Reactive runs on
	// the shared engines use slot time too; the extension's
	// Reactive.MessageRounds counts their data rounds.
	Slots int

	TotalGood      int
	DecidedGood    int
	WrongDecisions int // good nodes that accepted a value != Vtrue (Lemma 1: must be 0)

	GoodMessages int // protocol transmissions, source included (data rounds for reactive)
	BadMessages  int // adversarial transmissions (attack spends for reactive)
	BadCount     int

	// Per-node final state, indexed by NodeID; owned by the caller.
	Decided      []bool
	DecidedValue []Value
	Sent         []int32 // protocol messages sent (per-node NACKs: Reactive.NackSends)

	AvgGoodSends float64 // mean Sent over good non-source nodes
	MaxGoodSends int

	// Protocol extensions: exactly one is non-nil, whichever engine
	// executed the run.
	Sim      *SimResult      // single-broadcast threshold protocols
	Reactive *ReactiveResult // ProtocolReactive runs
	Multi    *MultiResult    // multi-broadcast runs, Broadcasts >= 2
}

// MultiInstance is one broadcast instance's outcome inside a
// multi-broadcast run (see MultiResult.Instances).
type MultiInstance = protocol.MultiInstanceStats

// MultiResult is the Report extension of a multi-broadcast run
// (Scenario.Broadcasts >= 2): the per-instance outcome distribution and
// the batching economics. The Report's core fields aggregate across
// instances — Decided marks nodes decided in every instance,
// WrongDecisions counts (node, instance) wrong acceptances, and
// GoodMessages counts physical (batched) transmissions.
type MultiResult struct {
	// M is the number of concurrent broadcast instances.
	M int
	// Instances holds the per-instance outcomes, indexed by instance
	// (instance 0 is the scenario source's broadcast).
	Instances []MultiInstance
	// BatchedSends is the number of physical good-node transmissions the
	// protocol scheduled; one transmission carries an entry for every
	// instance its sender still owes a relay.
	BatchedSends int
	// NaiveSends is what M independent single-instance runs would have
	// scheduled (sum of per-acceptance send counts plus source repeats);
	// BatchedSends < NaiveSends is the multiplexing win.
	NaiveSends int
	// EntriesCarried is the total protocol entries carried by observed
	// transmissions.
	EntriesCarried int
	// Decisions counts good-node acceptances across all instances
	// (pre-decided sources excluded).
	Decisions int
	// DecisionsPerSlot is the run's aggregate decision throughput,
	// Decisions / Slots.
	DecisionsPerSlot float64
}

// reportFromSim lifts an engine result — the one lifting. The per-node
// slices are shared with the SimResult, which already owns fresh copies.
func reportFromSim(engine string, res *SimResult) *Report {
	rep := reportCounts(engine, res)
	rep.Decided = res.Decided
	rep.DecidedValue = res.DecidedValue
	rep.Sent = res.Sent
	rep.Sim = res
	return &rep
}

// reportCounts lifts an engine result's tallies: the Report without its
// per-node slices and extensions.
func reportCounts(engine string, res *SimResult) Report {
	return Report{
		Engine:         engine,
		Completed:      res.Completed,
		Stalled:        res.Stalled,
		TimedOut:       res.TimedOut,
		Slots:          res.Slots,
		TotalGood:      res.TotalGood,
		DecidedGood:    res.DecidedGood,
		WrongDecisions: res.WrongDecisions,
		GoodMessages:   res.GoodMessages,
		BadMessages:    res.BadMessages,
		BadCount:       res.BadCount,
		AvgGoodSends:   res.AvgGoodSends,
		MaxGoodSends:   res.MaxGoodSends,
	}
}

// attachReactive decorates an engine report with the reactive machine's
// run record: the Reactive extension (replacing the Sim extension, so
// exactly one stays non-nil) and the adversary's attack
// spend as BadMessages (machine-internal attacks are not radio jams, so
// the engine itself counts none). Core fields stay engine-native: Slots
// is TDMA slot time and Sent counts data transmissions; per-node NACKs
// are in Reactive.NackSends.
func attachReactive(rep *Report, rs *protocol.ReactiveStats) {
	if rs == nil {
		return
	}
	rep.BadMessages = rs.AttacksSpent
	rep.Sim = nil
	rep.Reactive = rs
}

// attachMulti decorates an engine report with the multi-broadcast
// machine's run record (replacing the Sim extension, so exactly one
// stays non-nil). Core fields stay engine-native: Slots is
// TDMA slot time, GoodMessages counts physical batched transmissions.
func attachMulti(rep *Report, ms *protocol.MultiStats) {
	if ms == nil {
		return
	}
	rep.Sim = nil
	res := &MultiResult{
		M:              ms.M,
		Instances:      ms.Instances,
		BatchedSends:   ms.BatchedSends,
		NaiveSends:     ms.NaiveSends,
		EntriesCarried: ms.EntriesCarried,
		Decisions:      ms.Decisions,
	}
	if rep.Slots > 0 {
		res.DecisionsPerSlot = float64(ms.Decisions) / float64(rep.Slots)
	}
	rep.Multi = res
}
