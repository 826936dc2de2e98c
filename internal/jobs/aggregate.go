package jobs

import "bftbcast/internal/stats"

// Aggregate is the constant-memory running summary of a job's completed
// points: scalar tallies, streaming moment summaries for the per-point
// metrics, and a fixed-size quantile sketch for slots-to-decide. Its
// size is bounded by the sketch geometry (a few KB) no matter how many
// points it absorbs — a million-point job's checkpoint stays small.
//
// Done doubles as the fold cursor: points are folded in strictly in
// point order, so an Aggregate restored from a checkpoint with
// Done == k is byte-for-byte the state an uninterrupted run had after
// point k-1, and resuming at point k reproduces the uninterrupted
// run's final aggregate exactly (every point is deterministic given
// its Scenario, and float accumulation order is preserved).
//
// Construct with NewAggregate or decode from a checkpoint; the zero
// value lacks its sketch.
type Aggregate struct {
	// Done counts the points folded in — the job's fold cursor.
	Done int64 `json:"done"`

	Completed int64 `json:"completed"`
	Stalled   int64 `json:"stalled"`
	TimedOut  int64 `json:"timed_out"`

	WrongDecisions int64 `json:"wrong_decisions"`
	DecidedGood    int64 `json:"decided_good"`
	TotalGood      int64 `json:"total_good"`

	Slots        stats.Moments `json:"slots"`
	GoodMessages stats.Moments `json:"good_messages"`
	BadMessages  stats.Moments `json:"bad_messages"`
	AvgSends     stats.Moments `json:"avg_sends"`

	// SlotsToDecide sketches the slot counts of completed points only —
	// the broadcast-latency distribution of the runs that decided.
	SlotsToDecide *stats.QSketch `json:"slots_to_decide"`
}

// NewAggregate returns an empty aggregate ready for AddRecord.
func NewAggregate() *Aggregate {
	return &Aggregate{SlotsToDecide: stats.NewQSketch()}
}

// AddRecord folds one point's record into the aggregate. A PointRecord
// carries exactly the report fields the aggregate consumes, and JSON
// round-trips its float field losslessly — so a record folded here
// after a network hop produces the same float state as folding the
// report locally. The lease protocol leans on that: partials carry
// records, and the job replays them in global point order through this
// one fold, making the aggregate byte-identical to a sequential run's
// however many workers computed the ranges.
func (a *Aggregate) AddRecord(rec PointRecord) {
	a.Done++
	if rec.Completed {
		a.Completed++
		a.SlotsToDecide.Add(float64(rec.Slots))
	}
	if rec.Stalled {
		a.Stalled++
	}
	if rec.TimedOut {
		a.TimedOut++
	}
	a.WrongDecisions += int64(rec.WrongDecisions)
	a.DecidedGood += int64(rec.DecidedGood)
	a.TotalGood += int64(rec.TotalGood)
	a.Slots.Add(float64(rec.Slots))
	a.GoodMessages.Add(float64(rec.GoodMessages))
	a.BadMessages.Add(float64(rec.BadMessages))
	a.AvgSends.Add(rec.AvgGoodSends)
}

// Summary is the JSON-friendly digest of an Aggregate a status endpoint
// reports: the tallies plus derived statistics (quantiles are computed
// at snapshot time, never stored, so the checkpoint stays pure state).
type Summary struct {
	Done      int64 `json:"done"`
	Completed int64 `json:"completed"`
	Stalled   int64 `json:"stalled"`
	TimedOut  int64 `json:"timed_out"`

	WrongDecisions int64 `json:"wrong_decisions"`
	DecidedGood    int64 `json:"decided_good"`
	TotalGood      int64 `json:"total_good"`

	SlotsMean   float64 `json:"slots_mean"`
	SlotsStdDev float64 `json:"slots_stddev"`
	SlotsMin    float64 `json:"slots_min"`
	SlotsMax    float64 `json:"slots_max"`

	// Slots-to-decide quantiles over completed points (0 when none
	// completed yet).
	SlotsToDecideP50 float64 `json:"slots_to_decide_p50"`
	SlotsToDecideP95 float64 `json:"slots_to_decide_p95"`
	SlotsToDecideP99 float64 `json:"slots_to_decide_p99"`

	GoodMessagesMean float64 `json:"good_messages_mean"`
	BadMessagesMean  float64 `json:"bad_messages_mean"`
	AvgSendsMean     float64 `json:"avg_sends_mean"`
}

// Summary digests the aggregate. Quantiles are 0 while no point has
// completed (a NaN would not marshal).
func (a *Aggregate) Summary() Summary {
	s := Summary{
		Done:           a.Done,
		Completed:      a.Completed,
		Stalled:        a.Stalled,
		TimedOut:       a.TimedOut,
		WrongDecisions: a.WrongDecisions,
		DecidedGood:    a.DecidedGood,
		TotalGood:      a.TotalGood,

		SlotsMean:   a.Slots.Mean,
		SlotsStdDev: a.Slots.StdDev(),
		SlotsMin:    a.Slots.Min,
		SlotsMax:    a.Slots.Max,

		GoodMessagesMean: a.GoodMessages.Mean,
		BadMessagesMean:  a.BadMessages.Mean,
		AvgSendsMean:     a.AvgSends.Mean,
	}
	if a.SlotsToDecide != nil && a.SlotsToDecide.Count() > 0 {
		s.SlotsToDecideP50 = a.SlotsToDecide.Quantile(0.50)
		s.SlotsToDecideP95 = a.SlotsToDecide.Quantile(0.95)
		s.SlotsToDecideP99 = a.SlotsToDecide.Quantile(0.99)
	}
	return s
}
