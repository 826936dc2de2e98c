package sim

import "time"

// Timing is a run's engine wall time split by phase, with counts of what
// the slot loop did; a run carries one when Config.Timing is set. The
// clock is read at the phase edges only, and every interval between two
// reads is charged to exactly one row, so the rows sum to Total — the
// time from Frame.Begin to the end of Frame.Finish or Frame.Counts — by
// construction. The reference engine fills Begin, Loop and Finish only.
type Timing struct {
	// Begin is the run's set-up: Frame.Begin (plan compile, placement and
	// its validation, instance attach, budgets, slot cap) and the engine's
	// own, up to its first slot (bootstrap included).
	Begin time.Duration
	// Loop is the slot loop outside the phases below: the cancellation
	// poll, the idle-slot skip and the loop's end. On the reference engine
	// it is the whole loop.
	Loop time.Duration
	// Emit takes each slot's transmissions off the queues (budgets, Sent).
	Emit time.Duration
	// Resolve is the radio medium resolving the slot's transmissions, in
	// full or on the frontier.
	Resolve time.Duration
	// Adversary is the strategy's jams and their validation, and the full
	// resolve of a jammed slot.
	Adversary time.Duration
	// Deliver is the protocol instance: Book, Deliver and Tick.
	Deliver time.Duration
	// Schedule schedules the sends the instance returned, retiring the
	// settled ones.
	Schedule time.Duration
	// Finish is Frame.Finish or Frame.Counts: the instance's Finish (a
	// ledger fold), the classification and the per-node copies.
	Finish time.Duration

	// SlotsExecuted counts the slots the loop ran; SlotsSkipped is the rest
	// of Result.Slots — idle slots skipped wholesale, and the tail that
	// retired sends occupy.
	SlotsExecuted, SlotsSkipped int
	// The good transmissions by how the engine resolved them; they sum to
	// Result.GoodMessages. SendsFull were resolved in full (every send of a
	// jammed slot among them), SendsFrontier on a slot's frontier,
	// SendsBooked were booked without a delivery (a frontier slot's settled
	// rows, a booked slot's every send) and SendsRetired booked without a
	// slot.
	SendsFull, SendsFrontier, SendsBooked, SendsRetired int
}

// Total is the sum of the phase rows: the run's engine wall time.
func (t *Timing) Total() time.Duration {
	return t.Begin + t.Loop + t.Emit + t.Resolve + t.Adversary + t.Deliver + t.Schedule + t.Finish
}

// stopwatch keeps a run's Timing. lap charges the time since the previous
// read to one row; it reads no clock when the run is not timed, so an
// untimed run pays one branch per phase edge. A read after the first is
// time.Since the first, which reads the monotonic clock alone. The fast
// engine bumps the counts whether or not the run is timed.
type stopwatch struct {
	on    bool
	begin time.Time     // the run's first read
	last  time.Duration // the previous read, since begin
	t     Timing
}

// start resets the stopwatch for a run and, when on, takes its first read.
func (s *stopwatch) start(on bool) {
	*s = stopwatch{on: on}
	if on {
		s.begin = time.Now()
	}
}

// lap charges the time since the previous read to row.
func (s *stopwatch) lap(row *time.Duration) {
	if s.on {
		s.read(row)
	}
}

func (s *stopwatch) read(row *time.Duration) {
	now := time.Since(s.begin)
	*row += now - s.last
	s.last = now
}

// StartLoop marks the end of the engine's set-up: on a timed run the time
// since Begin started is charged to Timing.Begin.
func (f *Frame) StartLoop() { f.clock.lap(&f.clock.t.Begin) }

// timing charges the time since the last read to Finish and returns the
// run's Timing, or nil when the run is not timed. The remainder of the
// good sends and slots the loop did not count otherwise are the full
// resolves and the executed slots.
func (f *Frame) timing() *Timing {
	if !f.clock.on {
		return nil
	}
	f.clock.lap(&f.clock.t.Finish)
	t := f.clock.t
	t.SlotsExecuted = f.Res.Slots - t.SlotsSkipped
	t.SendsFull = f.Res.GoodMessages - t.SendsFrontier - t.SendsBooked - t.SendsRetired
	return &t
}
