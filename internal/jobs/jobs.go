// Package jobs is the long-running sweep service behind cmd/bftsimd. A
// job is a grid's deterministic point list cut into contiguous ranges:
// workers lease ranges, run them and hand back per-point records, and
// the job folds completed ranges into a constant-memory aggregate
// strictly in point order, publishing each record to live subscribers
// as it folds. The manager's own Workers executors lease every job: the
// plain jobs first, then the sharded ones, each in submission order, so
// an executor moves to a later job only when every earlier one has no
// open range. A sharded job differs only in that external pull workers
// may lease it too, and in skipping the queue. Plain submissions wait
// in a bounded queue with submit-time backpressure, and every job keeps
// one checkpoint file: the fold cursor, the aggregate and the ranges
// completed ahead of it.
//
// The resume guarantee rests on two deterministic layers beneath this
// package: a GridSpec always expands to the same point list (so a
// restarted daemon re-derives the exact scenarios from the checkpointed
// spec document), and ranges fold in index order however they were
// computed (so the aggregate absorbs records in one fixed order and its
// float state is byte-identical between an interrupted-and-resumed run,
// an uninterrupted one and one spread over many workers). A killed
// daemon therefore resumes every non-terminal job at its checkpointed
// cursor, recomputing only the ranges that were in flight or completed
// after the last checkpoint, without perturbing the final aggregate.
package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"time"

	"bftbcast"
	"bftbcast/internal/stats"
)

// State is a job's lifecycle state. Queued and running jobs are
// resumable — a daemon restart re-enqueues them; the terminal states
// are final.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// PointRecord is one sweep point's outcome in the streamable form the
// daemon writes as an NDJSON line: the Report's core tallies, without
// the per-node slices (which would dwarf the rest and defeat the
// constant-memory stream). RunRange therefore builds it from the
// engine's tallies-only run, which never copies those slices out; the
// record equals the one a full Report yields
// (TestRunRangeMatchesReports).
type PointRecord struct {
	Job   string `json:"job"`
	Index int    `json:"index"`

	Completed bool `json:"completed"`
	Stalled   bool `json:"stalled,omitempty"`
	TimedOut  bool `json:"timed_out,omitempty"`

	Slots          int `json:"slots"`
	TotalGood      int `json:"total_good"`
	DecidedGood    int `json:"decided_good"`
	WrongDecisions int `json:"wrong_decisions,omitempty"`

	GoodMessages int     `json:"good_messages"`
	BadMessages  int     `json:"bad_messages,omitempty"`
	AvgGoodSends float64 `json:"avg_good_sends"`
}

// pointRecord digests the report of grid point index (its per-node
// state may be absent).
func pointRecord(jobID string, index int, rep *bftbcast.Report) PointRecord {
	return PointRecord{
		Job:            jobID,
		Index:          index,
		Completed:      rep.Completed,
		Stalled:        rep.Stalled,
		TimedOut:       rep.TimedOut,
		Slots:          rep.Slots,
		TotalGood:      rep.TotalGood,
		DecidedGood:    rep.DecidedGood,
		WrongDecisions: rep.WrongDecisions,
		GoodMessages:   rep.GoodMessages,
		BadMessages:    rep.BadMessages,
		AvgGoodSends:   rep.AvgGoodSends,
	}
}

// Status is a job's queryable snapshot.
type Status struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	// Total is the job's point count; Aggregate.Done of them are done.
	Total int    `json:"total"`
	Err   string `json:"err,omitempty"`
	// Sharded marks a job whose ranges external workers may also pull
	// via the lease endpoints; the manager's own executors lease every
	// job.
	Sharded bool `json:"sharded,omitempty"`

	Aggregate Summary `json:"aggregate"`
}

// Job is one submitted grid sweep. All exported methods are safe for
// concurrent use.
type Job struct {
	id       string
	seq      uint64
	spec     *bftbcast.GridSpec
	specJSON json.RawMessage
	total    int
	// sharded opens the job's ranges to external workers next to the
	// manager's Workers executors, which lease every job. opts is the
	// lease geometry. Both are fixed at submission and checkpointed.
	sharded bool
	opts    ShardOptions
	// ctx is what the job's in-process ranges run under: finishJob
	// cancels it (Cancel, a failed range, completion) and a drain does
	// through the manager's base context. Nil on a job loaded terminal.
	ctx    context.Context
	cancel context.CancelFunc

	mu    sync.Mutex
	state State
	agg   *Aggregate
	// cursor is the fold cursor over the range partition, pending the
	// reorder buffer (completed ranges by Lo awaiting their predecessors)
	// and leases the outstanding grants by range Lo — at most one per
	// range. Leases are memory-only: a restarted manager forgets them and
	// re-issues open ranges; pending ranges ARE checkpointed. All three,
	// and the compiled topology the in-process executors share, are
	// dropped when the job stops serving leases (terminal or parked).
	cursor     stats.RangeCursor
	pending    map[int][]PointRecord
	leases     map[int]*lease
	leaseSeq   uint64
	released   *sync.Cond // on mu: a range folded or the job stopped serving; see leaseJob
	topo       bftbcast.Topology
	sinceCkpt  int       // points completed since the last mid-run checkpoint
	lastCkpt   time.Time // when that checkpoint (or the submission's) was taken
	errMsg     string
	finishedAt time.Time // set on terminal state (retention age)
	subs       []*Subscriber
	finished   chan struct{} // closed on terminal state
	ckptGen    uint64        // generation of the last snapshot taken (see checkpointJob)

	// ckptMu serialises this job's checkpoint writers — they share one
	// temp path — and guards ckptOnDisk, the generation of the snapshot
	// the checkpoint file holds. Taken after mu is released, never with it.
	ckptMu     sync.Mutex
	ckptOnDisk uint64
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Spec returns the job's grid document, the one its grants carry.
func (j *Job) Spec() json.RawMessage { return j.specJSON }

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Status{
		ID:        j.id,
		State:     j.state,
		Total:     j.total,
		Err:       j.errMsg,
		Sharded:   j.sharded,
		Aggregate: j.agg.Summary(),
	}
}

// AggregateJSON marshals the job's aggregate state — the exact bytes a
// checkpoint records, which is what the resume tests compare.
func (j *Job) AggregateJSON() ([]byte, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return json.Marshal(j.agg)
}

// Wait blocks until the job reaches a terminal state and its terminal
// checkpoint write has been attempted (or ctx fires), and returns the
// job's error, if any. A job parked by a daemon drain is not terminal —
// it stays queued for the next process.
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-j.finished:
	case <-ctx.Done():
		return ctx.Err()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.errMsg != "" {
		return errors.New(j.errMsg)
	}
	return nil
}

// Subscriber is a bounded live tail of a job's PointRecords. A slow
// subscriber never stalls the job: records that do not fit its buffer
// are dropped and counted, so the stream is lossy under pressure but
// the job's own progress and aggregate are exact. The channel closes
// when the job's streaming ends (terminal state or daemon drain).
type Subscriber struct {
	job     *Job
	ch      chan PointRecord
	dropped int64
	closed  bool
}

// Points returns the record channel.
func (s *Subscriber) Points() <-chan PointRecord { return s.ch }

// Dropped returns how many records the subscriber's buffer shed.
func (s *Subscriber) Dropped() int64 {
	s.job.mu.Lock()
	defer s.job.mu.Unlock()
	return s.dropped
}

// Close detaches the subscriber; idempotent, safe alongside the job
// closing it.
func (s *Subscriber) Close() {
	j := s.job
	j.mu.Lock()
	defer j.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	close(s.ch)
	for i, o := range j.subs {
		if o == s {
			j.subs = append(j.subs[:i], j.subs[i+1:]...)
			break
		}
	}
}

// Subscribe attaches a live tail with the given buffer (<= 0 means a
// small default). Only points completed after the subscription appear;
// a subscriber attached to a job that is already terminal (or no
// longer streaming) gets an immediately closed channel — the caller
// reads the final Status instead.
func (j *Job) Subscribe(buffer int) *Subscriber {
	if buffer <= 0 {
		buffer = 64
	}
	s := &Subscriber{job: j, ch: make(chan PointRecord, buffer)}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		s.closed = true
		close(s.ch)
		return s
	}
	j.subs = append(j.subs, s)
	return s
}

// publishLocked offers a record to every subscriber; j.mu is held.
func (j *Job) publishLocked(rec PointRecord) {
	for _, s := range j.subs {
		select {
		case s.ch <- rec:
		default:
			s.dropped++
		}
	}
}

// closeSubsLocked ends every live tail; j.mu is held.
func (j *Job) closeSubsLocked() {
	for _, s := range j.subs {
		if !s.closed {
			s.closed = true
			close(s.ch)
		}
	}
	j.subs = nil
}
