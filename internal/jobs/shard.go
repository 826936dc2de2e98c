package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"bftbcast"
	"bftbcast/internal/stats"
)

var (
	// ErrNoWork tells a leasing worker the job has no open range right
	// now — everything is folded, pending or under outside leases. Poll
	// again later (HTTP 204): an expiring lease may reopen a range.
	ErrNoWork = errors.New("jobs: no open range")
	// ErrJobDone tells a leasing worker the job reached a terminal state
	// and will never hand out work again (HTTP 410).
	ErrJobDone = errors.New("jobs: job is terminal")
	// ErrNotSharded rejects outside lease traffic against a job only the
	// manager's own executors may lease (HTTP 409).
	ErrNotSharded = errors.New("jobs: job is not sharded")
	// ErrBadPartial rejects a partial whose range or points do not match
	// the job's partition (HTTP 400).
	ErrBadPartial = errors.New("jobs: bad partial")
)

// ShardOptions configures a sharded job's lease geometry. The zero
// value of each field selects a default.
type ShardOptions struct {
	// LeasePoints is the points per lease range (<= 0 means 64). The
	// grid's point list is partitioned into contiguous ranges of this
	// size; each lease covers exactly one range.
	LeasePoints int `json:"lease_points"`
	// LeaseTTL bounds how long an outside worker may sit on a lease (<= 0
	// means 30s). Past the deadline the range is re-issued to the next
	// asker — safe because every point is deterministic and idempotent,
	// so two workers racing on one range produce identical records and
	// the second completion is dropped. A range held by one of the
	// manager's own executors never expires: the holder cannot die
	// without the process, and re-issuing a slow range would only compute
	// it twice.
	LeaseTTL time.Duration `json:"-"`
}

func (o *ShardOptions) fill() {
	if o.LeasePoints <= 0 {
		o.LeasePoints = 64
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 30 * time.Second
	}
}

// LeaseGrant is one issued lease: run points [Lo, Hi) of Spec and post
// a Partial back before Deadline.
type LeaseGrant struct {
	JobID    string          `json:"job"`
	LeaseID  string          `json:"lease"`
	Lo       int             `json:"lo"`
	Hi       int             `json:"hi"`
	Deadline time.Time       `json:"deadline"`
	Spec     json.RawMessage `json:"spec"`
}

// Partial is a worker's completed range: the per-point records of
// [Lo, Hi) in point order, or Err when a point failed. Completion is
// keyed by the range, not the lease — a partial for an open or expired
// range folds even if the coordinator restarted and forgot the lease,
// and a duplicate completion of an already-folded range is dropped.
type Partial struct {
	LeaseID string        `json:"lease,omitempty"`
	Worker  string        `json:"worker,omitempty"`
	Lo      int           `json:"lo"`
	Hi      int           `json:"hi"`
	Points  []PointRecord `json:"points,omitempty"`
	Err     string        `json:"err,omitempty"`
}

// lease is one outstanding grant, keyed by its range start in
// Job.leases. inProcess marks a holder that lives in this process.
type lease struct {
	id        string
	worker    string
	deadline  time.Time
	inProcess bool
}

// lookup resolves a job for outside lease traffic: ErrClosed while
// draining, ErrUnknownJob, and ErrNotSharded for a job that only the
// manager's own executors lease.
func (m *Manager) lookup(jobID string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	job, ok := m.jobs[jobID]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, jobID)
	}
	if !job.sharded {
		return nil, ErrNotSharded
	}
	return job, nil
}

// Lease issues the next open range of a sharded job to worker. It
// reclaims expired leases first, so a died worker's range is re-issued
// here, lazily, with no background scan. When only the manager's own
// executors hold what is left, it waits for them (see leaseJob).
func (m *Manager) Lease(jobID, worker string) (LeaseGrant, error) {
	job, err := m.lookup(jobID)
	if err != nil {
		return LeaseGrant{}, err
	}
	return m.leaseJob(job, worker, false)
}

// leaseJob grants one range of job to worker, or a sentinel error. An
// outside asker that finds no open range while an executor of this
// manager holds one waits for it (such a lease never expires and ends
// within a range's run) instead of taking ErrNoWork: ErrNoWork means
// outside leases hold the rest, and a lone outside worker ends on
// ErrJobDone with the job done.
func (m *Manager) leaseJob(job *Job, worker string, inProcess bool) (LeaseGrant, error) {
	now := m.now()
	job.mu.Lock()
	defer job.mu.Unlock()
	var lo int
	for {
		if job.state.Terminal() {
			return LeaseGrant{}, ErrJobDone
		}
		if job.ctx.Err() != nil {
			return LeaseGrant{}, ErrClosed
		}
		held := false // by an executor of this manager
		for lo, l := range job.leases {
			switch {
			case l.inProcess:
				held = true
			case now.After(l.deadline):
				delete(job.leases, lo)
			}
		}
		var ok bool
		if lo, ok = job.cursor.NextOpen(func(lo int) bool {
			_, held := job.leases[lo]
			return held
		}); ok {
			break
		}
		// The last fold leaves the job complete until finishJob makes it
		// terminal: an outside asker waits that out too.
		if inProcess || !held && !job.cursor.Complete() {
			return LeaseGrant{}, ErrNoWork
		}
		job.released.Wait()
		now = m.now()
	}
	hi, _ := job.cursor.Bounds(lo)
	job.leaseSeq++
	id := fmt.Sprintf("%s-%d-%d", job.id, lo, job.leaseSeq)
	deadline := now.Add(job.opts.LeaseTTL)
	job.leases[lo] = &lease{id: id, worker: worker, deadline: deadline, inProcess: inProcess}
	job.state = StateRunning
	return LeaseGrant{
		JobID:    job.id,
		LeaseID:  id,
		Lo:       lo,
		Hi:       hi,
		Deadline: deadline,
		Spec:     job.specJSON,
	}, nil
}

// CompleteLease folds a worker's finished range into a sharded job; see
// completeLease.
func (m *Manager) CompleteLease(jobID string, p Partial) error {
	job, err := m.lookup(jobID)
	if err != nil {
		return err
	}
	return m.completeLease(job, p)
}

// completeLease folds a finished range into the job. The partial parks
// in the reorder buffer until every earlier range has folded, then the
// cascade replays its records through the aggregate in global point
// order — so the final aggregate is byte-identical to a sequential run.
// Duplicate completions (an expired lease re-issued, both workers
// finishing) are dropped without double-counting, and a partial against
// an already-terminal job is a no-op.
func (m *Manager) completeLease(job *Job, p Partial) error {
	job.mu.Lock()
	if job.state.Terminal() {
		job.mu.Unlock()
		return nil
	}
	if job.ctx.Err() != nil {
		// Draining: the job is parked, or about to be, as it stands.
		job.mu.Unlock()
		return ErrClosed
	}
	if hi, ok := job.cursor.Bounds(p.Lo); !ok || hi != p.Hi {
		job.mu.Unlock()
		return fmt.Errorf("%w: [%d,%d) is not a partition range", ErrBadPartial, p.Lo, p.Hi)
	}
	if p.Err != "" {
		job.mu.Unlock()
		m.finishJob(job, StateFailed, fmt.Errorf("jobs: range [%d,%d): %s", p.Lo, p.Hi, p.Err))
		return nil
	}
	if job.cursor.Contains(p.Lo) {
		// Duplicate completion of a folded or pending range: the records
		// are deterministic, so the copies are identical — drop this one.
		job.mu.Unlock()
		return nil
	}
	if err := checkRange(&job.cursor, p.Lo, p.Hi, p.Points); err != nil {
		job.mu.Unlock()
		return fmt.Errorf("%w: %v", ErrBadPartial, err)
	}
	delete(job.leases, p.Lo)
	job.released.Broadcast()
	job.cursor.MarkPending(p.Lo)
	job.pending[p.Lo] = p.Points
	job.sinceCkpt += len(p.Points)
	// Cascade: fold every range now sitting at the prefix, replaying
	// records in exactly the order a sequential run adds them.
	for {
		lo, _, ok := job.cursor.NextFoldable()
		if !ok {
			break
		}
		for _, rec := range job.pending[lo] {
			rec.Job = job.id
			job.agg.AddRecord(rec)
			job.publishLocked(rec)
		}
		delete(job.pending, lo)
		job.cursor.Fold(lo)
	}
	done := job.cursor.Complete()
	ckpt := !done && job.sinceCkpt >= m.cfg.CheckpointEvery && m.intervalElapsed(&job.lastCkpt)
	if ckpt {
		job.sinceCkpt = 0
	}
	job.mu.Unlock()

	if done {
		m.finishJob(job, StateDone, nil)
	} else if ckpt {
		if err := m.checkpointJob(job); err != nil {
			m.finishJob(job, StateFailed, err)
		}
	}
	return nil
}

// checkRange requires [lo, hi) to be a range of c's partition and recs to
// hold exactly its records, indices lo…hi−1 in order — of a partial and of
// a checkpoint's pending range alike.
func checkRange(c *stats.RangeCursor, lo, hi int, recs []PointRecord) error {
	if end, ok := c.Bounds(lo); !ok || end != hi {
		return fmt.Errorf("[%d,%d) is not a partition range", lo, hi)
	}
	if len(recs) != hi-lo {
		return fmt.Errorf("%d points for range [%d,%d)", len(recs), lo, hi)
	}
	for i := range recs {
		if recs[i].Index != lo+i {
			return fmt.Errorf("point %d carries index %d", lo+i, recs[i].Index)
		}
	}
	return nil
}

// runExecutor is one in-process executor: it leases ranges through the
// same grant and completion path an outside worker's requests take and
// runs each with RunRange on its own goroutine, so a range it takes
// never crosses the wire.
func (m *Manager) runExecutor(worker string) {
	defer m.wg.Done()
	for {
		job, grant, ok := m.nextLease(worker)
		if !ok {
			return
		}
		p := Partial{LeaseID: grant.LeaseID, Worker: worker, Lo: grant.Lo, Hi: grant.Hi}
		tp, err := job.topology()
		if err == nil {
			p.Points, err = RunRange(job.ctx, m.cfg.Engine, 1, job.id, job.spec, tp, grant.Lo, grant.Hi, m.cfg.Observe)
		}
		if err != nil {
			if job.ctx.Err() != nil {
				// Cancelled, failed elsewhere or draining: the range goes
				// the way of the job's other leases.
				continue
			}
			p.Err = err.Error()
		}
		_ = m.completeLease(job, p)
	}
}

// nextLease blocks until a live job grants a range, or the manager
// closes. It scans the plain jobs before the sharded ones, each in
// submission order: outside workers may serve a sharded job, a plain one
// has only these executors. A freed executor thus stays on the earliest
// plain job with an open range, and moves to the next one only when
// that job has none. Scanning under m.mu makes scan-then-wait atomic
// against every event that can open work — a submission, the tick —
// since each broadcasts under m.mu.
func (m *Manager) nextLease(worker string) (*Job, LeaseGrant, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for !m.closed {
		for _, sharded := range [...]bool{false, true} {
			for _, job := range m.live {
				if job.sharded != sharded {
					continue
				}
				if grant, err := m.leaseJob(job, worker, true); err == nil {
					return job, grant, true
				}
			}
		}
		m.wake.Wait()
	}
	return nil, LeaseGrant{}, false
}

// topology compiles the job's topology once; every in-process range of
// the job shares it, so a small lease size does not recompile the plan
// per range.
func (j *Job) topology() (bftbcast.Topology, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.ctx.Err(); err != nil {
		return nil, err // the job stopped serving; do not pin a topology for it
	}
	if j.topo == nil {
		tp, err := bftbcast.NewTopology(j.spec.Base.Topology)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", bftbcast.ErrBadSpec, err)
		}
		j.topo = tp
	}
	return j.topo, nil
}

// RunRange expands and executes points [lo, hi) of spec on tp and
// returns their records in point order — the worker half of the lease
// protocol, shared by the in-process executors and the remote -worker
// mode of cmd/bftsimd. It runs the points one after another on the
// calling goroutine, so workers must be 1: a range is one executor's
// serial work, and parallelism comes from running many ranges at once.
// A built-in engine runs each point tallies-only (countsEngine), since a
// PointRecord drops the Report's per-node state; any other Engine goes
// through Run. observe, when non-nil, is attached to every point (a test
// seam for asserting a range is computed once).
func RunRange(ctx context.Context, eng bftbcast.Engine, workers int, jobID string, spec *bftbcast.GridSpec, tp bftbcast.Topology, lo, hi int, observe func(jobID string, index int) bftbcast.Observer) ([]PointRecord, error) {
	if workers != 1 {
		return nil, fmt.Errorf("jobs: RunRange runs its points serially, workers must be 1 (got %d)", workers)
	}
	scenarios, err := spec.ScenariosOn(tp, lo, hi)
	if err != nil {
		return nil, err
	}
	if eng == nil {
		eng = bftbcast.EngineFast
	}
	counts, _ := eng.(countsEngine)
	recs := make([]PointRecord, hi-lo)
	for i, sc := range scenarios {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if observe != nil {
			if sc, err = sc.With(bftbcast.WithObserver(observe(jobID, lo+i))); err != nil {
				return nil, err
			}
		}
		pt := bftbcast.SweepPoint{Index: lo + i}
		if counts != nil {
			var rep bftbcast.Report
			rep, err = counts.RunCounts(ctx, sc)
			pt.Report = &rep
		} else {
			pt.Report, err = eng.Run(ctx, sc)
		}
		if err != nil {
			return nil, err
		}
		recs[i] = pointRecord(jobID, pt)
	}
	return recs, nil
}

// countsEngine is the tallies-only run the built-in engines offer next to
// Engine.Run: the same Report less its per-node state, which a
// PointRecord drops anyway.
type countsEngine interface {
	RunCounts(ctx context.Context, sc *bftbcast.Scenario) (bftbcast.Report, error)
}
