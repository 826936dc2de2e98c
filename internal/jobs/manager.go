package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bftbcast"
	"bftbcast/internal/stats"
)

var (
	// ErrQueueFull is Submit's backpressure signal: MaxQueue jobs are
	// already waiting and the client should retry later (HTTP 503).
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrClosed rejects submissions to a draining or closed manager.
	ErrClosed = errors.New("jobs: manager closed")
	// ErrUnknownJob reports a job ID the manager has no record of.
	ErrUnknownJob = errors.New("jobs: unknown job")
)

// Config configures a Manager. The zero value of every field is a
// usable default except Dir, which is required.
type Config struct {
	// Dir is the checkpoint directory, one JSON file per job; created if
	// missing. A manager opened on a previous manager's Dir resumes its
	// non-terminal jobs.
	Dir string
	// Engine executes the points (nil means bftbcast.EngineFast).
	Engine bftbcast.Engine
	// Workers is the number of in-process executors that lease ranges of
	// non-sharded jobs (<= 0 means NumCPU). They never lease a sharded
	// job.
	Workers int
	// MaxQueue bounds the non-sharded jobs waiting for their first
	// range; Submit fails with ErrQueueFull beyond it (<= 0 means 64).
	MaxQueue int
	// MaxRunning bounds the admission window: only the first MaxRunning
	// non-sharded jobs in submission order are leasable (<= 0 means 1:
	// strict FIFO).
	MaxRunning int
	// CheckpointEvery is the checkpoint cadence in completed points
	// (<= 0 means 64). A crash recomputes the ranges in flight plus at
	// most this many completed points.
	CheckpointEvery int
	// CheckpointInterval coalesces mid-run checkpoint fsyncs: once the
	// CheckpointEvery point count is reached, the write still waits
	// until this much wall time has passed since the last one (0 means
	// 250ms; negative disables coalescing — pure count cadence). Fast
	// jobs stop paying an fsync per CheckpointEvery points; the crash
	// recompute bound loosens to the points done in one interval.
	CheckpointInterval time.Duration
	// ShardExecutors runs this many in-process executors that lease
	// ranges of sharded jobs, next to whatever remote workers pull them
	// (0 means none).
	ShardExecutors int
	// Retain, when > 0, bounds how many terminal jobs are kept: the
	// retention sweep deletes the oldest-finished checkpoints beyond it.
	Retain int
	// RetainAge, when > 0, expires terminal jobs finished longer ago
	// than this. Retain and RetainAge compose; either alone works.
	RetainAge time.Duration
	// Now is the manager's clock (nil means time.Now) — a test seam for
	// lease expiry and retention aging.
	Now func() time.Time
	// Observe, when set, attaches Observe(jobID, pointIndex) as the
	// Observer of every point the manager actually runs — a test seam
	// for asserting that resumed jobs recompute no completed point.
	Observe func(jobID string, index int) bftbcast.Observer
}

func (c *Config) fill() error {
	if c.Dir == "" {
		return errors.New("jobs: Config.Dir is required")
	}
	if c.Engine == nil {
		c.Engine = bftbcast.EngineFast
	}
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.MaxRunning <= 0 {
		c.MaxRunning = 1
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 64
	}
	if c.CheckpointInterval == 0 {
		c.CheckpointInterval = 250 * time.Millisecond
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return nil
}

// localLeasePoints derives the range size of a non-sharded job from its
// point count: about eight ranges per executor, so a handful of heavy
// points still spreads over all Workers and the tail of a grid stays
// short, capped at the sharded default of 64 so a large grid's ranges
// stay small units of recompute.
func (c *Config) localLeasePoints(total int) int {
	return min(max(total/(8*c.Workers), 1), 64)
}

// Manager owns the jobs, the checkpoint directory and the in-process
// executors. Open it, Submit jobs, and Close it to drain.
type Manager struct {
	cfg        Config
	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu   sync.Mutex
	wake *sync.Cond // idle executors wait here; see nextLease
	jobs map[string]*Job
	// live holds the non-terminal jobs in submission order. It is the
	// queue (MaxQueue counts its non-sharded entries still waiting for a
	// first range), the admission window (its first MaxRunning
	// non-sharded entries are leasable) and the executors' scan list.
	live    []*Job
	nextSeq uint64
	closed  bool

	// ckptWrites counts checkpoint files written — the coalescing
	// tests' observation seam.
	ckptWrites atomic.Int64

	wg      sync.WaitGroup
	drained chan struct{} // closed once Close has parked every live job
}

// now reads the manager's clock.
func (m *Manager) now() time.Time { return m.cfg.Now() }

// intervalElapsed reports whether enough wall time passed since *last
// for another mid-run checkpoint, advancing *last when so. A negative
// CheckpointInterval disables coalescing.
func (m *Manager) intervalElapsed(last *time.Time) bool {
	if m.cfg.CheckpointInterval < 0 {
		return true
	}
	now := m.now()
	if now.Sub(*last) < m.cfg.CheckpointInterval {
		return false
	}
	*last = now
	return true
}

// Open creates (or reopens) a manager on cfg.Dir. Checkpointed jobs
// are reloaded: terminal jobs stay queryable, and non-terminal jobs go
// back on the live list in their original submission order, each
// resuming at its checkpointed fold cursor and reorder buffer.
func Open(cfg Config) (*Manager, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: checkpoint dir: %w", err)
	}
	cps, err := readCheckpoints(cfg.Dir)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:        cfg,
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*Job),
		drained:    make(chan struct{}),
	}
	m.wake = sync.NewCond(&m.mu)
	for _, cp := range cps {
		job, err := m.restoreJob(cp)
		if err != nil {
			cancel()
			return nil, err
		}
		m.jobs[cp.ID] = job
		if !cp.State.Terminal() {
			m.live = append(m.live, job)
		}
		if cp.Seq >= m.nextSeq {
			m.nextSeq = cp.Seq + 1
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.runExecutor(fmt.Sprintf("local-%d", i), false)
	}
	for i := 0; i < cfg.ShardExecutors; i++ {
		m.wg.Add(1)
		go m.runExecutor(fmt.Sprintf("exec-%d", i), true)
	}
	if cfg.ShardExecutors > 0 || cfg.Retain > 0 || cfg.RetainAge > 0 {
		m.wg.Add(1)
		go m.tick()
	}
	return m, nil
}

// restoreJob rebuilds a job from its checkpoint. A terminal record loads
// as it is. A non-terminal one gets its range state back: the fold
// cursor at the aggregate's offset plus the out-of-order completed
// ranges. Leases are not restored — open ranges are simply re-issued,
// and late partials from pre-restart leases still fold because
// completion is keyed by range.
func (m *Manager) restoreJob(cp *checkpoint) (*Job, error) {
	if cp.Aggregate == nil {
		cp.Aggregate = NewAggregate()
	}
	spec, err := bftbcast.DecodeGridSpec(cp.Spec)
	if err != nil {
		return nil, fmt.Errorf("jobs: checkpoint %s holds an invalid spec: %w", cp.ID, err)
	}
	total := spec.NPoints()
	sc := cp.Shard
	if sc == nil {
		// Legacy rule: a record without a shard block comes from a daemon
		// that streamed non-sharded jobs point by point and resumed them
		// at Aggregate.Done, an offset with no place on a range grid. An
		// unfinished one restarts at point 0 on a fresh aggregate; every
		// point is deterministic, so it ends on the same bytes.
		sc = &shardCheckpoint{LeasePoints: m.cfg.localLeasePoints(total), Local: true}
		if !cp.State.Terminal() {
			cp.Aggregate = NewAggregate()
		}
	}
	if sc.LeasePoints <= 0 {
		return nil, fmt.Errorf("jobs: checkpoint %s: bad lease geometry %d", cp.ID, sc.LeasePoints)
	}
	job := &Job{
		id:       cp.ID,
		seq:      cp.Seq,
		spec:     spec,
		specJSON: append(json.RawMessage(nil), cp.Spec...),
		total:    total,
		sharded:  !sc.Local,
		opts:     ShardOptions{LeasePoints: sc.LeasePoints, LeaseTTL: time.Duration(sc.LeaseTTLMS) * time.Millisecond},
		state:    cp.State,
		agg:      cp.Aggregate,
		errMsg:   cp.Err,
		finished: make(chan struct{}),
	}
	if cp.FinishedNS > 0 {
		job.finishedAt = time.Unix(0, cp.FinishedNS)
	}
	if cp.State.Terminal() {
		close(job.finished)
		return job, nil
	}
	m.openRanges(job)
	done := int(cp.Aggregate.Done)
	if done < 0 || done > total || (done%sc.LeasePoints != 0 && done != total) {
		return nil, fmt.Errorf("jobs: checkpoint %s: fold cursor %d off the range grid", cp.ID, done)
	}
	job.cursor.Done = done
	for _, pr := range sc.Pending {
		if checkRange(&job.cursor, pr.Lo, pr.Hi, pr.Points) != nil || !job.cursor.MarkPending(pr.Lo) {
			return nil, fmt.Errorf("jobs: checkpoint %s: bad pending range [%d,%d)", cp.ID, pr.Lo, pr.Hi)
		}
		job.pending[pr.Lo] = pr.Points
	}
	return job, nil
}

// openRanges gives a non-terminal job what it serves leases from: the
// range partition of its point list, an empty reorder buffer and lease
// table, and the context its in-process ranges run under. A sharded job
// is lease-serving from the first request; the others turn running on
// their first grant.
func (m *Manager) openRanges(job *Job) {
	job.opts.fill()
	job.cursor = stats.NewRangeCursor(job.total, job.opts.LeasePoints)
	job.pending = make(map[int][]PointRecord)
	job.leases = make(map[int]*lease)
	job.ctx, job.cancel = context.WithCancel(m.baseCtx)
	job.lastCkpt = m.now()
	job.state = StateQueued
	if job.sharded {
		job.state = StateRunning
	}
}

// tick is the lease/retention heartbeat: it wakes idle shard executors
// (an expired outside lease only reopens lazily, on the next lease scan)
// and runs the retention sweep, once a second until the manager closes.
func (m *Manager) tick() {
	defer m.wg.Done()
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-m.baseCtx.Done():
			return
		case <-t.C:
			m.mu.Lock()
			m.wake.Broadcast()
			m.mu.Unlock()
			m.sweepRetention()
		}
	}
}

// Submit validates the grid, persists it as a queued checkpoint and
// puts it on the live list for the manager's own Workers executors:
// they lease its ranges once it is inside the admission window. The
// spec document is re-encoded and owned by the job; the caller's
// GridSpec is not retained. Fails with ErrQueueFull when MaxQueue jobs
// are already waiting and ErrClosed on a draining manager; validation
// failures pass through the spec's typed errors (bftbcast.ErrBadSpec
// et al.).
func (m *Manager) Submit(spec *bftbcast.GridSpec) (*Job, error) {
	return m.submit(spec, ShardOptions{}, false)
}

// SubmitSharded validates and persists a grid like Submit, but opens
// its ranges to external workers: the job bypasses the queue and the
// admission window and immediately serves leases over the lease
// endpoints (and to ShardExecutors). It completes when the last range
// folds, however many workers pulled the leases.
func (m *Manager) SubmitSharded(spec *bftbcast.GridSpec, opts ShardOptions) (*Job, error) {
	return m.submit(spec, opts, true)
}

// submit is the one submission path; sharded says who may lease the job
// and, when false, opts is derived from the grid.
func (m *Manager) submit(spec *bftbcast.GridSpec, opts ShardOptions, sharded bool) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	doc, err := spec.Encode()
	if err != nil {
		return nil, fmt.Errorf("%w: %w", bftbcast.ErrBadSpec, err)
	}
	// Decode the job's own copy so later caller mutations cannot reach
	// the queued job.
	owned, err := bftbcast.DecodeGridSpec(doc)
	if err != nil {
		return nil, err
	}
	total := owned.NPoints()
	if !sharded {
		opts = ShardOptions{LeasePoints: m.cfg.localLeasePoints(total)}
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	if !sharded && m.queuedLocked() >= m.cfg.MaxQueue {
		m.mu.Unlock()
		return nil, ErrQueueFull
	}
	id, err := m.newIDLocked()
	if err != nil {
		m.mu.Unlock()
		return nil, err
	}
	job := &Job{
		id:       id,
		seq:      m.nextSeq,
		spec:     owned,
		specJSON: doc,
		total:    total,
		sharded:  sharded,
		opts:     opts,
		agg:      NewAggregate(),
		finished: make(chan struct{}),
	}
	m.openRanges(job)
	m.nextSeq++
	m.jobs[id] = job
	m.mu.Unlock()

	// Persist before any executor can see the job, so an accepted
	// submission survives an immediate crash.
	if err := m.checkpointJob(job); err != nil {
		job.cancel()
		m.mu.Lock()
		delete(m.jobs, id)
		m.mu.Unlock()
		return nil, err
	}

	m.mu.Lock()
	m.live = append(m.live, job)
	m.wake.Broadcast()
	m.mu.Unlock()
	return job, nil
}

// queuedLocked counts the non-sharded live jobs no executor has leased
// from yet; m.mu is held.
func (m *Manager) queuedLocked() int {
	n := 0
	for _, job := range m.live {
		job.mu.Lock()
		if job.state == StateQueued {
			n++
		}
		job.mu.Unlock()
	}
	return n
}

// Get returns a job by ID.
func (m *Manager) Get(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	job, ok := m.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return job, nil
}

// Jobs returns every known job in submission order.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	out := make([]*Job, 0, len(m.jobs))
	for _, job := range m.jobs {
		out = append(out, job)
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// Cancel terminates a job as cancelled, whether or not a range of it was
// ever leased; its in-process ranges stop through the job's context.
// Cancelling a terminal job is a no-op.
func (m *Manager) Cancel(id string) error {
	job, err := m.Get(id)
	if err != nil {
		return err
	}
	m.finishJob(job, StateCancelled, nil)
	return nil
}

// Close drains the manager: no new submissions or lease traffic, the
// in-process executors are interrupted, and every live job is parked
// back to queued — its checkpoint records the folded prefix and the
// reorder buffer, so the next Open resumes it without recomputing a
// completed range. Close returns when the drain finishes or ctx fires
// (the drain keeps finishing in the background either way).
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	first := !m.closed
	m.closed = true
	m.wake.Broadcast()
	m.mu.Unlock()
	if first {
		m.baseCancel()
		go func() {
			// Once the executors have stopped, nothing folds any more
			// (closed refuses outside partials), so what is parked is final.
			m.wg.Wait()
			m.mu.Lock()
			live := append([]*Job(nil), m.live...)
			m.mu.Unlock()
			for _, job := range live {
				m.parkJob(job)
			}
			close(m.drained)
		}()
	}
	select {
	case <-m.drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// finishJob moves a job to a terminal state, ends its live tails, stops
// its in-process ranges, takes it off the live list, checkpoints the
// final record and only then releases Wait, so a waiter finds the
// terminal record on disk. Idempotent: a final-range fold can race
// Cancel, and only the first finisher wins.
func (m *Manager) finishJob(job *Job, state State, runErr error) {
	job.mu.Lock()
	if job.state.Terminal() {
		job.mu.Unlock()
		return
	}
	job.state = state
	job.finishedAt = m.now()
	if runErr != nil {
		job.errMsg = runErr.Error()
	}
	job.stopServingLocked()
	job.mu.Unlock()
	job.cancel()

	m.mu.Lock()
	if i := slices.Index(m.live, job); i >= 0 {
		m.live = slices.Delete(m.live, i, i+1)
	}
	// The admission window moved: the next queued job may be leasable.
	m.wake.Broadcast()
	m.mu.Unlock()
	// The terminal checkpoint is best-effort: the in-memory state is
	// already final, and a write failure here must not wedge the job or
	// its waiters.
	_ = m.checkpointJob(job)
	close(job.finished)
}

// parkJob returns a drain-interrupted job to the queued state on disk
// and in memory — not terminal, so the next Open resumes it — with its
// reorder buffer in the record.
func (m *Manager) parkJob(job *Job) {
	job.mu.Lock()
	if job.state.Terminal() {
		job.mu.Unlock()
		return
	}
	job.state = StateQueued
	job.mu.Unlock()
	_ = m.checkpointJob(job)
	job.mu.Lock()
	job.stopServingLocked()
	job.mu.Unlock()
}

// stopServingLocked ends the job's live tails and releases what only a
// lease-serving job needs — the reorder buffer, the lease table and the
// compiled topology (hundreds of MB on a large RGG), none of which may
// stay pinned for as long as the record is retained; j.mu is held.
func (j *Job) stopServingLocked() {
	j.closeSubsLocked()
	j.cursor.Pending, j.pending, j.leases, j.topo = nil, nil, nil, nil
}

// checkpointJob atomically persists the job's current record. Callers
// race (concurrent CompleteLease calls, a final fold against Cancel), so
// each snapshot takes a generation under job.mu — generations order the
// snapshots exactly as the state they captured — and the write itself is
// serialised per job: a snapshot that reaches the writer after a newer
// one has been committed is dropped, never renamed over it, so the file
// only ever moves forward and a terminal record stays terminal.
func (m *Manager) checkpointJob(job *Job) error {
	job.mu.Lock()
	job.ckptGen++
	gen := job.ckptGen
	// Marshal under the lock: the aggregate mutates as points land.
	data, err := json.Marshal(job.recordLocked())
	job.mu.Unlock()
	if err != nil {
		return fmt.Errorf("jobs: encode checkpoint %s: %w", job.id, err)
	}
	job.ckptMu.Lock()
	defer job.ckptMu.Unlock()
	if gen < job.ckptOnDisk {
		return nil
	}
	m.ckptWrites.Add(1)
	if err := writeCheckpointBytes(m.cfg.Dir, job.id, data); err != nil {
		return err
	}
	job.ckptOnDisk = gen
	return nil
}

// recordLocked is the job's checkpoint record as it stands, sharing the
// live aggregate and range records; j.mu is held until it is marshalled.
func (j *Job) recordLocked() *checkpoint {
	sc := &shardCheckpoint{
		LeasePoints: j.opts.LeasePoints,
		LeaseTTLMS:  j.opts.LeaseTTL.Milliseconds(),
		Local:       !j.sharded,
	}
	for _, lo := range j.cursor.Pending {
		hi, _ := j.cursor.Bounds(lo)
		sc.Pending = append(sc.Pending, pendingRange{Lo: lo, Hi: hi, Points: j.pending[lo]})
	}
	cp := &checkpoint{
		ID:        j.id,
		Seq:       j.seq,
		State:     j.state,
		Total:     j.total,
		Spec:      j.specJSON,
		Err:       j.errMsg,
		Aggregate: j.agg,
		Shard:     sc,
	}
	if !j.finishedAt.IsZero() {
		cp.FinishedNS = j.finishedAt.UnixNano()
	}
	return cp
}

// newIDLocked mints a fresh job ID; m.mu is held.
func (m *Manager) newIDLocked() (string, error) {
	for {
		var b [6]byte
		if _, err := rand.Read(b[:]); err != nil {
			return "", fmt.Errorf("jobs: mint job ID: %w", err)
		}
		id := "j" + hex.EncodeToString(b[:])
		if _, taken := m.jobs[id]; !taken {
			return id, nil
		}
	}
}
