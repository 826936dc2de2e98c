package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bftbcast"
)

var (
	// ErrQueueFull is Submit's backpressure signal: the pending queue is
	// at capacity and the client should retry later (HTTP 503).
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
	// Engine executes the sweeps (nil means bftbcast.EngineFast).
	Engine bftbcast.Engine
	// Workers is the sweep worker-pool size (<= 0 means NumCPU).
	Workers int
	// MaxQueue bounds the pending queue; Submit fails with ErrQueueFull
	// beyond it (<= 0 means 64).
	MaxQueue int
	// MaxRunning bounds the in-flight window (<= 0 means 1: strict FIFO).
	MaxRunning int
	// CheckpointEvery is the checkpoint cadence in completed points
	// (<= 0 means 64). A crash recomputes at most this many points.
	CheckpointEvery int
	// StreamBuffer bounds each running sweep's result channel (<= 0
	// means 16), keeping a job's undrained-report retention constant.
	StreamBuffer int
	// CheckpointInterval coalesces mid-run checkpoint fsyncs: once the
	// CheckpointEvery point count is reached, the write still waits
	// until this much wall time has passed since the last one (0 means
	// 250ms; negative disables coalescing — pure count cadence). Fast
	// jobs stop paying an fsync per CheckpointEvery points; the crash
	// recompute bound loosens to the points done in one interval.
	CheckpointInterval time.Duration
	// ShardExecutors runs this many in-process lease executors: local
	// workers that pull ranges of sharded jobs through the same lease
	// protocol remote daemons use, giving one multi-core box grid-level
	// scaling through a single code path (0 means none).
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
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.MaxRunning <= 0 {
		c.MaxRunning = 1
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 64
	}
	if c.StreamBuffer <= 0 {
		c.StreamBuffer = 16
	}
	if c.CheckpointInterval == 0 {
		c.CheckpointInterval = 250 * time.Millisecond
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return nil
}

// Manager owns the job queue, the checkpoint directory and the
// scheduler. Open it, Submit jobs, and Close it to drain.
type Manager struct {
	cfg        Config
	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu        sync.Mutex
	cond      *sync.Cond
	shardCond *sync.Cond // wakes idle shard executors
	shardGen  uint64     // bumped whenever shard work may have appeared
	jobs      map[string]*Job
	queue     []*Job
	nextSeq   uint64
	running   int
	closed    bool

	// ckptWrites counts checkpoint files written — the coalescing
	// tests' observation seam.
	ckptWrites atomic.Int64

	wg        sync.WaitGroup
	schedDone chan struct{}
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
// are reloaded: terminal jobs stay queryable, and queued or running
// jobs are re-enqueued in their original submission order, each
// resuming at its checkpointed offset.
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
		schedDone:  make(chan struct{}),
	}
	m.cond = sync.NewCond(&m.mu)
	m.shardCond = sync.NewCond(&m.mu)
	for _, cp := range cps {
		spec, err := bftbcast.DecodeGridSpec(cp.Spec)
		if err != nil {
			cancel()
			return nil, fmt.Errorf("jobs: checkpoint %s holds an invalid spec: %w", cp.ID, err)
		}
		job := &Job{
			id:       cp.ID,
			seq:      cp.Seq,
			spec:     spec,
			specJSON: append(json.RawMessage(nil), cp.Spec...),
			total:    spec.NPoints(),
			m:        m,
			state:    cp.State,
			agg:      cp.Aggregate,
			errMsg:   cp.Err,
			finished: make(chan struct{}),
		}
		if cp.FinishedNS > 0 {
			job.finishedAt = time.Unix(0, cp.FinishedNS)
		}
		if cp.Shard != nil {
			if err := restoreShard(job, cp); err != nil {
				cancel()
				return nil, err
			}
		}
		switch {
		case cp.State.Terminal():
			close(job.finished)
		case job.shard != nil:
			// A sharded job resumes serving leases immediately — it never
			// sits in the FIFO queue; workers pulling ranges drive it.
			job.state = StateRunning
		default:
			// A job checkpointed as running died with its daemon; it is
			// queued again and resumes at its aggregate's offset.
			job.state = StateQueued
			m.queue = append(m.queue, job)
		}
		m.jobs[cp.ID] = job
		if cp.Seq >= m.nextSeq {
			m.nextSeq = cp.Seq + 1
		}
	}
	go m.schedule()
	for i := 0; i < cfg.ShardExecutors; i++ {
		m.wg.Add(1)
		go m.runExecutor(i)
	}
	if cfg.ShardExecutors > 0 || cfg.Retain > 0 || cfg.RetainAge > 0 {
		m.wg.Add(1)
		go m.tick()
	}
	return m, nil
}

// restoreShard rebuilds a sharded job's coordinator state from its
// checkpoint: the fold cursor at the aggregate's offset plus the
// out-of-order completed ranges. Leases are not restored — open ranges
// are simply re-issued, and late partials from pre-restart leases
// still fold because completion is keyed by range.
func restoreShard(job *Job, cp *checkpoint) error {
	opts := ShardOptions{
		LeasePoints: cp.Shard.LeasePoints,
		LeaseTTL:    time.Duration(cp.Shard.LeaseTTLMS) * time.Millisecond,
	}
	if opts.LeasePoints <= 0 {
		return fmt.Errorf("jobs: checkpoint %s: bad lease geometry %d", cp.ID, opts.LeasePoints)
	}
	sh := newShardState(job.total, opts)
	done := int(cp.Aggregate.Done)
	if done < 0 || done > job.total || (done%sh.opts.LeasePoints != 0 && done != job.total) {
		return fmt.Errorf("jobs: checkpoint %s: fold cursor %d off the range grid", cp.ID, done)
	}
	sh.cursor.Done = done
	for _, pr := range cp.Shard.Pending {
		if !sh.cursor.MarkPending(pr.Lo) || len(pr.Points) != pr.Hi-pr.Lo {
			return fmt.Errorf("jobs: checkpoint %s: bad pending range [%d,%d)", cp.ID, pr.Lo, pr.Hi)
		}
		sh.pending[pr.Lo] = pr.Points
	}
	job.shard = sh
	return nil
}

// tick is the shard/retention heartbeat: it wakes idle executors (an
// expired lease only reopens lazily, on the next lease scan) and runs
// the retention sweep, once a second until the manager closes.
func (m *Manager) tick() {
	defer m.wg.Done()
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-m.baseCtx.Done():
			return
		case <-t.C:
			m.shardWake()
			m.sweepRetention()
		}
	}
}

// Submit validates the grid, persists it as a queued checkpoint and
// enqueues it. The spec document is re-encoded and owned by the job;
// the caller's GridSpec is not retained. Fails with ErrQueueFull when
// the pending queue is at capacity and ErrClosed on a draining
// manager; validation failures pass through the spec's typed errors
// (bftbcast.ErrBadSpec et al.).
func (m *Manager) Submit(spec *bftbcast.GridSpec) (*Job, error) {
	return m.submit(spec, nil)
}

// submit is the shared submission path; a non-nil shard opens the job
// in sharded (lease-serving) mode instead of the FIFO queue.
func (m *Manager) submit(spec *bftbcast.GridSpec, shard *ShardOptions) (*Job, error) {
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

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	if shard == nil && len(m.queue) >= m.cfg.MaxQueue {
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
		total:    owned.NPoints(),
		m:        m,
		state:    StateQueued,
		agg:      NewAggregate(),
		finished: make(chan struct{}),
	}
	if shard != nil {
		job.shard = newShardState(job.total, *shard)
		job.state = StateRunning // lease-serving from the first request
	}
	m.nextSeq++
	m.jobs[id] = job
	m.mu.Unlock()

	// Persist before the scheduler can see the job, so an accepted
	// submission survives an immediate crash.
	if err := m.checkpointJob(job); err != nil {
		m.mu.Lock()
		delete(m.jobs, id)
		m.mu.Unlock()
		return nil, err
	}

	m.mu.Lock()
	if shard == nil {
		m.queue = append(m.queue, job)
		m.cond.Signal()
	} else {
		m.shardGen++
		m.shardCond.Broadcast()
	}
	m.mu.Unlock()
	if shard != nil && job.total == 0 {
		// A degenerate empty grid has no range to lease; finish it here.
		m.finishJob(job, StateDone, nil)
	}
	return job, nil
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

// Cancel terminates a job: a queued job is removed from the queue and
// finalized immediately, a running one has its context cancelled (the
// runner finalizes it). Cancelling a terminal job is a no-op.
func (m *Manager) Cancel(id string) error {
	m.mu.Lock()
	job, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	for i, q := range m.queue {
		if q == job {
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
			break
		}
	}
	m.mu.Unlock()

	job.mu.Lock()
	if job.state.Terminal() {
		job.mu.Unlock()
		return nil
	}
	job.userCancel = true
	if cancel := job.cancel; cancel != nil {
		job.mu.Unlock()
		cancel()
		return nil
	}
	job.mu.Unlock()
	m.finishJob(job, StateCancelled, nil)
	return nil
}

// Close drains the manager: no new submissions, the scheduler stops,
// and running jobs are interrupted and parked back to queued — their
// checkpoints record the completed prefix, so the next Open resumes
// them without recomputing a completed point. Close returns when the
// drain finishes or ctx fires (the drain keeps finishing in the
// background either way).
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
	} else {
		m.closed = true
		m.cond.Broadcast()
		m.shardCond.Broadcast()
		m.mu.Unlock()
		m.baseCancel()
	}
	done := make(chan struct{})
	go func() {
		<-m.schedDone
		m.wg.Wait()
		// Sharded jobs have no runner to park them: once the executors
		// and any remote partial folds have stopped (closed rejects
		// CompleteLease), park each live one so its reorder buffer
		// survives to the next Open.
		m.mu.Lock()
		sharded := m.shardedJobsLocked()
		m.mu.Unlock()
		for _, job := range sharded {
			job.mu.Lock()
			terminal := job.state.Terminal()
			job.mu.Unlock()
			if !terminal {
				m.parkJob(job)
			}
		}
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// schedule is the FIFO dispatcher: it launches queue heads while the
// in-flight window has room and exits when the manager closes.
func (m *Manager) schedule() {
	defer close(m.schedDone)
	for {
		m.mu.Lock()
		for !m.closed && (m.running >= m.cfg.MaxRunning || len(m.queue) == 0) {
			m.cond.Wait()
		}
		if m.closed {
			m.mu.Unlock()
			return
		}
		job := m.queue[0]
		m.queue[0] = nil
		m.queue = m.queue[1:]
		m.running++
		m.wg.Add(1)
		m.mu.Unlock()
		go func() {
			defer m.wg.Done()
			m.runJob(job)
			m.mu.Lock()
			m.running--
			m.cond.Signal()
			m.mu.Unlock()
		}()
	}
}

// runJob executes one job from its resume offset to a terminal state
// (or parks it when the manager drains).
func (m *Manager) runJob(job *Job) {
	ctx, cancel := context.WithCancel(m.baseCtx)
	defer cancel()

	job.mu.Lock()
	if job.state.Terminal() {
		// Cancelled in the gap between dequeue and start.
		job.mu.Unlock()
		return
	}
	job.state = StateRunning
	job.cancel = cancel
	skip := int(job.agg.Done)
	job.mu.Unlock()

	if err := m.checkpointJob(job); err != nil {
		m.finishJob(job, StateFailed, err)
		return
	}

	// Expand only the tail still to run — a deep resume of a large grid
	// does not pay for the completed prefix's scenarios.
	scenarios, err := job.spec.Scenarios(skip, job.total)
	if err != nil {
		m.finishJob(job, StateFailed, err)
		return
	}
	if m.cfg.Observe != nil {
		for i := range scenarios {
			sc, err := scenarios[i].With(bftbcast.WithObserver(m.cfg.Observe(job.id, skip+i)))
			if err != nil {
				m.finishJob(job, StateFailed, err)
				return
			}
			scenarios[i] = sc
		}
	}

	sweep := &bftbcast.Sweep{
		Engine:    m.cfg.Engine,
		Workers:   m.cfg.Workers,
		Scenarios: scenarios,
		Buffer:    m.cfg.StreamBuffer,
	}
	stream := sweep.Stream(ctx)
	var runErr error
	since, received := 0, 0
	lastCkpt := m.now()
	for pt := range stream {
		if pt.Err != nil {
			runErr = pt.Err
			break
		}
		pt.Index += skip // job-global point index
		rec := pointRecord(job.id, pt)
		job.mu.Lock()
		job.agg.Add(pt.Report)
		job.publishLocked(rec)
		job.mu.Unlock()
		received++
		since++
		if since >= m.cfg.CheckpointEvery && m.intervalElapsed(&lastCkpt) {
			since = 0
			if err := m.checkpointJob(job); err != nil {
				runErr = err
				break
			}
		}
	}
	if runErr != nil {
		// The bounded stream's abandonment contract: cancel, then drain
		// whatever the emitter still delivers so it shuts down cleanly.
		cancel()
		for range stream {
		}
	}

	job.mu.Lock()
	user := job.userCancel
	job.mu.Unlock()
	switch {
	case runErr == nil && received == len(scenarios):
		m.finishJob(job, StateDone, nil)
	case user:
		m.finishJob(job, StateCancelled, nil)
	case m.baseCtx.Err() != nil:
		m.parkJob(job)
	case runErr != nil:
		m.finishJob(job, StateFailed, runErr)
	default:
		// A bounded stream may close short without an error point when
		// its ctx is cancelled mid-delivery (the emitter drops instead
		// of parking); the user/drain cases above own that. Reaching
		// here means the stream ended early with no cancellation in
		// sight — fail loudly rather than record a partial job as done.
		m.finishJob(job, StateFailed,
			fmt.Errorf("jobs: stream ended after %d of %d points", received, len(scenarios)))
	}
}

// finishJob moves a job to a terminal state, ends its live tails and
// checkpoints the final record. Idempotent: the sharded path can race
// a final-range fold against Cancel, and only the first finisher wins.
func (m *Manager) finishJob(job *Job, state State, runErr error) {
	job.mu.Lock()
	if job.state.Terminal() {
		job.mu.Unlock()
		return
	}
	job.state = state
	job.cancel = nil
	job.finishedAt = m.now()
	if runErr != nil {
		job.errMsg = runErr.Error()
	}
	job.closeSubsLocked()
	close(job.finished)
	job.mu.Unlock()
	// The terminal checkpoint is best-effort: the in-memory state is
	// already final, and a write failure here must not wedge the job.
	_ = m.checkpointJob(job)
}

// parkJob returns a drain-interrupted job to the queued state on disk
// and in memory — not terminal, so the next Open resumes it. Its live
// tails end (the process is going away).
func (m *Manager) parkJob(job *Job) {
	job.mu.Lock()
	job.state = StateQueued
	job.cancel = nil
	job.closeSubsLocked()
	job.mu.Unlock()
	_ = m.checkpointJob(job)
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
	cp := &checkpoint{
		ID:        job.id,
		Seq:       job.seq,
		State:     job.state,
		Total:     job.total,
		Spec:      job.specJSON,
		Err:       job.errMsg,
		Aggregate: job.agg,
	}
	if !job.finishedAt.IsZero() {
		cp.FinishedNS = job.finishedAt.UnixNano()
	}
	if sh := job.shard; sh != nil {
		sc := &shardCheckpoint{
			LeasePoints: sh.opts.LeasePoints,
			LeaseTTLMS:  sh.opts.LeaseTTL.Milliseconds(),
		}
		for _, lo := range sh.cursor.Pending {
			hi, _ := sh.cursor.Bounds(lo)
			sc.Pending = append(sc.Pending, pendingRange{Lo: lo, Hi: hi, Points: sh.pending[lo]})
		}
		cp.Shard = sc
	}
	// Marshal under the lock: the aggregate mutates as points land.
	data, err := json.Marshal(cp)
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
