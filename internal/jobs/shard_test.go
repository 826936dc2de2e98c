package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bftbcast"
)

// fakeClock is a manual clock for lease-expiry and retention tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// runGrant is a test worker's half of the protocol: decode the granted
// spec, compile its topology and run the leased range.
func runGrant(t *testing.T, g LeaseGrant) []PointRecord {
	t.Helper()
	spec, err := bftbcast.DecodeGridSpec(g.Spec)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := bftbcast.NewTopology(spec.Base.Topology)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := RunRange(context.Background(), bftbcast.EngineFast, 1, g.JobID, spec, tp, g.Lo, g.Hi, nil)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// controlAggregate is the byte-identity reference, and it goes nowhere
// near a Manager: expand every point of grid, run each on EngineFast one
// after another and fold the records in index order. Its output is
// pinned to the aggregates the last daemon with a separate unsharded
// path produced (TestAggregatesMatchParentGoldens).
func controlAggregate(t *testing.T, grid *bftbcast.GridSpec) []byte {
	t.Helper()
	scenarios, err := grid.Scenarios(0, grid.NPoints())
	if err != nil {
		t.Fatal(err)
	}
	agg := NewAggregate()
	for i, sc := range scenarios {
		rep, err := bftbcast.EngineFast.Run(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
		agg.AddRecord(pointRecord("", bftbcast.SweepPoint{Index: i, Report: rep}))
	}
	data, err := json.Marshal(agg)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestShardedLeaseProtocolByteIdentical is the tentpole acceptance
// test: two workers pull leases of one grid, one dies holding a lease
// (its range expires and is re-issued), ranges complete out of order,
// and the late duplicate from the dead worker is dropped — yet the
// final aggregate is byte-identical to an unsharded single-daemon run.
func TestShardedLeaseProtocolByteIdentical(t *testing.T) {
	grid := smallGrid(21, 12)
	want := controlAggregate(t, grid)

	clock := newFakeClock()
	m, err := Open(Config{Dir: t.TempDir(), Workers: -1, Now: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, m)

	job, err := m.SubmitSharded(grid, ShardOptions{LeasePoints: 3, LeaseTTL: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if st := job.Status(); !st.Sharded || st.State != StateRunning || st.Total != 12 {
		t.Fatalf("sharded status = %+v", st)
	}

	// Worker A takes and completes the first range.
	gA, err := m.Lease(job.ID(), "A")
	if err != nil || gA.Lo != 0 || gA.Hi != 3 {
		t.Fatalf("lease 1 = %+v, %v", gA, err)
	}
	if err := m.CompleteLease(job.ID(), Partial{LeaseID: gA.LeaseID, Worker: "A", Lo: gA.Lo, Hi: gA.Hi, Points: runGrant(t, gA)}); err != nil {
		t.Fatal(err)
	}

	// Worker B takes [3,6) and dies with it.
	gB, err := m.Lease(job.ID(), "B")
	if err != nil || gB.Lo != 3 || gB.Hi != 6 {
		t.Fatalf("lease 2 = %+v, %v", gB, err)
	}
	deadRecs := runGrant(t, gB) // computed, never delivered in time

	// Worker A completes the remaining ranges out of order; they park in
	// the reorder buffer behind the dead worker's gap.
	g3, err := m.Lease(job.ID(), "A")
	if err != nil || g3.Lo != 6 {
		t.Fatalf("lease 3 = %+v, %v", g3, err)
	}
	g4, err := m.Lease(job.ID(), "A")
	if err != nil || g4.Lo != 9 {
		t.Fatalf("lease 4 = %+v, %v", g4, err)
	}
	for _, g := range []LeaseGrant{g4, g3} {
		if err := m.CompleteLease(job.ID(), Partial{LeaseID: g.LeaseID, Worker: "A", Lo: g.Lo, Hi: g.Hi, Points: runGrant(t, g)}); err != nil {
			t.Fatal(err)
		}
	}
	if done := job.Status().Aggregate.Done; done != 3 {
		t.Fatalf("folded prefix = %d, want 3 (the gap blocks the fold)", done)
	}
	if _, err := m.Lease(job.ID(), "A"); !errors.Is(err, ErrNoWork) {
		t.Fatalf("lease with everything granted: err = %v, want ErrNoWork", err)
	}
	// A duplicate completion of a pending range changes nothing.
	if err := m.CompleteLease(job.ID(), Partial{Worker: "A", Lo: g3.Lo, Hi: g3.Hi, Points: runGrant(t, g3)}); err != nil {
		t.Fatal(err)
	}
	if done := job.Status().Aggregate.Done; done != 3 {
		t.Fatalf("duplicate pending completion moved the fold to %d", done)
	}

	// The dead worker's lease expires; the range is re-issued to A.
	clock.Advance(6 * time.Second)
	gRe, err := m.Lease(job.ID(), "A")
	if err != nil || gRe.Lo != 3 || gRe.Hi != 6 {
		t.Fatalf("re-issued lease = %+v, %v", gRe, err)
	}
	if err := m.CompleteLease(job.ID(), Partial{LeaseID: gRe.LeaseID, Worker: "A", Lo: gRe.Lo, Hi: gRe.Hi, Points: runGrant(t, gRe)}); err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	// The dead worker resurfaces with its stale partial: dropped.
	if err := m.CompleteLease(job.ID(), Partial{LeaseID: gB.LeaseID, Worker: "B", Lo: gB.Lo, Hi: gB.Hi, Points: deadRecs}); err != nil {
		t.Fatal(err)
	}
	st := job.Status()
	if st.State != StateDone || st.Aggregate.Done != 12 {
		t.Fatalf("final status = %+v", st)
	}
	if _, err := m.Lease(job.ID(), "A"); !errors.Is(err, ErrJobDone) {
		t.Fatalf("lease of a done job: err = %v, want ErrJobDone", err)
	}

	got, err := job.AggregateJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("sharded aggregate diverged from the unsharded run:\n%s\nvs\n%s", got, want)
	}
}

// TestLeaseProtocolRejections pins the lease endpoints' error surface:
// FIFO jobs refuse lease traffic, malformed partials are rejected with
// ErrBadPartial, and unknown jobs report ErrUnknownJob.
func TestLeaseProtocolRejections(t *testing.T) {
	eng := &gateEngine{tokens: make(chan struct{}, 4)}
	m, err := Open(Config{Dir: t.TempDir(), Engine: eng, Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, m)

	fifo, err := m.Submit(smallGrid(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Lease(fifo.ID(), "w"); !errors.Is(err, ErrNotSharded) {
		t.Fatalf("lease of FIFO job: err = %v, want ErrNotSharded", err)
	}
	if err := m.CompleteLease(fifo.ID(), Partial{Lo: 0, Hi: 1}); !errors.Is(err, ErrNotSharded) {
		t.Fatalf("partial for FIFO job: err = %v, want ErrNotSharded", err)
	}
	if _, err := m.Lease("jdeadbeef0000", "w"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("lease of unknown job: err = %v, want ErrUnknownJob", err)
	}

	job, err := m.SubmitSharded(smallGrid(2, 6), ShardOptions{LeasePoints: 3})
	if err != nil {
		t.Fatal(err)
	}
	g, err := m.Lease(job.ID(), "w")
	if err != nil {
		t.Fatal(err)
	}
	recs := runGrant(t, g)
	for _, p := range []Partial{
		{Lo: 1, Hi: 4, Points: recs},     // off the range grid
		{Lo: 0, Hi: 4, Points: recs},     // wrong end
		{Lo: 0, Hi: 3, Points: recs[:2]}, // short
		{Lo: 3, Hi: 6, Points: recs},     // records carry the wrong indices
	} {
		if err := m.CompleteLease(job.ID(), p); !errors.Is(err, ErrBadPartial) {
			t.Fatalf("partial %+v: err = %v, want ErrBadPartial", p, err)
		}
	}
	// The job is unharmed and the range still completes normally.
	if err := m.CompleteLease(job.ID(), Partial{LeaseID: g.LeaseID, Lo: g.Lo, Hi: g.Hi, Points: recs}); err != nil {
		t.Fatal(err)
	}
	if done := job.Status().Aggregate.Done; done != 3 {
		t.Fatalf("folded = %d after valid completion", done)
	}
}

// TestDoubleLeaseCompletionIdempotent pins the double-completion
// satellite: completing the same range twice — against the fold prefix
// or the reorder buffer — never double-counts Aggregate.Done.
func TestDoubleLeaseCompletionIdempotent(t *testing.T) {
	m, err := Open(Config{Dir: t.TempDir(), Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, m)

	job, err := m.SubmitSharded(smallGrid(5, 6), ShardOptions{LeasePoints: 3})
	if err != nil {
		t.Fatal(err)
	}
	g, err := m.Lease(job.ID(), "w")
	if err != nil {
		t.Fatal(err)
	}
	recs := runGrant(t, g)
	for i := 0; i < 3; i++ {
		if err := m.CompleteLease(job.ID(), Partial{LeaseID: g.LeaseID, Lo: g.Lo, Hi: g.Hi, Points: recs}); err != nil {
			t.Fatal(err)
		}
	}
	if done := job.Status().Aggregate.Done; done != 3 {
		t.Fatalf("Done = %d after triple completion of one range, want 3", done)
	}
	g2, err := m.Lease(job.ID(), "w")
	if err != nil || g2.Lo != 3 {
		t.Fatalf("second lease = %+v, %v (folded range must not re-issue)", g2, err)
	}
	if err := m.CompleteLease(job.ID(), Partial{LeaseID: g2.LeaseID, Lo: g2.Lo, Hi: g2.Hi, Points: runGrant(t, g2)}); err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := job.Status(); st.State != StateDone || st.Aggregate.Done != 6 {
		t.Fatalf("final status = %+v", st)
	}
}

// TestWorkersPoolLeasesShardedJobs pins the one executor pool: with no
// outside worker, the Workers executors drain a sharded grid through the
// lease path, every point runs exactly once, and the aggregate is
// byte-identical to the same grid's plain submission.
func TestWorkersPoolLeasesShardedJobs(t *testing.T) {
	grid := smallGrid(33, 10)
	var counter pointCounter
	m, err := Open(Config{Dir: t.TempDir(), Workers: 3, Observe: counter.observe})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, m)

	plain, err := m.Submit(grid)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := m.SubmitSharded(grid, ShardOptions{LeasePoints: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, job := range []*Job{plain, sharded} {
		if err := job.Wait(ctx); err != nil {
			t.Fatalf("job %s: %v (sharded: %v)", job.ID(), err, job.Status().Sharded)
		}
	}
	want, err := plain.AggregateJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := sharded.AggregateJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("executor-leased sharded aggregate diverged from Submit:\n%s\nvs\n%s", got, want)
	}
	for i := 0; i < 10; i++ {
		if n := counter.count(sharded.ID(), i); n != 1 {
			t.Errorf("point %d ran %d times, want exactly once", i, n)
		}
	}
}

// TestExpiredOutsideLeaseFoldsInProcess pins the tick: an outside worker
// leases one range of a sharded job and never returns it. An in-process
// executor runs the other range, scans once more while that lease is
// live, and waits. Once the clock passes the lease's deadline, nothing
// but the tick wakes it — no submission or job end follows — and it
// re-leases the abandoned range and folds the job to the control bytes.
func TestExpiredOutsideLeaseFoldsInProcess(t *testing.T) {
	grid := smallGrid(45, 6)
	want := controlAggregate(t, grid)

	// armed makes the first clock read after it close scanned. The time
	// is read first, so that read still sees the clock before Advance.
	clock := newFakeClock()
	var armed atomic.Bool
	scanned := make(chan struct{})
	closeScanned := sync.OnceFunc(func() { close(scanned) })
	now := func() time.Time {
		at := clock.Now()
		if armed.Load() {
			closeScanned()
		}
		return at
	}
	var counter pointCounter
	tokens := make(chan struct{}, 6)
	m, err := Open(Config{
		Dir: t.TempDir(), Workers: 1, Now: now, Observe: counter.observe,
		CheckpointEvery: 1 << 20, // no mid-run checkpoint reads the clock
		Engine:          &throttleEngine{inner: bftbcast.EngineFast, tokens: tokens},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, m)
	job, err := m.SubmitSharded(grid, ShardOptions{LeasePoints: 3, LeaseTTL: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	abandoned, err := m.Lease(job.ID(), "outside")
	if err != nil {
		t.Fatal(err)
	}
	other := 3 - abandoned.Lo // the range the executor holds, or will
	waitFor(t, "the executor running the other range", func() bool { return counter.count(job.ID(), other) == 1 })

	// From here on only the executor reads the clock: its next read is
	// the scan after it folds its range.
	armed.Store(true)
	for i := 0; i < 6; i++ {
		tokens <- struct{}{}
	}
	select {
	case <-scanned:
	case <-time.After(10 * time.Second):
		t.Fatal("the executor never scanned again after its range")
	}
	clock.Advance(6 * time.Second)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := job.Wait(ctx); err != nil {
		t.Fatalf("the abandoned range was not re-leased in process: %v", err)
	}
	got, err := job.AggregateJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("aggregate after the re-lease diverged:\n%s\nvs\n%s", got, want)
	}
	for i := 0; i < 6; i++ {
		if n := counter.count(job.ID(), i); n != 1 {
			t.Errorf("point %d ran %d times in process, want once", i, n)
		}
	}
}

// TestOutsideLeaseWaitsForExecutors pins what an outside Lease answers
// when the only unfinished range of a sharded job is held by one of the
// manager's own executors: not ErrNoWork, since that lease never expires,
// but — after waiting for it — ErrJobDone, with the job already done. So a
// lone outside worker that leases until nothing is left finds the job
// done and its aggregate final. The wait ends on ErrNoWork when an outside
// lease holds what is left, and on ErrClosed across a drain.
func TestOutsideLeaseWaitsForExecutors(t *testing.T) {
	// start opens a one-executor manager on a two-range sharded job, takes
	// one range as an outside worker and returns once the executor is
	// running the other; tokens let that range finish.
	start := func(t *testing.T, seed uint64) (*Manager, *Job, LeaseGrant, chan struct{}) {
		t.Helper()
		var counter pointCounter
		tokens := make(chan struct{}, 2)
		m, err := Open(Config{
			Dir: t.TempDir(), Workers: 1, Observe: counter.observe,
			Engine: &throttleEngine{inner: bftbcast.EngineFast, tokens: tokens},
		})
		if err != nil {
			t.Fatal(err)
		}
		job, err := m.SubmitSharded(smallGrid(seed, 4), ShardOptions{LeasePoints: 2})
		if err != nil {
			t.Fatal(err)
		}
		g, err := m.Lease(job.ID(), "outside")
		if err != nil {
			t.Fatal(err)
		}
		other := 2 - g.Lo
		waitFor(t, "the executor running the other range", func() bool { return counter.count(job.ID(), other) == 1 })
		return m, job, g, tokens
	}
	type answer struct {
		err   error
		state State
	}
	// lease asks for a range in the background and, once answered, reads
	// the job's state.
	lease := func(t *testing.T, m *Manager, job *Job) chan answer {
		t.Helper()
		res := make(chan answer, 1)
		go func() {
			_, err := m.Lease(job.ID(), "outside")
			res <- answer{err, job.Status().State}
		}()
		select {
		case a := <-res:
			t.Fatalf("Lease answered %v while an executor held the last range", a.err)
		case <-time.After(50 * time.Millisecond):
		}
		return res
	}
	await := func(t *testing.T, res chan answer) answer {
		t.Helper()
		select {
		case a := <-res:
			return a
		case <-time.After(10 * time.Second):
			t.Fatal("the waiting Lease never returned")
		}
		return answer{}
	}

	grid := smallGrid(46, 4)
	want := controlAggregate(t, grid)
	m, job, g, tokens := start(t, 46)
	defer mustClose(t, m)
	if err := m.CompleteLease(job.ID(), Partial{LeaseID: g.LeaseID, Worker: "outside", Lo: g.Lo, Hi: g.Hi, Points: runGrant(t, g)}); err != nil {
		t.Fatal(err)
	}
	res := lease(t, m, job)
	tokens <- struct{}{}
	tokens <- struct{}{}
	if a := await(t, res); !errors.Is(a.err, ErrJobDone) || a.state != StateDone {
		t.Fatalf("the waiting Lease answered %v with the job %q, want ErrJobDone with it done", a.err, a.state)
	}
	got, err := job.AggregateJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("aggregate diverged:\n%s\nvs\n%s", got, want)
	}

	// When the executor's range folds while an outside lease still holds
	// the other, the wait ends on ErrNoWork: what is left may expire.
	t.Run("outside lease left", func(t *testing.T) {
		m, job, g, tokens := start(t, 48)
		defer mustClose(t, m)
		res := lease(t, m, job)
		tokens <- struct{}{}
		tokens <- struct{}{}
		if a := await(t, res); !errors.Is(a.err, ErrNoWork) || a.state != StateRunning {
			t.Fatalf("the waiting Lease answered %v with the job %q, want ErrNoWork with it running", a.err, a.state)
		}
		if err := m.CompleteLease(job.ID(), Partial{LeaseID: g.LeaseID, Worker: "outside", Lo: g.Lo, Hi: g.Hi, Points: runGrant(t, g)}); err != nil {
			t.Fatal(err)
		}
		if st := job.Status().State; st != StateDone {
			t.Fatalf("job %q after its last partial", st)
		}
	})

	t.Run("drain", func(t *testing.T) {
		m, job, g, _ := start(t, 47)
		if err := m.CompleteLease(job.ID(), Partial{LeaseID: g.LeaseID, Worker: "outside", Lo: g.Lo, Hi: g.Hi, Points: runGrant(t, g)}); err != nil {
			t.Fatal(err)
		}
		res := lease(t, m, job)
		mustClose(t, m)
		if a := await(t, res); !errors.Is(a.err, ErrClosed) {
			t.Fatalf("the waiting Lease answered %v across a drain, want ErrClosed", a.err)
		}
	})
}

// TestShardedCrashResume kills a coordinator holding a half-sharded
// grid — folded prefix, an out-of-order pending range in the reorder
// buffer, one range leased-but-unfinished, one never leased — and
// requires the reopened coordinator to re-issue only the two open
// ranges and still produce the byte-identical aggregate.
func TestShardedCrashResume(t *testing.T) {
	grid := smallGrid(44, 12)
	want := controlAggregate(t, grid)
	dir := t.TempDir()

	m1, err := Open(Config{Dir: dir, Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	job, err := m1.SubmitSharded(grid, ShardOptions{LeasePoints: 3, LeaseTTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	id := job.ID()
	// Fold [0,3); park [6,9) pending; lease [3,6) and abandon it.
	g1, err := m1.Lease(id, "w")
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.CompleteLease(id, Partial{LeaseID: g1.LeaseID, Lo: g1.Lo, Hi: g1.Hi, Points: runGrant(t, g1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := m1.Lease(id, "w"); err != nil { // [3,6), never completed
		t.Fatal(err)
	}
	g3, err := m1.Lease(id, "w")
	if err != nil || g3.Lo != 6 {
		t.Fatalf("lease = %+v, %v", g3, err)
	}
	if err := m1.CompleteLease(id, Partial{LeaseID: g3.LeaseID, Lo: g3.Lo, Hi: g3.Hi, Points: runGrant(t, g3)}); err != nil {
		t.Fatal(err)
	}
	mustClose(t, m1) // the "kill"

	cps, err := readCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != 1 || cps[0].Shard == nil {
		t.Fatalf("checkpoints = %d, sharded section missing", len(cps))
	}
	if cps[0].Aggregate.Done != 3 || len(cps[0].Shard.Pending) != 1 || cps[0].Shard.Pending[0].Lo != 6 {
		t.Fatalf("parked shard checkpoint: done=%d pending=%+v", cps[0].Aggregate.Done, cps[0].Shard.Pending)
	}

	m2, err := Open(Config{Dir: dir, Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, m2)
	back, err := m2.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if st := back.Status(); !st.Sharded || st.State != StateRunning || st.Aggregate.Done != 3 {
		t.Fatalf("restored status = %+v", st)
	}
	// Only the open ranges re-issue: [3,6) (its lease died with the
	// coordinator) and [9,12); the pending [6,9) is never recomputed.
	var lows []int
	for i := 0; i < 2; i++ {
		g, err := m2.Lease(id, "w2")
		if err != nil {
			t.Fatal(err)
		}
		lows = append(lows, g.Lo)
		if err := m2.CompleteLease(id, Partial{LeaseID: g.LeaseID, Lo: g.Lo, Hi: g.Hi, Points: runGrant(t, g)}); err != nil {
			t.Fatal(err)
		}
	}
	if lows[0] != 3 || lows[1] != 9 {
		t.Fatalf("re-issued ranges %v, want [3 9]", lows)
	}
	if err := back.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	got, err := back.AggregateJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed sharded aggregate diverged:\n%s\nvs\n%s", got, want)
	}
}

// TestSubmitDuringDrain pins the drain edge the sharded path leans on:
// once Close has begun, submissions and lease traffic all refuse with
// ErrClosed — even while running jobs are still parking.
func TestSubmitDuringDrain(t *testing.T) {
	eng := &gateEngine{tokens: make(chan struct{})}
	m, err := Open(Config{Dir: t.TempDir(), Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	job, err := m.Submit(smallGrid(61, 2))
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := m.SubmitSharded(smallGrid(62, 6), ShardOptions{LeasePoints: 3})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job running", func() bool { return job.Status().State == StateRunning })

	// Begin the drain without waiting for it.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := m.Close(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("Close with dead ctx: %v", err)
	}
	if _, err := m.Submit(smallGrid(63, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit during drain: err = %v, want ErrClosed", err)
	}
	if _, err := m.SubmitSharded(smallGrid(64, 6), ShardOptions{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("SubmitSharded during drain: err = %v, want ErrClosed", err)
	}
	if _, err := m.Lease(sharded.ID(), "w"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Lease during drain: err = %v, want ErrClosed", err)
	}
	if err := m.CompleteLease(sharded.ID(), Partial{Lo: 0, Hi: 3}); !errors.Is(err, ErrClosed) {
		t.Fatalf("CompleteLease during drain: err = %v, want ErrClosed", err)
	}
	mustClose(t, m)
	// Both jobs parked (not terminal): the next Open serves them again.
	cps, err := readCheckpoints(m.cfg.Dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, cp := range cps {
		if cp.State.Terminal() {
			t.Fatalf("job %s drained to terminal state %q, want parked", cp.ID, cp.State)
		}
	}
}

// TestCancelQueuedNeverStarted pins that cancelling a queued job that
// never reached the runner terminates it immediately — no engine run,
// no observer attach — and persists the cancelled state.
func TestCancelQueuedNeverStarted(t *testing.T) {
	eng := &gateEngine{tokens: make(chan struct{})}
	var attachMu sync.Mutex
	attach := make(map[string]int)
	observe := func(jobID string, index int) bftbcast.Observer {
		attachMu.Lock()
		attach[jobID]++
		attachMu.Unlock()
		return bftbcast.BaseObserver{}
	}
	dir := t.TempDir()
	// One executor, held by the blocker: a free one would lease the
	// second job's range as soon as it is submitted.
	m, err := Open(Config{Dir: dir, Engine: eng, Workers: 1, Observe: observe})
	if err != nil {
		t.Fatal(err)
	}
	blocker, err := m.Submit(smallGrid(71, 1))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "blocker running", func() bool { return blocker.Status().State == StateRunning })
	queued, err := m.Submit(smallGrid(72, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Cancel(queued.ID()); err != nil {
		t.Fatal(err)
	}
	if st := queued.Status(); st.State != StateCancelled || st.Aggregate.Done != 0 {
		t.Fatalf("cancelled queued job status = %+v", st)
	}
	if err := queued.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	attachMu.Lock()
	if attach[queued.ID()] != 0 {
		t.Fatalf("cancelled queued job had %d points scheduled", attach[queued.ID()])
	}
	attachMu.Unlock()
	mustClose(t, m)

	m2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, m2)
	back, err := m2.Get(queued.ID())
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Status().State; got != StateCancelled {
		t.Fatalf("restored state = %q, want cancelled", got)
	}
}

// TestConcurrentCheckpointWriters pins the one-writer-per-checkpoint
// rule: many goroutines checkpoint one job while it is cancelled under
// them. No writer may fail (they used to lose each other's shared temp
// file) and the file must end on the terminal record — a snapshot taken
// before the cancel that reaches the disk after it is dropped, not
// renamed over the newer one.
func TestConcurrentCheckpointWriters(t *testing.T) {
	m, err := Open(Config{Dir: t.TempDir(), Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, m)
	job, err := m.SubmitSharded(smallGrid(55, 8), ShardOptions{LeasePoints: 2})
	if err != nil {
		t.Fatal(err)
	}

	const writers, rounds = 8, 40
	errs := make(chan error, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if w == 0 && i == rounds/2 {
					if err := m.Cancel(job.ID()); err != nil {
						errs <- err
						return
					}
				}
				if err := m.checkpointJob(job); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	cps, err := readCheckpoints(m.cfg.Dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != 1 || cps[0].State != StateCancelled {
		t.Fatalf("checkpoint on disk = %+v, want the one cancelled record", cps)
	}
}
