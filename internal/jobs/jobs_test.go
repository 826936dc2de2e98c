package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"sync"
	"testing"
	"time"

	"bftbcast"
	"bftbcast/internal/stats"
)

// smallGrid builds a valid torus grid with the given base seed and
// replica count — one point per replica.
func smallGrid(seed uint64, seeds int) *bftbcast.GridSpec {
	return &bftbcast.GridSpec{
		Base: bftbcast.ScenarioSpec{
			Topology:  bftbcast.TopologySpec{Kind: "torus", W: 15, H: 15, R: 2},
			T:         1,
			MF:        2,
			Adversary: "random",
			Density:   0.08,
			Seed:      seed,
		},
		Seeds: seeds,
	}
}

// gateEngine blocks every Run on a token, recording the scenario seeds
// in start order — the seam the FIFO and cancellation tests observe.
type gateEngine struct {
	mu      sync.Mutex
	started []uint64
	tokens  chan struct{}
}

func (e *gateEngine) Name() string { return "gate" }

func (e *gateEngine) Run(ctx context.Context, sc *bftbcast.Scenario) (*bftbcast.Report, error) {
	e.mu.Lock()
	e.started = append(e.started, sc.Seed)
	e.mu.Unlock()
	select {
	case <-e.tokens:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return &bftbcast.Report{
		Engine: "gate", Completed: true, Slots: int(sc.Seed%7) + 1,
		TotalGood: 3, DecidedGood: 3, GoodMessages: 5, AvgGoodSends: 1.5,
	}, nil
}

func (e *gateEngine) startOrder() []uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]uint64(nil), e.started...)
}

// throttleEngine delegates to a real engine after consuming a token,
// so a test can stall a job mid-sweep without changing its reports.
type throttleEngine struct {
	inner  bftbcast.Engine
	tokens chan struct{}
}

func (e *throttleEngine) Name() string { return "throttle" }

func (e *throttleEngine) Run(ctx context.Context, sc *bftbcast.Scenario) (*bftbcast.Report, error) {
	select {
	case <-e.tokens:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return e.inner.Run(ctx, sc)
}

// waitFor polls until cond holds or the deadline lapses.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func mustClose(t *testing.T, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestManagerFIFOAndBackpressure pins the queue contract: strict FIFO
// execution order, ErrQueueFull at capacity, queued-job cancellation
// freeing a slot, and ErrClosed after drain.
func TestManagerFIFOAndBackpressure(t *testing.T) {
	eng := &gateEngine{tokens: make(chan struct{}, 16)}
	m, err := Open(Config{Dir: t.TempDir(), Engine: eng, Workers: 1, MaxQueue: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, m)

	j1, err := m.Submit(smallGrid(101, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Wait until j1 is dequeued and running, so the queue is empty.
	waitFor(t, "j1 running", func() bool { return j1.Status().State == StateRunning })

	j2, err := m.Submit(smallGrid(102, 1))
	if err != nil {
		t.Fatal(err)
	}
	j3, err := m.Submit(smallGrid(103, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(smallGrid(104, 1)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overfull submit: err = %v, want ErrQueueFull", err)
	}

	// Cancelling a queued job frees its slot immediately.
	if err := m.Cancel(j3.ID()); err != nil {
		t.Fatal(err)
	}
	if got := j3.Status().State; got != StateCancelled {
		t.Fatalf("cancelled queued job state = %q", got)
	}
	if err := j3.Wait(context.Background()); err != nil {
		t.Fatalf("cancelled job Wait: %v", err)
	}
	j5, err := m.Submit(smallGrid(105, 1))
	if err != nil {
		t.Fatalf("submit after cancel freed a slot: %v", err)
	}

	for i := 0; i < 3; i++ {
		eng.tokens <- struct{}{}
	}
	for _, j := range []*Job{j1, j2, j5} {
		if err := j.Wait(context.Background()); err != nil {
			t.Fatalf("job %s: %v", j.ID(), err)
		}
		if got := j.Status().State; got != StateDone {
			t.Fatalf("job %s state = %q, want done", j.ID(), got)
		}
	}
	if got, want := eng.startOrder(), []uint64{101, 102, 105}; len(got) != 3 ||
		got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("execution order %v, want %v (FIFO, cancelled job skipped)", got, want)
	}

	mustClose(t, m)
	if _, err := m.Submit(smallGrid(106, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: err = %v, want ErrClosed", err)
	}
}

// TestSubmitRejectsBadSpec pins that validation happens at submit time
// with the spec's typed errors, before anything is enqueued.
func TestSubmitRejectsBadSpec(t *testing.T) {
	m, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, m)

	bad := smallGrid(1, 1)
	bad.Base.Protocol = "warp"
	if _, err := m.Submit(bad); !errors.Is(err, bftbcast.ErrBadSpec) {
		t.Fatalf("bad spec: err = %v, want ErrBadSpec", err)
	}
	bad = smallGrid(1, 1)
	bad.MF = []int{-3}
	if _, err := m.Submit(bad); !errors.Is(err, bftbcast.ErrBadParams) {
		t.Fatalf("bad axis: err = %v, want ErrBadParams", err)
	}
	if len(m.Jobs()) != 0 {
		t.Fatal("rejected submissions must not be enqueued")
	}
	if _, err := m.Get("jdeadbeef0000"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("unknown job: err = %v, want ErrUnknownJob", err)
	}
}

// TestUserCancelRunning pins that cancelling a running job terminates
// it as cancelled (not failed), ends its live tails and stops its
// in-flight range through the job's context: once Cancel has returned,
// the engine sees no further Run call for the job.
func TestUserCancelRunning(t *testing.T) {
	eng := &gateEngine{tokens: make(chan struct{})}
	m, err := Open(Config{Dir: t.TempDir(), Engine: eng, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, m)

	job, err := m.Submit(smallGrid(7, 3))
	if err != nil {
		t.Fatal(err)
	}
	sub := job.Subscribe(8)
	waitFor(t, "job running", func() bool { return job.Status().State == StateRunning })
	waitFor(t, "first point inside the engine", func() bool { return len(eng.startOrder()) == 1 })
	if err := m.Cancel(job.ID()); err != nil {
		t.Fatal(err)
	}
	if got := job.Status().State; got != StateCancelled {
		t.Fatalf("state = %q as Cancel returns, want cancelled", got)
	}
	if err := job.Wait(context.Background()); err != nil {
		t.Fatalf("cancelled job Wait: %v", err)
	}
	for range sub.Points() {
	}
	if err := m.Cancel(job.ID()); err != nil {
		t.Fatalf("cancelling a terminal job must be a no-op: %v", err)
	}
	// A second job runs to completion behind the cancelled one: by then
	// the executor has long left the cancelled job's range, and the
	// engine has seen that job's first point and nothing more of it.
	next, err := m.Submit(smallGrid(8, 1))
	if err != nil {
		t.Fatal(err)
	}
	eng.tokens <- struct{}{}
	if err := next.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := eng.startOrder(); len(got) != 2 || got[0] != 7 || got[1] != 8 {
		t.Fatalf("engine saw Run for seeds %v, want [7 8]: no point of the cancelled job after its first", got)
	}
}

// TestCheckpointRoundTrip runs a job to completion, reopens the
// manager on the same directory and requires the terminal record —
// state, spec and aggregate bytes — to survive verbatim.
func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(Config{Dir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	job, err := m.Submit(smallGrid(11, 4))
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	aggBytes, err := job.AggregateJSON()
	if err != nil {
		t.Fatal(err)
	}
	mustClose(t, m)

	m2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, m2)
	back, err := m2.Get(job.ID())
	if err != nil {
		t.Fatal(err)
	}
	st := back.Status()
	if st.State != StateDone || st.Total != 4 || st.Aggregate.Done != 4 {
		t.Fatalf("reloaded status = %+v", st)
	}
	backBytes, err := back.AggregateJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aggBytes, backBytes) {
		t.Fatalf("aggregate changed across restart:\n%s\nvs\n%s", aggBytes, backBytes)
	}
	if !bytes.Equal(back.Spec(), job.Spec()) {
		t.Fatal("spec document changed across restart")
	}
	// A terminal job is not re-run: its subscription closes immediately.
	sub := back.Subscribe(1)
	if _, open := <-sub.Points(); open {
		t.Fatal("terminal job's subscription must start closed")
	}
}

// TestWaitSeesTerminalCheckpoint pins that Wait returns only after the
// terminal record was written: a caller that reads <id>.json as soon as
// Wait returns finds the finished state and the whole aggregate, not a
// mid-run record.
func TestWaitSeesTerminalCheckpoint(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(Config{Dir: dir, Workers: 2, CheckpointEvery: 1, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, m)
	for i := 0; i < 24; i++ {
		job, err := m.Submit(smallGrid(uint64(300+i), 16))
		if err != nil {
			t.Fatal(err)
		}
		if err := job.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		cps, err := readCheckpoints(dir)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, cp := range cps {
			if cp.ID != job.ID() {
				continue
			}
			found = true
			if cp.State != StateDone || cp.Aggregate.Done != 16 {
				t.Fatalf("job %d: Wait returned with state %q done %d on disk, want the terminal record",
					i, cp.State, cp.Aggregate.Done)
			}
		}
		if !found {
			t.Fatalf("job %d: no checkpoint on disk after Wait", i)
		}
	}
}

// TestCrashResumeByteIdentical is the resume satellite: a daemon
// killed mid-job (drain after K checkpointed points) and restarted on
// the same checkpoint directory finishes the job without recomputing
// any checkpointed point, and its final aggregate is byte-identical
// to an uninterrupted run's.
func TestCrashResumeByteIdentical(t *testing.T) {
	const points = 12
	grid := smallGrid(21, points)

	var countMu sync.Mutex
	attached := make(map[int]int) // point index -> times scheduled for execution
	observe := func(jobID string, index int) bftbcast.Observer {
		countMu.Lock()
		attached[index]++
		countMu.Unlock()
		return bftbcast.FuncObserver{}
	}

	dir := t.TempDir()
	tokens := make(chan struct{}, points)
	for i := 0; i < 5; i++ { // enough to make progress, not to finish
		tokens <- struct{}{}
	}
	// One executor: the tokens go to points 0..4 in that order. (Two
	// race for them, and the one holding point 0 can lose all five.)
	m1, err := Open(Config{
		Dir:     dir,
		Engine:  &throttleEngine{inner: bftbcast.EngineFast, tokens: tokens},
		Workers: 1, CheckpointEvery: 1, Observe: observe,
	})
	if err != nil {
		t.Fatal(err)
	}
	job, err := m1.Submit(grid)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "some checkpointed progress", func() bool { return job.Status().Aggregate.Done >= 3 })
	mustClose(t, m1) // the "kill": drain parks the job as queued

	cps, err := readCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != 1 {
		t.Fatalf("checkpoint count = %d", len(cps))
	}
	doneAtKill := int(cps[0].Aggregate.Done)
	if cps[0].State != StateQueued || doneAtKill < 3 || doneAtKill >= points {
		t.Fatalf("parked checkpoint state=%q done=%d — the kill did not interrupt mid-job", cps[0].State, doneAtKill)
	}

	m2, err := Open(Config{Dir: dir, Workers: 2, CheckpointEvery: 1, Observe: observe})
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := m2.Get(job.ID())
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	resumedBytes, err := resumed.AggregateJSON()
	if err != nil {
		t.Fatal(err)
	}
	mustClose(t, m2)

	countMu.Lock()
	for i := 0; i < points; i++ {
		switch n := attached[i]; {
		case n == 0:
			t.Errorf("point %d never scheduled", i)
		case i < doneAtKill && n != 1:
			t.Errorf("checkpointed point %d scheduled %d times; resume recomputed it", i, n)
		}
	}
	countMu.Unlock()

	// The uninterrupted control run, in a fresh directory.
	m3, err := Open(Config{Dir: t.TempDir(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	control, err := m3.Submit(grid)
	if err != nil {
		t.Fatal(err)
	}
	if err := control.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	controlBytes, err := control.AggregateJSON()
	if err != nil {
		t.Fatal(err)
	}
	mustClose(t, m3)

	if !bytes.Equal(resumedBytes, controlBytes) {
		t.Fatalf("resumed aggregate diverged from the uninterrupted run:\n%s\nvs\n%s",
			resumedBytes, controlBytes)
	}
}

// TestStoredRunWorkersSpecReopens is the compatibility check for the
// retired "run_workers" scenario field. A client document carrying it is
// refused like any unknown field, but checkpoints written while it was
// accepted may still hold it: a job parked with it in its stored spec
// reopens, the spec its grants carry decodes strictly (runGrant decodes
// it as an outside worker does), and the final aggregate equals that of
// the grid without the field.
func TestStoredRunWorkersSpecReopens(t *testing.T) {
	const points = 8
	doc := []byte(`{"base":{"topology":{"kind":"torus","w":15,"h":15,"r":2},"t":1,"mf":2,
		"adversary":"random","density":0.08,"seed":31},"seeds":8}`)
	grid, err := bftbcast.DecodeGridSpec(doc)
	if err != nil {
		t.Fatal(err)
	}
	withField := func(b []byte) []byte {
		return bytes.Replace(b, []byte(`"seed":31`), []byte(`"run_workers":4,"seed":31`), 1)
	}
	if _, err := bftbcast.DecodeGridSpec(withField(doc)); !errors.Is(err, bftbcast.ErrBadSpec) {
		t.Fatalf("client document carrying run_workers: got %v, want ErrBadSpec", err)
	}

	dir := t.TempDir()
	tokens := make(chan struct{}, points)
	for i := 0; i < 3; i++ {
		tokens <- struct{}{}
	}
	// One executor: the three tokens go to points 0, 1, 2 in that order.
	m1, err := Open(Config{
		Dir:     dir,
		Engine:  &throttleEngine{inner: bftbcast.EngineFast, tokens: tokens},
		Workers: 1, CheckpointEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	job, err := m1.SubmitSharded(grid, ShardOptions{LeasePoints: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "some checkpointed progress", func() bool { return job.Status().Aggregate.Done >= 2 })
	mustClose(t, m1)

	// Store the parked record as a daemon that accepted the field would have.
	path := checkpointPath(dir, job.ID())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte(`"seed":31`)); n != 1 {
		t.Fatalf("checkpoint holds the spec's seed %d times", n)
	}
	if err := os.WriteFile(path, withField(data), 0o644); err != nil {
		t.Fatal(err)
	}
	cps, err := readCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != 1 || cps[0].State != StateQueued || cps[0].Aggregate.Done >= points ||
		!bytes.Contains(cps[0].Spec, []byte(`"run_workers":4`)) {
		t.Fatalf("parked checkpoint is not a mid-job record carrying run_workers: %+v spec=%s", cps[0], cps[0].Spec)
	}

	// Only run_workers is forgiven: a stored spec with any other unknown
	// field still refuses to reopen.
	other := t.TempDir()
	if err := os.WriteFile(checkpointPath(other, job.ID()),
		bytes.Replace(data, []byte(`"seed":31`), []byte(`"future_field":4,"seed":31`), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	if m, err := Open(Config{Dir: other, Workers: -1}); err == nil {
		mustClose(t, m)
		t.Fatal("reopening a directory whose spec carries an unknown field other than run_workers succeeded")
	}

	m2, err := Open(Config{Dir: dir, Workers: -1})
	if err != nil {
		t.Fatalf("reopening a directory whose spec carries run_workers: %v", err)
	}
	defer mustClose(t, m2)
	for {
		g, err := m2.Lease(job.ID(), "outside")
		if errors.Is(err, ErrJobDone) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		p := Partial{LeaseID: g.LeaseID, Worker: "outside", Lo: g.Lo, Hi: g.Hi, Points: runGrant(t, g)}
		if err := m2.CompleteLease(job.ID(), p); err != nil {
			t.Fatal(err)
		}
	}
	resumed, err := m2.Get(job.ID())
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	got, err := resumed.AggregateJSON()
	if err != nil {
		t.Fatal(err)
	}
	if want := controlAggregate(t, grid); !bytes.Equal(got, want) {
		t.Fatalf("aggregate with run_workers differs from the one without:\n%s\nvs\n%s", got, want)
	}
}

// TestSubscriberLossyTail pins the lossy-tail contract: a subscriber
// that never drains stalls nothing, loses the overflow (counted), and
// its channel closes when the job ends.
func TestSubscriberLossyTail(t *testing.T) {
	const points = 24
	tokens := make(chan struct{}, points)
	m, err := Open(Config{
		Dir:     t.TempDir(),
		Engine:  &throttleEngine{inner: bftbcast.EngineFast, tokens: tokens},
		Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, m)

	job, err := m.Submit(smallGrid(31, points))
	if err != nil {
		t.Fatal(err)
	}
	sub := job.Subscribe(2) // attached before any point can run
	for i := 0; i < points; i++ {
		tokens <- struct{}{}
	}
	if err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	received := 0
	last := -1
	for rec := range sub.Points() {
		if rec.Index <= last {
			t.Fatalf("records out of order: %d after %d", rec.Index, last)
		}
		last = rec.Index
		received++
	}
	if got := int(sub.Dropped()) + received; got != points {
		t.Fatalf("received %d + dropped %d = %d, want %d", received, sub.Dropped(), got, points)
	}
	if sub.Dropped() == 0 {
		t.Fatal("a 2-slot tail of 24 points must drop some records")
	}
}

// TestAggregateConstantMemory is the constant-memory acceptance check:
// the encoded aggregate of a 100k-point stream is a few KB and does
// not grow between 10k and 100k points beyond sketch-bucket fill.
func TestAggregateConstantMemory(t *testing.T) {
	agg := NewAggregate()
	rng := stats.NewRNG(1)
	size := func() int {
		data, err := json.Marshal(agg)
		if err != nil {
			t.Fatal(err)
		}
		return len(data)
	}
	var size10k int
	for i := 0; i < 100_000; i++ {
		slots := int(rng.Uint64()%2000) + 1
		agg.AddRecord(PointRecord{
			Completed: true, Slots: slots, TotalGood: 221, DecidedGood: 221,
			GoodMessages: slots * 3, BadMessages: int(rng.Uint64() % 50),
			AvgGoodSends: float64(slots%5) + 0.5,
		})
		if i+1 == 10_000 {
			size10k = size()
		}
	}
	if agg.Done != 100_000 || agg.Completed != 100_000 {
		t.Fatalf("tallies: done=%d completed=%d", agg.Done, agg.Completed)
	}
	size100k := size()
	const capBytes = 16 << 10
	if size10k > capBytes || size100k > capBytes {
		t.Fatalf("aggregate not constant-size: %dB at 10k, %dB at 100k", size10k, size100k)
	}
	// The value range is fixed, so all sketch buckets that will ever
	// populate are populated early; 10x the points must not grow the
	// encoding by more than digit-width wiggle.
	if size100k > size10k+256 {
		t.Fatalf("aggregate grew with the stream: %dB at 10k -> %dB at 100k", size10k, size100k)
	}
	p50 := agg.SlotsToDecide.Quantile(0.5)
	if rel := math.Abs(p50-1000) / 1000; rel > 0.05 {
		t.Fatalf("p50 = %g, want ~1000 for uniform [1, 2000]", p50)
	}
}
