package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"bftbcast"
	"bftbcast/internal/stats"
)

// daemonGrid4k is the 4096-point grid both daemon workloads of the
// repository benchmark submit (bench/daemon.go's daemonGrid).
func daemonGrid4k(seed uint64) *bftbcast.GridSpec {
	return &bftbcast.GridSpec{
		Base: bftbcast.ScenarioSpec{
			Topology:  bftbcast.TopologySpec{Kind: "torus", W: 15, H: 15, R: 2},
			T:         1,
			MF:        1,
			Adversary: "random",
			Density:   0.08,
			Seed:      stats.NewRNG(seed).Uint64(),
		},
		Seeds: 1024,
		T:     []int{1, 2},
		MF:    []int{1, 2},
	}
}

// benchGrid is the 64-point grid of the recorded aggregate_bench64.json
// (and of the job-level allocation contract, TestAllocs/JobGrid in the
// root package).
func benchGrid() *bftbcast.GridSpec {
	grid := smallGrid(9, 16)
	grid.T = []int{1, 2}
	grid.MF = []int{1, 2}
	return grid
}

// finalAggregate waits job to done and returns its aggregate bytes.
func finalAggregate(t *testing.T, job *Job) []byte {
	t.Helper()
	if err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	data, err := job.AggregateJSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestAggregatesMatchParentGoldens pins byte identity across the merge of
// the two execution paths. testdata/aggregate_*.json are the Submit →
// AggregateJSON bytes of the last commit that still had a separate FIFO
// scheduler, recorded from that commit's binary; the manager-free fold
// every other test uses as its reference, and a plain and a sharded
// submission run by two Workers executors must all reproduce them.
func TestAggregatesMatchParentGoldens(t *testing.T) {
	for _, tc := range []struct {
		golden string
		grid   *bftbcast.GridSpec
	}{
		{"aggregate_small21x12.json", smallGrid(21, 12)},
		{"aggregate_bench64.json", benchGrid()},
		{"aggregate_daemon4k_seed1.json", daemonGrid4k(1)},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			if testing.Short() && tc.grid.NPoints() > 1000 {
				t.Skip("the 4096-point grid takes half a minute under the race detector")
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			want = bytes.TrimSpace(want)
			if got := controlAggregate(t, tc.grid); !bytes.Equal(got, want) {
				t.Fatalf("manager-free fold diverged from the recorded aggregate:\n%s\nvs\n%s", got, want)
			}
			m, err := Open(Config{Dir: t.TempDir(), Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer mustClose(t, m)
			local, err := m.Submit(tc.grid)
			if err != nil {
				t.Fatal(err)
			}
			if got := finalAggregate(t, local); !bytes.Equal(got, want) {
				t.Fatalf("Submit diverged from the recorded aggregate:\n%s\nvs\n%s", got, want)
			}
			sharded, err := m.SubmitSharded(tc.grid, ShardOptions{LeasePoints: 16})
			if err != nil {
				t.Fatal(err)
			}
			if got := finalAggregate(t, sharded); !bytes.Equal(got, want) {
				t.Fatalf("SubmitSharded diverged from the recorded aggregate:\n%s\nvs\n%s", got, want)
			}
		})
	}
}

// installFixture copies a checked-in checkpoint into a fresh directory
// under the file name its job ID implies and returns both.
func installFixture(t *testing.T, name string) (dir, id string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	var cp struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &cp); err != nil {
		t.Fatal(err)
	}
	dir = t.TempDir()
	if err := os.WriteFile(checkpointPath(dir, cp.ID), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir, cp.ID
}

// pointCounter is a Config.Observe that counts how often each point of
// each job was scheduled for execution.
type pointCounter struct {
	mu   sync.Mutex
	runs map[string]map[int]int
}

func (c *pointCounter) observe(jobID string, index int) bftbcast.Observer {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.runs == nil {
		c.runs = make(map[string]map[int]int)
	}
	if c.runs[jobID] == nil {
		c.runs[jobID] = make(map[int]int)
	}
	c.runs[jobID][index]++
	return bftbcast.BaseObserver{}
}

// count returns how often point index of jobID was scheduled.
func (c *pointCounter) count(jobID string, index int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.runs[jobID][index]
}

// TestLegacyCheckpointsReopen opens the three record shapes the last
// daemon with a separate FIFO path left behind (testdata/legacy_*.json,
// written by that commit's binary). A mid-run FIFO record has no shard
// block and sits at an arbitrary Aggregate.Done (7 of 40): it restarts at
// point 0 on a fresh aggregate and ends on the reference bytes. A mid-run
// sharded record resumes where it was — pending range kept, folded prefix
// not recomputed. A finished record loads untouched. A record that has a
// shard block and a fold cursor off its range grid still refuses, and so
// does one whose pending range is off the lease grid or holds a record
// off its index.
func TestLegacyCheckpointsReopen(t *testing.T) {
	t.Run("fifo mid-run", func(t *testing.T) {
		dir, id := installFixture(t, "legacy_fifo_midrun.json")
		var counter pointCounter
		m, err := Open(Config{Dir: dir, Workers: 1, Observe: counter.observe})
		if err != nil {
			t.Fatal(err)
		}
		job, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st := job.Status(); st.Sharded || st.Total != 40 {
			t.Fatalf("reopened status = %+v", st)
		}
		got := finalAggregate(t, job)
		mustClose(t, m) // joins the executor writing the terminal record
		if want := controlAggregate(t, smallGrid(21, 40)); !bytes.Equal(got, want) {
			t.Fatalf("restarted legacy job diverged:\n%s\nvs\n%s", got, want)
		}
		for i := 0; i < 40; i++ {
			if n := counter.count(id, i); n != 1 {
				t.Errorf("point %d ran %d times, want once (restart from point 0)", i, n)
			}
		}
		// 40 points over one executor: ranges of five, and the job's own
		// record carries that geometry from now on.
		cps, err := readCheckpoints(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(cps) != 1 || cps[0].Shard == nil || !cps[0].Shard.Local || cps[0].Shard.LeasePoints != 5 {
			t.Fatalf("rewritten checkpoint = %+v", cps[0])
		}
	})

	t.Run("sharded mid-run", func(t *testing.T) {
		dir, id := installFixture(t, "legacy_sharded_midrun.json")
		var counter pointCounter
		m, err := Open(Config{Dir: dir, Workers: 1, Observe: counter.observe})
		if err != nil {
			t.Fatal(err)
		}
		defer mustClose(t, m)
		job, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st := job.Status(); !st.Sharded || st.State != StateRunning {
			t.Fatalf("reopened status = %+v", st)
		}
		got := finalAggregate(t, job)
		if want := controlAggregate(t, smallGrid(44, 12)); !bytes.Equal(got, want) {
			t.Fatalf("resumed sharded job diverged:\n%s\nvs\n%s", got, want)
		}
		// Folded [0,3) and pending [6,9) came from the file; only [3,6)
		// and [9,12) run.
		for i := 0; i < 12; i++ {
			want := 1
			if i < 3 || (i >= 6 && i < 9) {
				want = 0
			}
			if n := counter.count(id, i); n != want {
				t.Errorf("point %d ran %d times, want %d", i, n, want)
			}
		}
	})

	t.Run("done", func(t *testing.T) {
		dir, id := installFixture(t, "legacy_fifo_done.json")
		before, err := os.ReadFile(checkpointPath(dir, id))
		if err != nil {
			t.Fatal(err)
		}
		m, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		job, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st := job.Status(); st.State != StateDone || st.Sharded || st.Aggregate.Done != 4 {
			t.Fatalf("reopened status = %+v", st)
		}
		got, err := job.AggregateJSON()
		if err != nil {
			t.Fatal(err)
		}
		if want := controlAggregate(t, smallGrid(11, 4)); !bytes.Equal(got, want) {
			t.Fatalf("finished legacy aggregate changed on load:\n%s\nvs\n%s", got, want)
		}
		mustClose(t, m)
		after, err := os.ReadFile(checkpointPath(dir, id))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Fatal("a finished legacy record was rewritten")
		}
	})

	t.Run("off-grid cursor with a shard block", func(t *testing.T) {
		dir := editFixture(t, "legacy_sharded_midrun.json", `"aggregate":{"done":3,`, `"aggregate":{"done":4,`)
		if m, err := Open(Config{Dir: dir}); err == nil {
			mustClose(t, m)
			t.Fatal("a fold cursor off the range grid was accepted")
		}
	})

	t.Run("short pending range", func(t *testing.T) {
		// Pending [6,9) cut to [6,8) with its last record: consistent
		// with itself, but not a range of the 3-point lease grid.
		dir := editFixture(t, "legacy_sharded_midrun.json", `"hi":9`, `"hi":8`, pendingRecord8, "")
		if m, err := Open(Config{Dir: dir}); err == nil {
			mustClose(t, m)
			t.Fatal("a pending range off the lease grid was accepted")
		}
	})

	t.Run("pending record off its index", func(t *testing.T) {
		dir := editFixture(t, "legacy_sharded_midrun.json", `"index":7,`, `"index":8,`)
		if m, err := Open(Config{Dir: dir}); err == nil {
			mustClose(t, m)
			t.Fatal("a pending record off its index was accepted")
		}
	})
}

// pendingRecord8 is the last record of legacy_sharded_midrun.json's
// pending range [6,9), with the comma that joins it to the one before.
const pendingRecord8 = `,{"job":"je9ba7fff5a5c","index":8,"completed":true,"slots":114,"total_good":220,"decided_good":220,"good_messages":224,"bad_messages":1,"avg_good_sends":1}`

// editFixture installs fixture name with each old/new pair of edits
// applied once, and fails if the fixture no longer holds an old string.
func editFixture(t *testing.T, name string, edits ...string) (dir string) {
	t.Helper()
	dir, id := installFixture(t, name)
	path := checkpointPath(dir, id)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(edits); i += 2 {
		edited := bytes.Replace(data, []byte(edits[i]), []byte(edits[i+1]), 1)
		if bytes.Equal(edited, data) {
			t.Fatalf("fixture %s no longer holds %s", name, edits[i])
		}
		data = edited
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestOpenRefusesInconsistentSketch pins that a checkpoint whose
// slots-to-decide sketch claims counts its buckets do not hold is refused
// when the directory is opened, instead of serving a quantile from past
// the sketch's last bucket.
func TestOpenRefusesInconsistentSketch(t *testing.T) {
	dir := editFixture(t, "legacy_fifo_done.json", `"buckets":[[94,4]]`, `"buckets":[]`)
	if m, err := Open(Config{Dir: dir}); err == nil {
		mustClose(t, m)
		t.Fatal("a sketch with count 4 and no buckets was accepted")
	}
}

// TestStoppedJobsReleaseRangeState pins that a job which stopped serving
// leases — finished, or parked by a drain — no longer holds its compiled
// topology, reorder buffer or lease table: a terminal record is retained
// indefinitely, and a large RGG topology is hundreds of MB.
func TestStoppedJobsReleaseRangeState(t *testing.T) {
	held := func(job *Job) (topo, pending, leases bool) {
		job.mu.Lock()
		defer job.mu.Unlock()
		return job.topo != nil, job.pending != nil, job.leases != nil
	}

	tokens := make(chan struct{}, 8)
	m, err := Open(Config{
		Dir: t.TempDir(), Workers: 1,
		Engine: &throttleEngine{inner: bftbcast.EngineFast, tokens: tokens},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		tokens <- struct{}{}
	}
	done, err := m.SubmitSharded(smallGrid(91, 4), ShardOptions{LeasePoints: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := done.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if topo, pending, leases := held(done); topo || pending || leases {
		t.Fatalf("finished job still holds topo=%v pending=%v leases=%v", topo, pending, leases)
	}

	// A job stuck mid-range (no tokens left) with its topology compiled.
	parked, err := m.Submit(smallGrid(92, 4))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "parked job's topology compiled", func() bool { topo, _, _ := held(parked); return topo })
	mustClose(t, m)
	if st := parked.Status().State; st != StateQueued {
		t.Fatalf("drained job state = %q, want queued", st)
	}
	if topo, pending, leases := held(parked); topo || pending || leases {
		t.Fatalf("parked job still holds topo=%v pending=%v leases=%v", topo, pending, leases)
	}
}

// TestLocalLeaseSizeDerived pins that a plain submission's range size
// comes from the grid and the executor count, not the sharded default: a
// six-point grid over two Workers is cut into single points, so two of
// them are running before any finishes. At 64 points a range the whole
// grid would sit on one executor.
func TestLocalLeaseSizeDerived(t *testing.T) {
	eng := &gateEngine{tokens: make(chan struct{}, 6)}
	m, err := Open(Config{Dir: t.TempDir(), Engine: eng, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, m)
	job, err := m.Submit(smallGrid(3, 6))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "two points started with no token released", func() bool { return len(eng.startOrder()) == 2 })
	for i := 0; i < 6; i++ {
		eng.tokens <- struct{}{}
	}
	if err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ total, workers, want int }{
		{6, 2, 1}, {4096, 2, 64}, {4096, 64, 8}, {100, 2, 6}, {1 << 20, 4, 64}, {1, 8, 1},
		{100, -1, 12}, // a pure coordinator cuts as for one executor
	} {
		cfg := Config{Workers: tc.workers}
		if got := cfg.localLeasePoints(tc.total); got != tc.want {
			t.Errorf("localLeasePoints(%d) over %d workers = %d, want %d", tc.total, tc.workers, got, tc.want)
		}
	}
}

// TestInProcessLeaseNeverExpires pins the no-expiry rule for ranges held
// by the manager's own executors: with the clock far past the lease TTL
// while two executors sit on a range each, the next lease scan must hand
// out a fresh range, not one of the held ones — every point runs exactly
// once.
func TestInProcessLeaseNeverExpires(t *testing.T) {
	clock := newFakeClock()
	var counter pointCounter
	tokens := make(chan struct{}, 4)
	m, err := Open(Config{
		Dir: t.TempDir(), Workers: 2, Now: clock.Now, Observe: counter.observe,
		Engine: &throttleEngine{inner: bftbcast.EngineFast, tokens: tokens},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, m)
	job, err := m.Submit(smallGrid(17, 4)) // four single-point ranges
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "both executors holding a range", func() bool {
		return counter.count(job.ID(), 0) == 1 && counter.count(job.ID(), 1) == 1
	})
	clock.Advance(time.Hour)
	// One executor finishes and scans for its next range while the other
	// still holds a lease an hour past its deadline.
	tokens <- struct{}{}
	waitFor(t, "a third range leased", func() bool {
		return counter.count(job.ID(), 0)+counter.count(job.ID(), 1)+counter.count(job.ID(), 2) == 3
	})
	if counter.count(job.ID(), 2) != 1 {
		t.Fatal("a range held by a live executor was re-issued once its deadline passed")
	}
	for i := 0; i < 3; i++ {
		tokens <- struct{}{}
	}
	if err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if n := counter.count(job.ID(), i); n != 1 {
			t.Errorf("point %d ran %d times, want exactly once", i, n)
		}
	}
}

// TestAdmissionWindowOrder pins how live jobs share two executors.
// Executors scan plain jobs in submission order, so the second job's
// first point starts only once the first has no open range left — and it
// does start while the first is still running. A sharded job is scanned
// after every plain one: submitted first, it yields its open range to a
// later plain job and an outside lease takes that range; submitted after
// a plain job, the executors stay on the plain one while an outside
// lease serves it.
func TestAdmissionWindowOrder(t *testing.T) {
	seedsOf := func(grid *bftbcast.GridSpec) map[uint64]bool {
		scs, err := grid.Scenarios(0, grid.NPoints())
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[uint64]bool)
		for _, sc := range scs {
			out[sc.Seed] = true
		}
		return out
	}
	// checkOrder requires the engine's starts to be, in order, n1 points
	// of grid1 and then n2 of grid2.
	checkOrder := func(t *testing.T, eng *gateEngine, grid1 *bftbcast.GridSpec, n1 int, grid2 *bftbcast.GridSpec) {
		t.Helper()
		first, second := seedsOf(grid1), seedsOf(grid2)
		order := eng.startOrder()
		for i, seed := range order {
			if want := i < n1; first[seed] != want || second[seed] == want {
				t.Fatalf("start order %v: want %d points of the first job, then the second's", order, n1)
			}
		}
	}
	waitDone := func(t *testing.T, jobs ...*Job) {
		t.Helper()
		for _, j := range jobs {
			if err := j.Wait(context.Background()); err != nil {
				t.Fatal(err)
			}
			if st := j.Status(); st.State != StateDone || st.Aggregate.Done != 3 {
				t.Fatalf("job %s ended %+v", j.ID(), st)
			}
		}
	}

	eng := &gateEngine{tokens: make(chan struct{}, 8)}
	m, err := Open(Config{Dir: t.TempDir(), Engine: eng, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, m)
	grid1, grid2 := smallGrid(1000, 3), smallGrid(2000, 3)
	j1, err := m.Submit(grid1)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := m.Submit(grid2)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "two points of job 1 started", func() bool { return len(eng.startOrder()) == 2 })
	// One token at a time, so leases and engine starts happen in one
	// order. The first finished point frees an executor while job 1 still
	// has its last range open: it must take that, not job 2.
	eng.tokens <- struct{}{}
	waitFor(t, "job 1's last point started", func() bool { return len(eng.startOrder()) == 3 })
	if st := j2.Status().State; st != StateQueued {
		t.Fatalf("job 2 is %q while job 1 still had an open range", st)
	}
	// The next freed executor finds job 1 with nothing open and moves on.
	eng.tokens <- struct{}{}
	waitFor(t, "job 2's first point started", func() bool { return len(eng.startOrder()) == 4 })
	checkOrder(t, eng, grid1, 3, grid2)
	if s1, s2 := j1.Status().State, j2.Status().State; s1 != StateRunning || s2 != StateRunning {
		t.Fatalf("states %q / %q, want both running", s1, s2)
	}
	for i := 0; i < 4; i++ {
		eng.tokens <- struct{}{}
	}
	waitDone(t, j1, j2)

	t.Run("sharded first", func(t *testing.T) {
		eng := &gateEngine{tokens: make(chan struct{}, 8)}
		m, err := Open(Config{Dir: t.TempDir(), Engine: eng, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer mustClose(t, m)
		grid1, grid2 := smallGrid(3000, 3), smallGrid(4000, 3)
		sharded, err := m.SubmitSharded(grid1, ShardOptions{LeasePoints: 1})
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, "two points of the sharded job started", func() bool { return len(eng.startOrder()) == 2 })
		plain, err := m.Submit(grid2)
		if err != nil {
			t.Fatal(err)
		}
		// The freed executor takes the plain job, not the sharded job's
		// open last range.
		eng.tokens <- struct{}{}
		waitFor(t, "a third point started", func() bool { return len(eng.startOrder()) == 3 })
		if st := plain.Status().State; st != StateRunning {
			t.Fatalf("the plain job is %q while the sharded one had an open range", st)
		}
		g, err := m.Lease(sharded.ID(), "outside")
		if err != nil || g.Lo != 2 {
			t.Fatalf("outside lease = %+v, %v; want the sharded job's last range", g, err)
		}
		for i := 0; i < 4; i++ {
			eng.tokens <- struct{}{}
		}
		if err := m.CompleteLease(sharded.ID(), Partial{LeaseID: g.LeaseID, Worker: "outside", Lo: g.Lo, Hi: g.Hi, Points: runGrant(t, g)}); err != nil {
			t.Fatal(err)
		}
		waitDone(t, sharded, plain)
		checkOrder(t, eng, grid1, 2, grid2)
	})

	t.Run("plain first", func(t *testing.T) {
		eng := &gateEngine{tokens: make(chan struct{}, 8)}
		m, err := Open(Config{Dir: t.TempDir(), Engine: eng, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer mustClose(t, m)
		grid1, grid2 := smallGrid(5000, 3), smallGrid(6000, 3)
		plain, err := m.Submit(grid1)
		if err != nil {
			t.Fatal(err)
		}
		sharded, err := m.SubmitSharded(grid2, ShardOptions{LeasePoints: 1})
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, "two points of the plain job started", func() bool { return len(eng.startOrder()) == 2 })
		// Both executors are busy on the plain job; an outside worker is
		// served the sharded job's first range meanwhile.
		g, err := m.Lease(sharded.ID(), "outside")
		if err != nil || g.Lo != 0 {
			t.Fatalf("outside lease = %+v, %v; want the sharded job's first range", g, err)
		}
		eng.tokens <- struct{}{}
		waitFor(t, "the plain job's last point started", func() bool { return len(eng.startOrder()) == 3 })
		if err := m.CompleteLease(sharded.ID(), Partial{LeaseID: g.LeaseID, Worker: "outside", Lo: g.Lo, Hi: g.Hi, Points: runGrant(t, g)}); err != nil {
			t.Fatal(err)
		}
		eng.tokens <- struct{}{}
		waitFor(t, "a sharded point started in process", func() bool { return len(eng.startOrder()) == 4 })
		checkOrder(t, eng, grid1, 3, grid2)
		for i := 0; i < 4; i++ {
			eng.tokens <- struct{}{}
		}
		waitDone(t, plain, sharded)
	})
}
