package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"bftbcast"
	"bftbcast/internal/jobs"
	"bftbcast/internal/plan"
	"bftbcast/internal/stats"
)

// tracedJobs is how many jobs the traced pass measures per phase, after
// one warm-up job.
const tracedJobs = 2

// traceDaemon is the traced pass of a daemon workload. The layers under
// the daemon (specjson, jobs, stats) are timed in this process through
// their public functions; the daemon itself is timed from outside with a
// span around every HTTP call. On the sharded workload the harness plays
// the two pull workers itself for the spanned jobs, after measuring the
// CPU of a coordinator and two real worker processes on untraced jobs.
func traceDaemon(name string, spec *daemonSpec, cfg runConfig) (*report, error) {
	rep := newReport()
	tr := newTracer()
	bin, err := buildDaemon()
	if err != nil {
		return nil, err
	}
	grid := daemonGrid(cfg.seed)
	body, err := grid.Encode()
	if err != nil {
		return nil, err
	}

	want, err := traceJobLayers(rep, tr, grid, body)
	if err != nil {
		return nil, err
	}

	c, err := startCluster(bin, spec, spec.pullWorkers)
	if err != nil {
		return nil, err
	}
	defer c.stop()
	rep.set("bftsimd.boot_s", c.boot)
	if _, err := c.runJob(rep, spec, body, want, nil, 0); err != nil {
		return nil, err
	}

	// jobsWith runs the measured jobs, spanned when tr is not nil.
	jobsWith := func(tr *tracer) (results []jobResult, err error) {
		for op := 1; op <= tracedJobs; op++ {
			res, err := c.runJob(rep, spec, body, want, tr, op)
			if err != nil {
				return nil, err
			}
			results = append(results, res)
		}
		return results, nil
	}
	var results []jobResult
	coordCPU, workerCPU, err := c.cpuSeconds()
	if err != nil {
		return nil, err
	}
	if spec.pullWorkers == 0 {
		// No pull workers: the spanned jobs are also the ones whose CPU
		// is read.
		if results, err = jobsWith(tr); err != nil {
			return nil, err
		}
	} else if _, err := jobsWith(nil); err != nil {
		return nil, err
	}
	coordAfter, workerAfter, err := c.cpuSeconds()
	if err != nil {
		return nil, err
	}
	rep.set("bftsimd.coordinator_cpu_s_per_job", (coordAfter-coordCPU)/tracedJobs)
	if spec.pullWorkers > 0 {
		rep.set("bftsimd.worker_cpu_s_per_job", (workerAfter-workerCPU)/tracedJobs)

		c.stopWorkers()
		pool := startPullWorkers(c, tr, spec.pullWorkers)
		results, err = jobsWith(tr)
		if werr := pool.stop(); err == nil {
			err = werr
		}
		if err != nil {
			return nil, err
		}
		// A job's tail lag: the last accepted partial before its summary
		// line → that line.
		walls := 0.0
		var lags []float64
		for _, res := range results {
			walls += res.wall
			if last := pool.lastPartialBefore(res.summaryAt); !last.IsZero() {
				lags = append(lags, res.summaryAt.Sub(last).Seconds())
			}
		}
		busy := 0.0
		for _, d := range tr.durations("jobs.run_range") {
			busy += d
		}
		rep.set("bftsimd.worker_busy_share", busy/(float64(spec.pullWorkers)*walls))
		rep.set("bftsimd.list_rtt_s_p50", median(tr.durations("list")))
		rep.set("bftsimd.lease_rtt_s_p50", median(tr.durations("lease")))
		rep.set("bftsimd.partial_rtt_s_p50", median(tr.durations("partial")))
		rep.set("bftsimd.partial_bytes", mean(pool.partialBytes()))
		rep.set("bftsimd.tail_lag_s", median(lags))
	}

	var firsts, dropped []float64
	for _, res := range results {
		if res.firstPoint > 0 {
			firsts = append(firsts, res.firstPoint)
		}
		dropped = append(dropped, float64(res.dropped))
	}
	rep.set("bftsimd.submit_rtt_s", median(tr.durations("submit")))
	rep.set("bftsimd.first_point_s", median(firsts))
	rep.set("bftsimd.results_dropped", mean(dropped))

	path, err := tr.write(name)
	if err != nil {
		return nil, err
	}
	rep.note("%d spans written to %s", len(tr.spans), path)
	return rep, nil
}

// cpuSeconds reads the CPU time the coordinator and, summed, its workers
// have used so far.
func (c *cluster) cpuSeconds() (coord, workers float64, err error) {
	if coord, err = cpuSeconds(c.coord.Process.Pid); err != nil {
		return 0, 0, err
	}
	for _, w := range c.workers {
		s, err := cpuSeconds(w.Process.Pid)
		if err != nil {
			return 0, 0, err
		}
		workers += s
	}
	return coord, workers, nil
}

// traceJobLayers times the layers under the daemon in this process and
// returns the reference aggregate of the grid.
func traceJobLayers(rep *report, tr *tracer, grid *bftbcast.GridSpec, body []byte) ([]byte, error) {
	ctx := context.Background()

	var decodes, expands, builds, compiles []float64
	var tp bftbcast.Topology
	for i := 0; i < 9; i++ {
		d, err := tr.timed(0, -1, "specjson", "specjson.decode", func() error { _, err := bftbcast.DecodeGridSpec(body); return err })
		if err != nil {
			return nil, err
		}
		decodes = append(decodes, d)
		d, err = tr.timed(0, -1, "topo", "topo.build", func() (err error) { tp, err = bftbcast.NewTopology(grid.Base.Topology); return err })
		if err != nil {
			return nil, err
		}
		builds = append(builds, d)
		d, _ = tr.timed(0, -1, "plan", "plan.compile", func() error { plan.Compute(tp); return nil })
		compiles = append(compiles, d)
		d, err = tr.timed(0, -1, "specjson", "specjson.expand", func() error { _, err := grid.ScenariosOn(tp, 0, gridPoints); return err })
		if err != nil {
			return nil, err
		}
		expands = append(expands, d)
	}
	rep.set("specjson.decode_s", median(decodes))
	rep.set("specjson.expand_ns_per_point", median(expands)*1e9/gridPoints)
	rep.set("topo.build_s", median(builds))
	rep.set("plan.compile_s", median(compiles))

	// The two schedulers without HTTP, each at two workers.
	want, wall, checkpoint, err := inProcessJob(grid, jobs.Config{Workers: 2}, nil)
	if err != nil {
		return nil, err
	}
	rep.set("jobs.fifo_points_per_s", gridPoints/wall)
	rep.set("jobs.checkpoint_bytes", float64(checkpoint))
	// Two shard executors completing leases side by side can lose the
	// known checkpoint rename race and fail the job; that is a failed op,
	// counted, and its metric has no value in this run.
	sharded, wall, _, err := inProcessJob(grid, jobs.Config{ShardExecutors: 2}, &jobs.ShardOptions{LeasePoints: 16})
	switch {
	case errors.Is(err, errJobFailed):
		rep.opFailed("%v", err)
		rep.unavailable(err.Error(), "jobs.sharded_points_per_s")
	case err != nil:
		return nil, err
	default:
		rep.set("jobs.sharded_points_per_s", gridPoints/wall)
		rep.check(bytes.Equal(sharded, want), "in-process sharded aggregate differs from the unsharded one")
	}

	// The lease protocol call by call: this goroutine is the only worker.
	dir, err := scratchDir("leases-*")
	if err != nil {
		return nil, err
	}
	defer removeScratch(dir)
	m, err := jobs.Open(jobs.Config{Dir: dir})
	if err != nil {
		return nil, err
	}
	defer m.Close(ctx)
	job, err := m.SubmitSharded(grid, jobs.ShardOptions{LeasePoints: 16})
	if err != nil {
		return nil, err
	}
	var records []jobs.PointRecord
	for {
		var grant jobs.LeaseGrant
		_, err := tr.timed(0, -1, "jobs", "jobs.lease", func() (err error) { grant, err = m.Lease(job.ID(), "bench"); return err })
		if errors.Is(err, jobs.ErrJobDone) || errors.Is(err, jobs.ErrNoWork) {
			break
		}
		if err != nil {
			return nil, err
		}
		var recs []jobs.PointRecord
		_, err = tr.timed(0, -1, "jobs", "jobs.run_range_inprocess", func() (err error) {
			recs, err = jobs.RunRange(ctx, bftbcast.EngineFast, 1, grant.JobID, grid, tp, grant.Lo, grant.Hi, nil)
			return err
		})
		if err != nil {
			return nil, err
		}
		records = append(records, recs...)
		_, err = tr.timed(0, -1, "jobs", "jobs.complete_lease", func() error {
			return m.CompleteLease(job.ID(), jobs.Partial{LeaseID: grant.LeaseID, Worker: "bench", Lo: grant.Lo, Hi: grant.Hi, Points: recs})
		})
		if err != nil {
			return nil, err
		}
	}
	rep.set("jobs.lease_s_p50", median(tr.durations("jobs.lease")))
	rep.set("jobs.run_range_s_p50", median(tr.durations("jobs.run_range_inprocess")))
	rep.set("jobs.complete_lease_s_p50", median(tr.durations("jobs.complete_lease")))
	var aggTimes []float64
	var agg []byte
	for i := 0; i < 21; i++ {
		d, err := tr.timed(0, -1, "jobs", "jobs.aggregate_json", func() (err error) { agg, err = job.AggregateJSON(); return err })
		if err != nil {
			return nil, err
		}
		aggTimes = append(aggTimes, d)
	}
	rep.set("jobs.aggregate_json_s", median(aggTimes))
	rep.set("jobs.aggregate_bytes", float64(len(agg)))
	rep.check(job.Status().State == jobs.StateDone && bytes.Equal(agg, want),
		"lease-by-lease job ended %s; its aggregate equals the unsharded one: %v", job.Status().State, bytes.Equal(agg, want))

	const folds = 64
	d, _ := tr.timed(0, -1, "jobs", "jobs.add_record", func() error {
		for i := 0; i < folds; i++ {
			a := jobs.NewAggregate()
			for _, rec := range records {
				a.AddRecord(rec)
			}
		}
		return nil
	})
	rep.set("jobs.add_record_ns", d*1e9/float64(folds*len(records)))

	sketch := stats.NewQSketch()
	d, _ = tr.timed(0, -1, "stats", "stats.sketch_add", func() error {
		for i := 0; i < folds; i++ {
			for _, rec := range records {
				sketch.Add(float64(rec.Slots))
			}
		}
		return nil
	})
	rep.set("stats.sketch_add_ns", d*1e9/float64(folds*len(records)))
	const quantiles = 1 << 12
	sink := 0.0
	d, _ = tr.timed(0, -1, "stats", "stats.sketch_quantile", func() error {
		for i := 0; i < quantiles; i++ {
			sink += sketch.Quantile(float64(i%100) / 100)
		}
		return nil
	})
	rep.set("stats.sketch_quantile_ns", d*1e9/quantiles)
	ranges := 0
	d, _ = tr.timed(0, -1, "stats", "stats.cursor_fold", func() error {
		for i := 0; i < folds; i++ {
			cur := stats.NewRangeCursor(gridPoints, 16)
			for lo := 0; lo < gridPoints; lo += 16 {
				cur.MarkPending(lo)
				if next, _, ok := cur.NextFoldable(); ok {
					cur.Fold(next)
					ranges++
				}
			}
		}
		return nil
	})
	rep.set("stats.cursor_fold_ns", d*1e9/float64(ranges))
	if sink < 0 {
		rep.note("unreachable") // keeps the quantile loop's result live
	}
	return want, nil
}

// pullWorkers are the harness playing bftsimd's pull workers: the same
// list → lease → run → partial loop as cmd/bftsimd's worker, one
// goroutine and one HTTP client each, with a span around every call.
type pullWorkers struct {
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu       sync.Mutex
	err      error
	ops      map[string]int // job id → op, in order of first sight
	bytes    []float64
	partials []time.Time // when each partial was accepted
}

// opOf numbers the jobs the workers see. Jobs run one at a time, so the
// n-th job seen is the n-th spanned op of the main loop.
func (p *pullWorkers) opOf(jobID string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.ops[jobID]; !ok {
		p.ops[jobID] = len(p.ops) + 1
	}
	return p.ops[jobID]
}

func startPullWorkers(c *cluster, tr *tracer, n int) *pullWorkers {
	ctx, cancel := context.WithCancel(context.Background())
	p := &pullWorkers{cancel: cancel, ops: map[string]int{}}
	for i := 0; i < n; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			w := &pullWorker{pool: p, base: c.base, id: fmt.Sprintf("bench-%d", i), tr: tr,
				client: &http.Client{Transport: &http.Transport{}}, jobs: map[string]*pulledJob{}}
			defer w.client.CloseIdleConnections()
			for ctx.Err() == nil {
				worked, err := w.pullOnce(ctx)
				if err != nil && ctx.Err() == nil {
					p.mu.Lock()
					if p.err == nil {
						p.err = err
					}
					p.mu.Unlock()
					return
				}
				if !worked {
					select {
					case <-ctx.Done():
					case <-time.After(10 * time.Millisecond):
					}
				}
			}
		}()
	}
	return p
}

// stop ends the workers, waits for them and returns the first error one
// of them hit.
func (p *pullWorkers) stop() error {
	p.cancel()
	p.wg.Wait()
	return p.err
}

func (p *pullWorkers) partialBytes() []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]float64(nil), p.bytes...)
}

// lastPartialBefore returns when the last partial before t was accepted.
func (p *pullWorkers) lastPartialBefore(t time.Time) time.Time {
	p.mu.Lock()
	defer p.mu.Unlock()
	var last time.Time
	for _, at := range p.partials {
		if at.Before(t) && at.After(last) {
			last = at
		}
	}
	return last
}

type pullWorker struct {
	pool   *pullWorkers
	base   string
	id     string
	tr     *tracer
	client *http.Client
	jobs   map[string]*pulledJob
}

// pulledJob is a worker's per-job cache: every worker decodes the spec
// and compiles the topology once per job, as bftsimd's worker does.
type pulledJob struct {
	spec *bftbcast.GridSpec
	tp   bftbcast.Topology
}

func (w *pullWorker) pullOnce(ctx context.Context) (bool, error) {
	var list []jobs.Status
	sp := w.tr.begin(0, 0, "bftsimd", "list")
	code, err := w.call(ctx, http.MethodGet, "/v1/jobs", nil, &list)
	w.tr.end(sp)
	if err != nil || code != http.StatusOK {
		return false, fmt.Errorf("list jobs: HTTP %d: %v", code, err)
	}
	for _, st := range list {
		if !st.Sharded || st.State != jobs.StateRunning {
			continue
		}
		body, _ := json.Marshal(map[string]string{"worker": w.id})
		var grant jobs.LeaseGrant
		op := w.pool.opOf(st.ID)
		sp := w.tr.begin(w.tr.find(op, "job"), op, "bftsimd", "lease")
		code, err := w.call(ctx, http.MethodPost, "/v1/jobs/"+st.ID+"/lease", body, &grant)
		w.tr.end(sp)
		if err != nil {
			return false, err
		}
		if code != http.StatusOK {
			continue // nothing open right now, or the job just finished
		}
		return true, w.execute(ctx, grant)
	}
	return false, nil
}

func (w *pullWorker) execute(ctx context.Context, g jobs.LeaseGrant) error {
	pj := w.jobs[g.JobID]
	if pj == nil {
		spec, err := bftbcast.DecodeGridSpec(g.Spec)
		if err != nil {
			return err
		}
		tp, err := bftbcast.NewTopology(spec.Base.Topology)
		if err != nil {
			return err
		}
		pj = &pulledJob{spec: spec, tp: tp}
		w.jobs[g.JobID] = pj
	}
	op := w.pool.opOf(g.JobID)
	root := w.tr.find(op, "job")
	var recs []jobs.PointRecord
	_, err := w.tr.timed(root, op, "jobs", "jobs.run_range", func() (err error) {
		recs, err = jobs.RunRange(ctx, bftbcast.EngineFast, 1, g.JobID, pj.spec, pj.tp, g.Lo, g.Hi, nil)
		return err
	})
	if err != nil {
		return err
	}
	body, err := json.Marshal(jobs.Partial{LeaseID: g.LeaseID, Worker: w.id, Lo: g.Lo, Hi: g.Hi, Points: recs})
	if err != nil {
		return err
	}
	sp := w.tr.begin(root, op, "bftsimd", "partial")
	code, err := w.call(ctx, http.MethodPost, "/v1/jobs/"+g.JobID+"/partial", body, nil)
	w.tr.end(sp)
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("partial [%d,%d): HTTP %d: %v", g.Lo, g.Hi, code, err)
	}
	w.pool.mu.Lock()
	w.pool.bytes = append(w.pool.bytes, float64(len(body)))
	w.pool.partials = append(w.pool.partials, time.Now())
	w.pool.mu.Unlock()
	return nil
}

// call makes one request and decodes a 200 reply into out.
func (w *pullWorker) call(ctx context.Context, method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, w.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}
