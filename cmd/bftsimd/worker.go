package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"time"

	"bftbcast"
	"bftbcast/internal/jobs"
)

// worker is the pull half of the lease protocol. It finds a sharded
// running job on one coordinator and then works through that job's
// ranges back to back: it always holds the grant for its next range, and
// while one range runs it posts the previous range's partial and leases
// the range after in the background. Specs and compiled topologies are
// cached per job until the coordinator says the job is over, so
// consecutive leases of one grid share a plan.
type worker struct {
	base    string // coordinator URL, no trailing slash
	id      string
	eng     bftbcast.Engine
	workers int
	client  *http.Client
	stderr  io.Writer // where failed requests and ranges are logged
	// jobs is touched only by the goroutine running the worker loop,
	// never by the background post+lease.
	jobs map[string]*workerJob
}

type workerJob struct {
	spec *bftbcast.GridSpec
	tp   bftbcast.Topology
}

// requestTimeout bounds each list, lease and partial request from
// connect to the last body byte — the mirror of the coordinator's
// ReadHeaderTimeout. Without it a coordinator that accepts a connection
// and never answers (a stopped process, a wedged proxy) holds the worker
// until it is killed; with it the request fails, the loop logs and polls
// again, and an undelivered partial's lease expires and re-issues.
const requestTimeout = 30 * time.Second

func newWorker(coordinator, id string, eng bftbcast.Engine, workers int) *worker {
	return &worker{
		base:    strings.TrimRight(coordinator, "/"),
		id:      id,
		eng:     eng,
		workers: workers,
		client:  &http.Client{Timeout: requestTimeout},
		stderr:  io.Discard,
		jobs:    make(map[string]*workerJob),
	}
}

// runWorker is the loop behind `bftsimd -worker`: find a job, run its
// ranges, sleep when no job has one open. It returns nil when ctx fires
// (a clean SIGTERM exit) — the ranges it still holds simply expire at
// the coordinator and re-issue, which is safe because every point is
// deterministic and idempotent.
func runWorker(ctx context.Context, stdout, stderr io.Writer, coordinator, id string, eng bftbcast.Engine, workers int, poll time.Duration) error {
	w := newWorker(coordinator, id, eng, workers)
	w.stderr = stderr
	fmt.Fprintf(stdout, "bftsimd worker %s pulling from %s\n", id, w.base)
	for {
		worked, err := w.pullOnce(ctx)
		if ctx.Err() != nil {
			fmt.Fprintf(stdout, "bftsimd worker %s draining\n", id)
			return nil
		}
		w.log(err)
		if !worked {
			select {
			case <-ctx.Done():
				fmt.Fprintf(stdout, "bftsimd worker %s draining\n", id)
				return nil
			case <-time.After(poll):
			}
		}
	}
}

func (w *worker) log(err error) {
	if err != nil {
		fmt.Fprintf(w.stderr, "bftsimd worker: %v\n", err)
	}
}

// pullOnce lists the coordinator's jobs, leases a range from the first
// sharded running one and runs that job's ranges until no grant is left
// for this worker; it reports whether it ran any (the caller sleeps
// otherwise). This is the only place the worker lists jobs.
func (w *worker) pullOnce(ctx context.Context) (bool, error) {
	var list []jobs.Status
	if err := w.getJSON(ctx, "/v1/jobs", &list); err != nil {
		return false, err
	}
	leasable := func(st jobs.Status) bool { return st.Sharded && st.State == jobs.StateRunning }
	// A job that finished, was cancelled or aged out of the list will
	// never grant again: drop its decoded spec and compiled topology.
	for id := range w.jobs {
		if !slices.ContainsFunc(list, func(st jobs.Status) bool { return st.ID == id && leasable(st) }) {
			delete(w.jobs, id)
		}
	}
	for _, st := range list {
		if !leasable(st) {
			continue
		}
		grant, code, err := w.lease(ctx, st.ID)
		if err != nil {
			return false, err
		}
		if code == http.StatusOK {
			w.drive(ctx, grant)
			return true, nil
		}
	}
	return false, nil
}

// ahead is what the background half of drive brings back: the outcome
// of posting the previous range's partial, then of leasing the next
// range. code is the lease's HTTP status, 0 when none was sent.
type ahead struct {
	postErr  error
	grant    jobs.LeaseGrant
	code     int
	leaseErr error
}

// drive runs one job's ranges back to back, starting with g. While a
// range runs, a single background goroutine posts the partial of the
// range before it and then leases a range to run next, so the worker
// waits on the wire only when the coordinator is slower than a range;
// there is never more than one such goroutine, and posts go out in range
// order. drive returns — to discovery — once a lease brings back no
// grant (204, 410, 409, 503 or an error), after posting the range in
// hand. A failed range is posted at once and stops the lookahead: the
// coordinator fails the job on it. When ctx fires, drive waits for the
// request in flight and abandons the grant it holds.
func (w *worker) drive(ctx context.Context, g jobs.LeaseGrant) {
	next := w.postThenLease(ctx, g.JobID, nil)
	for {
		p, err := w.execute(ctx, g)
		a := <-next
		if ctx.Err() != nil {
			return
		}
		w.log(a.postErr)
		w.log(a.leaseErr)
		if a.code == http.StatusGone {
			delete(w.jobs, g.JobID)
		}
		if err != nil {
			// The range never ran; its lease expires and re-issues.
			w.log(err)
			return
		}
		if p.Err != "" || a.code != http.StatusOK {
			w.log(w.postPartial(ctx, g.JobID, p))
			return
		}
		g = a.grant
		next = w.postThenLease(ctx, g.JobID, &p)
	}
}

// postThenLease starts the background half of drive: post p (when not
// nil), then — unless ctx has fired — lease the job's next range. It
// touches no worker state but the HTTP client.
func (w *worker) postThenLease(ctx context.Context, jobID string, p *jobs.Partial) <-chan ahead {
	out := make(chan ahead, 1)
	go func() {
		var a ahead
		if p != nil {
			a.postErr = w.postPartial(ctx, jobID, *p)
		}
		if ctx.Err() == nil {
			a.grant, a.code, a.leaseErr = w.lease(ctx, jobID)
		}
		out <- a
	}()
	return out
}

// lease asks the coordinator for a range of one job and answers the HTTP
// status. The no-work answers (204 empty, 410 finished, 409/503 not
// leasable now) are not errors — the worker just moves on.
func (w *worker) lease(ctx context.Context, jobID string) (jobs.LeaseGrant, int, error) {
	body, err := json.Marshal(map[string]string{"worker": w.id})
	if err != nil {
		return jobs.LeaseGrant{}, 0, err
	}
	var grant jobs.LeaseGrant
	code, err := w.post(ctx, "/v1/jobs/"+jobID+"/lease", body, &grant)
	if err != nil {
		return grant, 0, err
	}
	switch code {
	case http.StatusOK, http.StatusNoContent, http.StatusGone, http.StatusConflict, http.StatusServiceUnavailable:
		return grant, code, nil
	default:
		return grant, code, fmt.Errorf("lease %s: HTTP %d", jobID, code)
	}
}

// execute runs one granted range into its partial. A point error goes
// into the partial (the coordinator fails the job — the error is
// deterministic, every worker would hit it); a shutdown mid-range or a
// spec this worker cannot build is an error, and the lease is abandoned.
func (w *worker) execute(ctx context.Context, g jobs.LeaseGrant) (jobs.Partial, error) {
	wj := w.jobs[g.JobID]
	if wj == nil {
		spec, err := bftbcast.DecodeGridSpec(g.Spec)
		if err != nil {
			return jobs.Partial{}, fmt.Errorf("lease %s spec: %w", g.LeaseID, err)
		}
		tp, err := bftbcast.NewTopology(spec.Base.Topology)
		if err != nil {
			return jobs.Partial{}, fmt.Errorf("lease %s topology: %w", g.LeaseID, err)
		}
		wj = &workerJob{spec: spec, tp: tp}
		w.jobs[g.JobID] = wj
	}
	recs, err := jobs.RunRange(ctx, w.eng, w.workers, g.JobID, wj.spec, wj.tp, g.Lo, g.Hi, nil)
	p := jobs.Partial{LeaseID: g.LeaseID, Worker: w.id, Lo: g.Lo, Hi: g.Hi}
	if err != nil {
		if ctx.Err() != nil {
			return p, err
		}
		p.Err = err.Error()
	} else {
		p.Points = recs
	}
	return p, nil
}

// postPartial delivers a completed range, retrying transient failures;
// a partial it cannot deliver is abandoned (the lease expires and the
// range re-issues). A request already sent is not cut short by ctx —
// the range is computed, so a shutdown waits for it, bounded by
// requestTimeout — but no retry starts after ctx fires.
func (w *worker) postPartial(ctx context.Context, jobID string, p jobs.Partial) error {
	body, err := json.Marshal(p)
	if err != nil {
		return err
	}
	var last error
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(time.Duration(attempt) * 500 * time.Millisecond):
			}
		}
		code, err := w.post(context.WithoutCancel(ctx), "/v1/jobs/"+jobID+"/partial", body, nil)
		if err != nil {
			last = err
			continue
		}
		switch {
		case code == http.StatusOK:
			return nil
		case code >= 500:
			last = fmt.Errorf("partial [%d,%d): HTTP %d", p.Lo, p.Hi, code)
		default:
			// 400/404/409/410: the coordinator will never take it.
			return fmt.Errorf("partial [%d,%d) rejected: HTTP %d", p.Lo, p.Hi, code)
		}
	}
	return last
}

func (w *worker) getJSON(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (w *worker) post(ctx context.Context, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
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
