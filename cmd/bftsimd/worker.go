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

// worker is the pull half of the lease protocol: it polls one
// coordinator for sharded running jobs, runs granted ranges on the local
// engine and posts the partials back. Specs and compiled topologies
// are cached per job for as long as the coordinator lists the job as
// leasable, so consecutive leases of one grid share a plan.
type worker struct {
	base    string // coordinator URL, no trailing slash
	id      string
	eng     bftbcast.Engine
	workers int
	client  *http.Client
	jobs    map[string]*workerJob
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
		jobs:    make(map[string]*workerJob),
	}
}

// runWorker is the loop behind `bftsimd -worker`: pull, run, post,
// sleep when idle. It returns nil when ctx fires (a clean SIGTERM
// exit) — a lease abandoned mid-range simply expires at the
// coordinator and re-issues, which is safe because every point is
// deterministic and idempotent.
func runWorker(ctx context.Context, stdout, stderr io.Writer, coordinator, id string, eng bftbcast.Engine, workers int, poll time.Duration) error {
	w := newWorker(coordinator, id, eng, workers)
	fmt.Fprintf(stdout, "bftsimd worker %s pulling from %s\n", id, w.base)
	for {
		worked, err := w.pullOnce(ctx)
		if ctx.Err() != nil {
			fmt.Fprintf(stdout, "bftsimd worker %s draining\n", id)
			return nil
		}
		if err != nil {
			fmt.Fprintf(stderr, "bftsimd worker: %v\n", err)
		}
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

// pullOnce tries to lease and execute one range from any sharded
// running job; it reports whether it did work (the caller sleeps
// otherwise).
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
		grant, ok, err := w.lease(ctx, st.ID)
		if err != nil {
			return false, err
		}
		if !ok {
			continue
		}
		return true, w.execute(ctx, grant)
	}
	return false, nil
}

// lease asks the coordinator for a range of one job. The no-work
// answers (204 empty, 410 finished, 409/503 not leasable now) are not
// errors — the worker just moves on.
func (w *worker) lease(ctx context.Context, jobID string) (jobs.LeaseGrant, bool, error) {
	body, err := json.Marshal(map[string]string{"worker": w.id})
	if err != nil {
		return jobs.LeaseGrant{}, false, err
	}
	var grant jobs.LeaseGrant
	code, err := w.post(ctx, "/v1/jobs/"+jobID+"/lease", body, &grant)
	if err != nil {
		return grant, false, err
	}
	switch code {
	case http.StatusOK:
		return grant, true, nil
	case http.StatusNoContent, http.StatusGone, http.StatusConflict, http.StatusServiceUnavailable:
		return grant, false, nil
	default:
		return grant, false, fmt.Errorf("lease %s: HTTP %d", jobID, code)
	}
}

// execute runs one granted range and posts the partial. A point error
// is reported to the coordinator (which fails the job — the error is
// deterministic, every worker would hit it); a shutdown mid-range
// abandons the lease instead.
func (w *worker) execute(ctx context.Context, g jobs.LeaseGrant) error {
	wj := w.jobs[g.JobID]
	if wj == nil {
		spec, err := bftbcast.DecodeGridSpec(g.Spec)
		if err != nil {
			return fmt.Errorf("lease %s spec: %w", g.LeaseID, err)
		}
		tp, err := bftbcast.NewTopology(spec.Base.Topology)
		if err != nil {
			return fmt.Errorf("lease %s topology: %w", g.LeaseID, err)
		}
		wj = &workerJob{spec: spec, tp: tp}
		w.jobs[g.JobID] = wj
	}
	recs, err := jobs.RunRange(ctx, w.eng, w.workers, g.JobID, wj.spec, wj.tp, g.Lo, g.Hi, nil)
	p := jobs.Partial{LeaseID: g.LeaseID, Worker: w.id, Lo: g.Lo, Hi: g.Hi}
	if err != nil {
		if ctx.Err() != nil {
			return err
		}
		p.Err = err.Error()
	} else {
		p.Points = recs
	}
	return w.postPartial(ctx, g.JobID, p)
}

// postPartial delivers a completed range, retrying transient failures;
// a partial it cannot deliver is abandoned (the lease expires and the
// range re-issues).
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
		code, err := w.post(ctx, "/v1/jobs/"+jobID+"/partial", body, nil)
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
