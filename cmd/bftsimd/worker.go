package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"bftbcast"
	"bftbcast/internal/jobs"
)

// worker is the pull half of the lease protocol: a pool of serial
// executors, each the daemon's own executor loop over HTTP (runJob).
// Specs and compiled topologies are cached per job, shared by the
// executors, until the coordinator says the job is over, so consecutive
// leases of one grid share a plan.
type worker struct {
	base   string // coordinator URL, no trailing slash
	id     string
	eng    bftbcast.Engine
	client *http.Client
	stderr io.Writer // where failed requests and ranges are logged

	mu   sync.Mutex
	jobs map[string]*workerJob
}

// workerJob is one cached job. once builds it outside w.mu, so a compile
// stalls only the executors granted the same job; only a job list
// fetched after added may evict it.
type workerJob struct {
	once  sync.Once
	spec  *bftbcast.GridSpec
	tp    bftbcast.Topology
	err   error
	added time.Time
}

// requestTimeout bounds each list, lease and partial request from
// connect to the last body byte — the mirror of the coordinator's
// ReadHeaderTimeout. Without it a coordinator that accepts a connection
// and never answers (a stopped process, a wedged proxy) holds the worker
// until it is killed; with it the request fails, the loop logs and polls
// again, and an undelivered partial's lease expires and re-issues.
const requestTimeout = 30 * time.Second

func newWorker(coordinator, id string, eng bftbcast.Engine) *worker {
	return &worker{
		base:   strings.TrimRight(coordinator, "/"),
		id:     id,
		eng:    eng,
		client: &http.Client{Timeout: requestTimeout},
		stderr: io.Discard,
		jobs:   make(map[string]*workerJob),
	}
}

// runWorker is `bftsimd -worker`: it runs `executors` executors (<= 0
// means NumCPU), each finding a job, running its ranges and sleeping when
// no job has one open. It returns nil when ctx fires (a clean SIGTERM
// exit) and every executor has finished its request in flight — the
// ranges they still hold simply expire at the coordinator and re-issue,
// which is safe because every point is deterministic and idempotent.
func runWorker(ctx context.Context, stdout, stderr io.Writer, coordinator, id string, eng bftbcast.Engine, executors int, poll time.Duration) error {
	w := newWorker(coordinator, id, eng)
	w.stderr = stderr
	if executors <= 0 {
		executors = runtime.NumCPU()
	}
	fmt.Fprintf(stdout, "bftsimd worker %s pulling from %s\n", id, w.base)
	var wg sync.WaitGroup
	for range executors {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				worked, err := w.pullOnce(ctx)
				if ctx.Err() != nil {
					return
				}
				w.log(err)
				if !worked {
					select {
					case <-ctx.Done():
					case <-time.After(poll):
					}
				}
			}
		}()
	}
	wg.Wait()
	fmt.Fprintf(stdout, "bftsimd worker %s draining\n", id)
	return nil
}

func (w *worker) log(err error) {
	if err != nil {
		fmt.Fprintf(w.stderr, "bftsimd worker: %v\n", err)
	}
}

// pullOnce lists the coordinator's jobs, leases a range from the first
// sharded running one and runs that job's ranges until no grant is left
// for this executor; it reports whether it ran any (the caller sleeps
// otherwise). This is the only place an executor lists jobs.
func (w *worker) pullOnce(ctx context.Context) (bool, error) {
	listed := time.Now()
	var list []jobs.Status
	if code, err := w.do(ctx, http.MethodGet, "/v1/jobs", nil, &list); err != nil || code != http.StatusOK {
		return false, cmp.Or(err, fmt.Errorf("GET /v1/jobs: HTTP %d", code))
	}
	leasable := func(st jobs.Status) bool { return st.Sharded && st.State == jobs.StateRunning }
	// A job that finished, was cancelled or aged out of the list will
	// never grant again: drop its decoded spec and compiled topology. An
	// entry another executor added after this list was asked for stays.
	w.mu.Lock()
	for id, wj := range w.jobs {
		if wj.added.Before(listed) && !slices.ContainsFunc(list, func(st jobs.Status) bool { return st.ID == id && leasable(st) }) {
			delete(w.jobs, id)
		}
	}
	w.mu.Unlock()
	for _, st := range list {
		if !leasable(st) {
			continue
		}
		grant, code, err := w.lease(ctx, st.ID)
		if err != nil {
			return false, err
		}
		if code == http.StatusOK {
			w.runJob(ctx, grant)
			return true, nil
		}
	}
	return false, nil
}

// runJob runs one job's ranges back to back on one core, starting with
// g. While a range runs, one background request posts the range before
// it and then leases the range after, so the core waits on the wire only
// when the coordinator is slower than a range. runJob returns once a
// lease brings no grant (204, 410, 409, 503 or an error), after posting
// the range in hand, or after posting a failed range: a point error is
// deterministic, and the coordinator fails the job on it. A spec this
// worker cannot build, or a shutdown, abandons the grants held: their
// leases expire and re-issue. On shutdown runJob waits for the request
// in flight and logs nothing the shutdown caused.
func (w *worker) runJob(ctx context.Context, g jobs.LeaseGrant) {
	jobID := g.JobID
	type leased struct {
		postErr, leaseErr error
		grant             jobs.LeaseGrant
		code              int
	}
	postThenLease := func(p *jobs.Partial) <-chan leased {
		out := make(chan leased, 1)
		go func() {
			var l leased
			if p != nil {
				l.postErr = w.postPartial(ctx, jobID, *p)
			}
			if ctx.Err() == nil {
				l.grant, l.code, l.leaseErr = w.lease(ctx, jobID)
			}
			out <- l
		}()
		return out
	}
	next := postThenLease(nil)
	for {
		p := jobs.Partial{LeaseID: g.LeaseID, Worker: w.id, Lo: g.Lo, Hi: g.Hi}
		wj, err := w.job(g)
		if err == nil {
			if p.Points, err = jobs.RunRange(ctx, w.eng, 1, jobID, wj.spec, wj.tp, g.Lo, g.Hi, nil); err != nil && ctx.Err() == nil {
				p.Err, err = err.Error(), nil
			}
		}
		l := <-next
		if ctx.Err() != nil {
			return
		}
		w.log(l.postErr)
		w.log(l.leaseErr)
		if l.code == http.StatusGone {
			w.mu.Lock()
			delete(w.jobs, jobID)
			w.mu.Unlock()
		}
		if err != nil {
			w.log(err)
			return
		}
		if p.Err != "" || l.code != http.StatusOK {
			w.log(w.postPartial(ctx, jobID, p))
			return
		}
		g = l.grant
		next = postThenLease(&p)
	}
}

// lease asks the coordinator for a range of one job and answers the HTTP
// status. The no-work answers (204 empty, 410 finished, 409/503 not
// leasable now) are not errors — the executor just moves on.
func (w *worker) lease(ctx context.Context, jobID string) (jobs.LeaseGrant, int, error) {
	body, _ := json.Marshal(map[string]string{"worker": w.id}) // a string map always encodes
	var grant jobs.LeaseGrant
	code, err := w.do(ctx, http.MethodPost, "/v1/jobs/"+jobID+"/lease", body, &grant)
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

// job returns the cached spec and topology of g's job, decoding and
// compiling them on the job's first grant. Executors granted one new job
// build it once; the others never wait for the compile.
func (w *worker) job(g jobs.LeaseGrant) (*workerJob, error) {
	w.mu.Lock()
	wj := w.jobs[g.JobID]
	if wj == nil {
		wj = &workerJob{added: time.Now()}
		w.jobs[g.JobID] = wj
	}
	w.mu.Unlock()
	wj.once.Do(func() {
		if wj.spec, wj.err = bftbcast.DecodeGridSpec(g.Spec); wj.err == nil {
			wj.tp, wj.err = bftbcast.NewTopology(wj.spec.Base.Topology)
		}
		if wj.err != nil {
			wj.err = fmt.Errorf("job %s: %w", g.JobID, wj.err)
		}
	})
	return wj, wj.err
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
		code, err := w.do(context.WithoutCancel(ctx), http.MethodPost, "/v1/jobs/"+jobID+"/partial", body, nil)
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

// do sends one request and answers its HTTP status, decoding a 200
// answer's body into out when out is not nil.
func (w *worker) do(ctx context.Context, method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, w.base+path, bytes.NewReader(body))
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
