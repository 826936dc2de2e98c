// Command bftsimd is the long-running sweep service: an HTTP daemon
// that accepts JSON scenario-grid jobs, cuts each grid's deterministic
// point list into contiguous ranges that workers lease, run and hand
// back, folds completed ranges in point order into a constant-memory
// aggregate, checkpoints progress so a killed daemon resumes without
// recomputing completed ranges, and streams per-point results as NDJSON
// as they fold.
//
// API (all under -addr):
//
//	POST /v1/jobs                submit a grid document (see GridSpec);
//	                             202 + job status, 400 on a bad spec,
//	                             503 when the queue is full or draining.
//	                             ?sharded=1 lets external workers lease
//	                             the job's ranges; ?lease_points= and
//	                             ?lease_ttl= tune the geometry
//	GET  /v1/jobs                list all known jobs, submission order
//	GET  /v1/jobs/{id}           one job's status + aggregate summary
//	GET  /v1/jobs/{id}/results   NDJSON live tail: one line per point,
//	                             then a final {"summary": ...} line
//	POST /v1/jobs/{id}/cancel    cancel a queued or running job
//	POST /v1/jobs/{id}/lease     pull the next open range of a sharded
//	                             job (200 grant, 204 none open now,
//	                             410 job finished, 409 not sharded);
//	                             waits while only the daemon's own
//	                             executors hold what is left
//	POST /v1/jobs/{id}/partial   deliver a completed range's records
//	GET  /v1/jobs/{id}/aggregate raw aggregate state bytes
//	GET  /healthz                liveness
//
// Every job runs the same way: the daemon's own -workers executors lease
// the ranges of every job, and ?sharded=1 only lets outside workers pull
// too. The executors serve the plain jobs before the sharded ones, each
// in submission order, since outside workers can serve only the latter;
// an executor moves to a later job only when every earlier one has no
// open range. Plain jobs are cut into ranges sized from the grid, and
// -queue bounds how many may wait for their first one. A sharded
// submission skips the queue and serves leases at once, to the
// executors and to any number of outside workers: `bftsimd -worker
// -coordinator URL` is the matching pull worker, and `-workers -1`
// leaves sharded jobs to them alone (plain jobs submitted to such a
// daemon queue and checkpoint but run only once a daemon with executors
// reopens its -dir). Either way the coordinator folds ranges in global
// point order, so the final aggregate is byte-identical however the
// work was spread.
// Outside leases carry deadlines: a worker that dies mid-range simply
// lets its lease expire and the range is re-issued (points are
// deterministic and idempotent).
//
// A pull worker is a pool of -workers serial executors, the daemon's own
// loop over HTTP: each lists jobs only when it holds no grant, then
// stays on one job, leasing a range, running it on one core and posting
// its partial, until a lease brings no grant (204, 410, 409, 503). The
// post and the next lease go out while the following range runs, so an
// executor holds up to two ranges and waits on the wire only when the
// coordinator is slower than a range.
// -poll paces the listing alone. On SIGTERM every executor waits for its
// request in flight and exits; a grant still held expires and re-issues.
//
// SIGTERM/SIGINT drain gracefully: every unfinished job is parked with
// its folded prefix and its completed ranges checkpointed, and a daemon
// restarted on the same -dir picks all of them up where they stopped. -retain/-retain-age garbage-collect terminal
// job checkpoints.
//
// Example (one coordinator, two remote workers):
//
//	bftsimd -addr 127.0.0.1:8580 -dir /var/tmp/bftsimd &
//	bftsimd -worker -coordinator http://127.0.0.1:8580 &
//	bftsimd -worker -coordinator http://127.0.0.1:8580 &
//	curl -s -X POST --data-binary @grid.json 'localhost:8580/v1/jobs?sharded=1'
//	curl -s localhost:8580/v1/jobs/<id>/aggregate
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"bftbcast"
	"bftbcast/internal/jobs"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "bftsimd: %v\n", err)
		os.Exit(1)
	}
}

// run is the whole daemon behind a testable seam: it serves until ctx
// fires or a termination signal arrives, then drains and returns. The
// listen address (with the resolved port) is announced on stdout.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bftsimd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", "127.0.0.1:8580", "listen address (port 0 picks a free port)")
		dir          = fs.String("dir", "bftsimd-jobs", "checkpoint directory; reopening resumes its jobs")
		workers      = fs.Int("workers", 0, "in-process executors leasing the ranges of every job, plain or sharded (0 = NumCPU, -1 = none: sharded jobs go to pull workers only, plain jobs queue but never run); in -worker mode, the executors leasing from -coordinator (<= 0 = NumCPU)")
		queue        = fs.Int("queue", 64, "non-sharded jobs that may wait for their first range; beyond it submissions get 503")
		ckptEvery    = fs.Int("checkpoint-every", 64, "checkpoint cadence in completed points")
		ckptInterval = fs.Duration("checkpoint-interval", 250*time.Millisecond, "min time between mid-run checkpoint writes (negative = every count)")
		drainAfter   = fs.Duration("drain-timeout", 30*time.Second, "graceful-drain budget on shutdown")

		leasePoints = fs.Int("lease-points", 64, "default points per lease for sharded submissions")
		leaseTTL    = fs.Duration("lease-ttl", 30*time.Second, "default lease deadline; expired leases re-issue")
		retain      = fs.Int("retain", 0, "keep at most N terminal job checkpoints (0 = all)")
		retainAge   = fs.Duration("retain-age", 0, "expire terminal job checkpoints older than this (0 = never)")

		workerMode  = fs.Bool("worker", false, "run as a pull worker of -coordinator instead of a daemon")
		coordinator = fs.String("coordinator", "", "coordinator base URL for -worker mode")
		workerID    = fs.String("worker-id", "", "worker name reported on leases (default host-pid)")
		poll        = fs.Duration("poll", 500*time.Millisecond, "in -worker mode, the pause before listing jobs again when none had an open range")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workerMode {
		if *coordinator == "" {
			return errors.New("-worker requires -coordinator URL")
		}
		id := *workerID
		if id == "" {
			host, _ := os.Hostname()
			id = fmt.Sprintf("%s-%d", host, os.Getpid())
		}
		ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
		defer stop()
		return runWorker(ctx, stdout, stderr, *coordinator, id, bftbcast.EngineFast, *workers, *poll)
	}
	mgr, err := jobs.Open(jobs.Config{
		Dir:                *dir,
		Workers:            *workers,
		MaxQueue:           *queue,
		CheckpointEvery:    *ckptEvery,
		CheckpointInterval: *ckptInterval,
		Retain:             *retain,
		RetainAge:          *retainAge,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		drain(mgr, *drainAfter)
		return err
	}
	srv := newServer(newHandler(mgr, *leasePoints, *leaseTTL))
	fmt.Fprintf(stdout, "bftsimd listening on %s (checkpoints in %s)\n", ln.Addr(), *dir)

	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	select {
	case err := <-serveErr:
		drain(mgr, *drainAfter)
		return err
	case <-ctx.Done():
	}

	fmt.Fprintf(stdout, "bftsimd draining\n")
	// Park the jobs first: that closes every live result stream, so the
	// streaming handlers return and Shutdown's handler-wait terminates.
	derr := drain(mgr, *drainAfter)
	shutCtx, cancel := context.WithTimeout(context.Background(), *drainAfter)
	defer cancel()
	serr := srv.Shutdown(shutCtx)
	if derr != nil {
		return fmt.Errorf("drain: %w", derr)
	}
	return serr
}

// The coordinator's connection timeouts. Without the first, one client
// that opens a socket and never finishes its request headers holds a
// goroutine and a descriptor for as long as it likes; the second retires
// keep-alive connections nobody uses. There is no server-wide ReadTimeout
// or WriteTimeout on purpose: GET /v1/jobs/{id}/results streams for the
// life of a job. Every other handler sets its own read and write deadline
// instead (server.deadlines), so a client that stalls a request body —
// a submit, a 16 MB partial — is cut off too.
const (
	readHeaderTimeout   = 10 * time.Second
	idleTimeout         = 2 * time.Minute
	requestReadTimeout  = 30 * time.Second
	requestWriteTimeout = 30 * time.Second
)

// newServer wraps the handler in the coordinator's http.Server.
func newServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

func drain(mgr *jobs.Manager, budget time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	return mgr.Close(ctx)
}

// server exposes one Manager over HTTP.
type server struct {
	mgr *jobs.Manager
	// leasePoints/leaseTTL are the sharded-submission defaults, which
	// ?lease_points= and ?lease_ttl= override per job.
	leasePoints int
	leaseTTL    time.Duration
	// readTimeout/writeTimeout bound every request but the results
	// stream, from the moment its handler starts (requestReadTimeout and
	// requestWriteTimeout; tests shorten them).
	readTimeout, writeTimeout time.Duration
}

// newHandler routes the daemon's API onto a manager.
func newHandler(mgr *jobs.Manager, leasePoints int, leaseTTL time.Duration) http.Handler {
	s := &server{mgr: mgr, leasePoints: leasePoints, leaseTTL: leaseTTL,
		readTimeout: requestReadTimeout, writeTimeout: requestWriteTimeout}
	return s.routes()
}

func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.deadlines(s.health))
	mux.HandleFunc("POST /v1/jobs", s.deadlines(s.submit))
	mux.HandleFunc("GET /v1/jobs", s.deadlines(s.list))
	mux.HandleFunc("GET /v1/jobs/{id}", s.deadlines(s.status))
	mux.HandleFunc("GET /v1/jobs/{id}/results", s.results)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.deadlines(s.cancel))
	mux.HandleFunc("POST /v1/jobs/{id}/lease", s.deadlines(s.lease))
	mux.HandleFunc("POST /v1/jobs/{id}/partial", s.deadlines(s.partial))
	mux.HandleFunc("GET /v1/jobs/{id}/aggregate", s.deadlines(s.aggregate))
	return mux
}

// deadlines gives a non-streaming handler its read and write deadline on
// the connection; net/http clears both before it reads the connection's
// next request. The setters fail only on a ResponseWriter that cannot
// reach its connection, and then the request runs without one, as before.
func (s *server) deadlines(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rc := http.NewResponseController(w)
		now := time.Now()
		_ = rc.SetReadDeadline(now.Add(s.readTimeout))
		_ = rc.SetWriteDeadline(now.Add(s.writeTimeout))
		h(w, r)
	}
}

func (s *server) health(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// submit validates and enqueues a grid document. Validation failures
// are the client's fault (400, typed through bftbcast.ErrBadSpec);
// a full queue and a draining daemon are backpressure (503). A plain
// job accepted by a daemon started with -workers -1 only queues: it runs
// once a daemon with executors reopens the same -dir.
func (s *server) submit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	grid, err := bftbcast.DecodeGridSpec(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var job *jobs.Job
	q := r.URL.Query()
	if v := q.Get("sharded"); v != "" && v != "0" {
		opts := jobs.ShardOptions{LeasePoints: s.leasePoints, LeaseTTL: s.leaseTTL}
		if v := q.Get("lease_points"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n <= 0 {
				writeError(w, http.StatusBadRequest, fmt.Errorf("bad lease_points %q", v))
				return
			}
			opts.LeasePoints = n
		}
		if v := q.Get("lease_ttl"); v != "" {
			d, perr := time.ParseDuration(v)
			if perr != nil || d <= 0 {
				writeError(w, http.StatusBadRequest, fmt.Errorf("bad lease_ttl %q", v))
				return
			}
			opts.LeaseTTL = d
		}
		job, err = s.mgr.SubmitSharded(grid, opts)
	} else {
		job, err = s.mgr.Submit(grid)
	}
	switch {
	case errors.Is(err, jobs.ErrQueueFull), errors.Is(err, jobs.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		// Submit re-validates; anything else is the daemon's problem.
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusAccepted, job.Status())
}

func (s *server) list(w http.ResponseWriter, r *http.Request) {
	all := s.mgr.Jobs()
	out := make([]jobs.Status, 0, len(all))
	for _, job := range all {
		out = append(out, job.Status())
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *server) status(w http.ResponseWriter, r *http.Request) {
	job, err := s.mgr.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, job.Status())
}

func (s *server) cancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.mgr.Cancel(id); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	job, err := s.mgr.Get(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, job.Status())
}

// lease grants the next open range of a sharded job: 200 with a
// LeaseGrant, 204 when outside leases hold everything left (poll again —
// an expiring lease may reopen a range), 410 when the job is terminal,
// 409 for a job only the daemon's own executors lease, 503 while
// draining. While only the daemon's executors hold what is left, the
// request waits for them: at most one range's run.
func (s *server) lease(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Worker string `json:"worker"`
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 64<<10))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	grant, err := s.mgr.Lease(r.PathValue("id"), req.Worker)
	switch {
	case errors.Is(err, jobs.ErrNoWork):
		w.WriteHeader(http.StatusNoContent)
	case errors.Is(err, jobs.ErrJobDone):
		writeError(w, http.StatusGone, err)
	case errors.Is(err, jobs.ErrNotSharded):
		writeError(w, http.StatusConflict, err)
	case errors.Is(err, jobs.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, jobs.ErrUnknownJob):
		writeError(w, http.StatusNotFound, err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
	default:
		writeJSON(w, http.StatusOK, grant)
	}
}

// partial accepts a worker's completed range. 200 covers the
// idempotent no-ops too (duplicate completion, already-terminal job);
// 400 is a malformed partial, the client's fault.
func (s *server) partial(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var p jobs.Partial
	if err := json.Unmarshal(body, &p); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	err = s.mgr.CompleteLease(r.PathValue("id"), p)
	switch {
	case errors.Is(err, jobs.ErrBadPartial):
		writeError(w, http.StatusBadRequest, err)
	case errors.Is(err, jobs.ErrNotSharded):
		writeError(w, http.StatusConflict, err)
	case errors.Is(err, jobs.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, jobs.ErrUnknownJob):
		writeError(w, http.StatusNotFound, err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
	default:
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	}
}

// aggregate returns the job's raw aggregate state — the exact bytes
// the byte-identity acceptance compares between runs spread over
// different workers (Status rounds through float formatting; this does
// not).
func (s *server) aggregate(w http.ResponseWriter, r *http.Request) {
	job, err := s.mgr.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	data, err := job.AggregateJSON()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// resultsSummary is the final NDJSON line of a results stream.
type resultsSummary struct {
	Summary jobs.Status `json:"summary"`
	// Dropped counts records this tail shed under pressure (the stream
	// is a lossy live tail; the summary's aggregate is always exact).
	Dropped int64 `json:"dropped,omitempty"`
}

// results streams a job's points as NDJSON while it runs and finishes
// with one summary line. For an already-terminal job the summary line
// comes immediately. A tail that cannot keep up loses records (never
// stalling the job) and reports how many in the summary.
func (s *server) results(w http.ResponseWriter, r *http.Request) {
	job, err := s.mgr.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush()
	}
	sub := job.Subscribe(256)
	defer sub.Close()
	if streamPoints(w, flusher, sub.Points(), r.Context().Done()) {
		// Stream over: terminal job, or the daemon is draining.
		_ = json.NewEncoder(w).Encode(resultsSummary{Summary: job.Status(), Dropped: sub.Dropped()})
	}
}

// streamPoints writes records to w as NDJSON until points closes (true),
// or done fires or a write fails (false). It flushes only once it has
// drained what was queued: a range that folds many records at once goes
// out in one flush, and a lone record still goes out at once.
func streamPoints(w io.Writer, flusher http.Flusher, points <-chan jobs.PointRecord, done <-chan struct{}) bool {
	enc := json.NewEncoder(w)
	for {
		select {
		case rec, ok := <-points:
			if !ok {
				return true
			}
			if err := enc.Encode(rec); err != nil {
				return false
			}
			if flusher != nil && len(points) == 0 {
				flusher.Flush()
			}
		case <-done:
			return false
		}
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
