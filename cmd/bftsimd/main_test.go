package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"bftbcast"
	"bftbcast/internal/jobs"
)

const gridDoc = `{
	"base": {"topology": {"Kind": "torus", "W": 15, "H": 15, "R": 2}, "t": 1, "mf": 2,
	          "adversary": "random", "density": 0.08, "seed": 11},
	"seeds": 4
}`

// blockingEngine parks every Run until release fires, so handler tests
// can hold a job in the running state deterministically.
type blockingEngine struct {
	release chan struct{}
}

func (e *blockingEngine) Name() string { return "blocking" }

func (e *blockingEngine) Run(ctx context.Context, sc *bftbcast.Scenario) (*bftbcast.Report, error) {
	select {
	case <-e.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return &bftbcast.Report{Engine: "blocking", Completed: true, Slots: 1, TotalGood: 1, DecidedGood: 1}, nil
}

func newTestServer(t *testing.T, cfg jobs.Config) (*httptest.Server, *jobs.Manager) {
	t.Helper()
	return newLoggedTestServer(t, cfg, nil)
}

// newLoggedTestServer is newTestServer with its lease-protocol requests
// recorded in reqs (nil records nothing).
func newLoggedTestServer(t *testing.T, cfg jobs.Config, reqs *requestLog) (*httptest.Server, *jobs.Manager) {
	t.Helper()
	cfg.Dir = t.TempDir()
	mgr, err := jobs.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := newHandler(mgr, 64, 30*time.Second)
	if reqs != nil {
		h = reqs.wrap(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := mgr.Close(ctx); err != nil {
			t.Errorf("manager close: %v", err)
		}
	})
	return ts, mgr
}

func decodeStatus(t *testing.T, r io.Reader) jobs.Status {
	t.Helper()
	var st jobs.Status
	if err := json.NewDecoder(r).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestHandlerLifecycle drives the whole API against a real engine:
// submit, stream to completion, status, list, and the error statuses
// for bad specs and unknown jobs.
func TestHandlerLifecycle(t *testing.T) {
	ts, mgr := newTestServer(t, jobs.Config{Workers: 2, CheckpointEvery: 1})

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(gridDoc))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	st := decodeStatus(t, resp.Body)
	resp.Body.Close()
	if st.ID == "" || st.Total != 4 {
		t.Fatalf("submit returned %+v", st)
	}

	// The results stream: point lines in index order, then one summary.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + st.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("results content type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	last, sawSummary := -1, false
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.Contains(line, []byte(`"summary"`)) {
			var fin resultsSummary
			if err := json.Unmarshal(line, &fin); err != nil {
				t.Fatal(err)
			}
			if fin.Summary.State != jobs.StateDone || fin.Summary.Aggregate.Done != 4 {
				t.Fatalf("summary line = %+v", fin.Summary)
			}
			sawSummary = true
			break
		}
		var rec jobs.PointRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Index <= last {
			t.Fatalf("stream out of order: %d after %d", rec.Index, last)
		}
		last = rec.Index
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawSummary {
		t.Fatal("results stream ended without a summary line")
	}

	resp, err = http.Get(ts.URL + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := decodeStatus(t, resp.Body); got.State != jobs.StateDone {
		t.Fatalf("status after stream = %+v", got)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var all []jobs.Status
	if err := json.NewDecoder(resp.Body).Decode(&all); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(all) != 1 || all[0].ID != st.ID {
		t.Fatalf("list = %+v", all)
	}

	for _, tc := range []struct {
		method, path, body string
		want               int
	}{
		{"POST", "/v1/jobs", `{"base": {"topology": {"Kind": "warp"}}}`, http.StatusBadRequest},
		{"POST", "/v1/jobs", `not json`, http.StatusBadRequest},
		// 2r+1 overflows: once accepted, it panicked the executor.
		{"POST", "/v1/jobs", `{"base":{"topology":{"kind":"grid","w":5,"h":5,"r":4611686018427387904}}}`, http.StatusBadRequest},
		// Grids with a corner the reactive protocol cannot run (r = 2
		// caps t at 4; mmax must cover mf; the payload needs a bit) are
		// refused at submit time, not after the runnable points.
		{"POST", "/v1/jobs", `{"base": {"topology": {"Kind": "torus", "W": 15, "H": 15, "R": 2}, "mf": 2, "protocol": "reactive"}, "t": [1, 2, 3, 4, 5]}`, http.StatusBadRequest},
		{"POST", "/v1/jobs", `{"base": {"topology": {"Kind": "torus", "W": 15, "H": 15, "R": 2}, "t": 1, "mf": 100, "mmax": 10, "protocol": "reactive"}}`, http.StatusBadRequest},
		{"POST", "/v1/jobs", `{"base": {"topology": {"Kind": "torus", "W": 15, "H": 15, "R": 2}, "t": 1, "mf": 2, "payload_bits": -3, "protocol": "reactive"}}`, http.StatusBadRequest},
		{"GET", "/v1/jobs/jdoesnotexist", "", http.StatusNotFound},
		{"GET", "/v1/jobs/jdoesnotexist/results", "", http.StatusNotFound},
		{"POST", "/v1/jobs/jdoesnotexist/cancel", "", http.StatusNotFound},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
		}
	}
	// None of the refused submissions left a job behind.
	if got := len(mgr.Jobs()); got != 1 {
		t.Errorf("%d jobs after the refused submissions, want 1", got)
	}
}

// TestHandlerBackpressureAndCancel pins the 503 queue-full contract
// and the cancel endpoint on queued and running jobs.
func TestHandlerBackpressureAndCancel(t *testing.T) {
	eng := &blockingEngine{release: make(chan struct{})}
	ts, _ := newTestServer(t, jobs.Config{Engine: eng, Workers: 1, MaxQueue: 1})

	submit := func() (jobs.Status, int) {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(gridDoc))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			return jobs.Status{}, resp.StatusCode
		}
		return decodeStatus(t, resp.Body), resp.StatusCode
	}
	first, _ := submit()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + first.ID)
		if err != nil {
			t.Fatal(err)
		}
		st := decodeStatus(t, resp.Body)
		resp.Body.Close()
		if st.State == jobs.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("first job never started: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	queued, _ := submit()
	if _, code := submit(); code != http.StatusServiceUnavailable {
		t.Fatalf("overfull submit status = %d, want 503", code)
	}

	resp, err := http.Post(ts.URL+"/v1/jobs/"+queued.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := decodeStatus(t, resp.Body); st.State != jobs.StateCancelled {
		t.Fatalf("cancelled queued job state = %q", st.State)
	}
	resp.Body.Close()

	resp, err = http.Post(ts.URL+"/v1/jobs/"+first.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	deadline = time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + first.ID)
		if err != nil {
			t.Fatal(err)
		}
		st := decodeStatus(t, resp.Body)
		resp.Body.Close()
		if st.State == jobs.StateCancelled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("running job never cancelled: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServerDropsStalledHeaderKeepsResultsTail pins the coordinator's
// connection timeouts: a client that never finishes its request headers
// is disconnected after ReadHeaderTimeout, while a /results tail that was
// open the whole time — a response that legitimately outlives any request
// timeout — still streams to its summary line afterwards. The server is
// the one main builds; only the header timeout is shortened to the
// test's patience.
func TestServerDropsStalledHeaderKeepsResultsTail(t *testing.T) {
	eng := &blockingEngine{release: make(chan struct{})}
	mgr, err := jobs.Open(jobs.Config{Dir: t.TempDir(), Engine: eng, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(newHandler(mgr, 64, 30*time.Second))
	if srv.ReadHeaderTimeout != 10*time.Second || srv.IdleTimeout != 2*time.Minute ||
		srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Fatalf("server timeouts: header %v idle %v read %v write %v; want 10s, 2m and no read/write timeout",
			srv.ReadHeaderTimeout, srv.IdleTimeout, srv.ReadTimeout, srv.WriteTimeout)
	}
	const headerTimeout = 300 * time.Millisecond
	srv.ReadHeaderTimeout = headerTimeout
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := mgr.Close(ctx); err != nil {
			t.Errorf("manager close: %v", err)
		}
		srv.Close()
	})
	base := "http://" + ln.Addr().String()

	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(gridDoc))
	if err != nil {
		t.Fatal(err)
	}
	st := decodeStatus(t, resp.Body)
	resp.Body.Close()
	tail, err := http.Get(base + "/v1/jobs/" + st.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Body.Close()

	// The stalled client: a request line and one header, never the blank
	// line that ends them.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "GET /v1/jobs HTTP/1.1\r\nHost: stalled\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(start.Add(10 * time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("stalled connection was not closed by the server: %v", err)
	}
	if held := time.Since(start); held < headerTimeout {
		t.Fatalf("stalled connection closed after %v, before the %v header timeout", held, headerTimeout)
	}

	// The tail has now been open for longer than the timeout that just
	// fired; let the job run and read it to the end.
	close(eng.release)
	sc := bufio.NewScanner(tail.Body)
	points, sawSummary := 0, false
	for sc.Scan() {
		if bytes.Contains(sc.Bytes(), []byte(`"summary"`)) {
			sawSummary = true
			break
		}
		points++
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("results tail broke: %v", err)
	}
	if !sawSummary || points != st.Total {
		t.Fatalf("results tail: %d of %d points, summary=%v", points, st.Total, sawSummary)
	}
}

// TestServerDropsStalledBodyKeepsResultsTail pins the per-request
// deadlines: a client that sends a submit's headers and then stalls its
// body is disconnected once the handler's read deadline passes, while a
// /results tail opened before it — the one handler without deadlines —
// still streams to its summary afterwards. The routes are newHandler's,
// with the request deadlines shortened to the test's patience.
func TestServerDropsStalledBodyKeepsResultsTail(t *testing.T) {
	if requestReadTimeout <= 0 || requestWriteTimeout <= 0 {
		t.Fatalf("request deadlines %v / %v, want both set", requestReadTimeout, requestWriteTimeout)
	}
	eng := &blockingEngine{release: make(chan struct{})}
	mgr, err := jobs.Open(jobs.Config{Dir: t.TempDir(), Engine: eng, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	const timeout = 300 * time.Millisecond
	s := &server{mgr: mgr, leasePoints: 64, leaseTTL: 30 * time.Second, readTimeout: timeout, writeTimeout: timeout}
	srv := newServer(s.routes())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := mgr.Close(ctx); err != nil {
			t.Errorf("manager close: %v", err)
		}
		srv.Close()
	})
	base := "http://" + ln.Addr().String()

	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(gridDoc))
	if err != nil {
		t.Fatal(err)
	}
	st := decodeStatus(t, resp.Body)
	resp.Body.Close()
	tail, err := http.Get(base + "/v1/jobs/" + st.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Body.Close()

	// The stalled client: a submit's complete headers and the first byte
	// of a 100-byte body, never the rest.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "POST /v1/jobs HTTP/1.1\r\nHost: stalled\r\n"+
		"Content-Type: application/json\r\nContent-Length: 100\r\n\r\n{"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(start.Add(10 * time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatalf("stalled body was not cut off by the server: %v", err)
		}
	}
	if held := time.Since(start); held < timeout {
		t.Fatalf("stalled connection closed after %v, before the %v read deadline", held, timeout)
	}

	// The tail has been open for longer than both deadlines; let the job
	// run and read it to the end.
	close(eng.release)
	sc := bufio.NewScanner(tail.Body)
	points, sawSummary := 0, false
	for sc.Scan() {
		if bytes.Contains(sc.Bytes(), []byte(`"summary"`)) {
			sawSummary = true
			break
		}
		points++
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("results tail broke: %v", err)
	}
	if !sawSummary || points != st.Total {
		t.Fatalf("results tail: %d of %d points, summary=%v", points, st.Total, sawSummary)
	}
}

// waitState polls a job's status endpoint until it reaches state.
func waitState(t *testing.T, base, id string, state jobs.State) jobs.Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		st := decodeStatus(t, resp.Body)
		resp.Body.Close()
		if st.State == state {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck at %+v, want state %q", id, st, state)
		}
		time.Sleep(time.Millisecond)
	}
}

// unshardedAggregate is the byte-identity reference of the sharded tests:
// the raw aggregate of doc submitted as a plain job to a coordinator of
// its own, run by two in-process executors.
func unshardedAggregate(t *testing.T, doc string) []byte {
	t.Helper()
	ts, _ := newTestServer(t, jobs.Config{Workers: 2})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	control := decodeStatus(t, resp.Body)
	resp.Body.Close()
	waitState(t, ts.URL, control.ID, jobs.StateDone)
	return getAggregate(t, ts.URL, control.ID)
}

// getAggregate fetches a job's raw aggregate bytes.
func getAggregate(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/aggregate")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("aggregate status = %d", resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.TrimSpace(data)
}

// TestHandlerShardedLifecycle drives the lease protocol over real
// HTTP: sharded submit, lease/partial loop to completion, and the raw
// aggregate equal to the unsharded run of the same grid — plus the
// endpoints' error statuses. The coordinator runs no executor, so the
// test's own leases are the only ones.
func TestHandlerShardedLifecycle(t *testing.T) {
	ts, _ := newTestServer(t, jobs.Config{Workers: -1})
	want := unshardedAggregate(t, gridDoc)

	// A plain job of the identical grid: it only queues here, and the
	// lease endpoints refuse it.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(gridDoc))
	if err != nil {
		t.Fatal(err)
	}
	control := decodeStatus(t, resp.Body)
	resp.Body.Close()

	resp, err = http.Post(ts.URL+"/v1/jobs?sharded=1&lease_points=1&lease_ttl=10s",
		"application/json", strings.NewReader(gridDoc))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sharded submit status = %d", resp.StatusCode)
	}
	st := decodeStatus(t, resp.Body)
	resp.Body.Close()
	if !st.Sharded || st.State != jobs.StateRunning {
		t.Fatalf("sharded submit returned %+v", st)
	}

	spec, err := bftbcast.DecodeGridSpec([]byte(gridDoc))
	if err != nil {
		t.Fatal(err)
	}
	tp, err := bftbcast.NewTopology(spec.Base.Topology)
	if err != nil {
		t.Fatal(err)
	}
	leases := 0
	for {
		resp, err := http.Post(ts.URL+"/v1/jobs/"+st.ID+"/lease", "application/json",
			strings.NewReader(`{"worker":"t"}`))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusGone {
			resp.Body.Close()
			break
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("lease status = %d after %d leases", resp.StatusCode, leases)
		}
		var g jobs.LeaseGrant
		if err := json.NewDecoder(resp.Body).Decode(&g); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		leases++
		recs, err := jobs.RunRange(context.Background(), bftbcast.EngineFast, 1, g.JobID, spec, tp, g.Lo, g.Hi, nil)
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(jobs.Partial{LeaseID: g.LeaseID, Worker: "t", Lo: g.Lo, Hi: g.Hi, Points: recs})
		if err != nil {
			t.Fatal(err)
		}
		resp, err = http.Post(ts.URL+"/v1/jobs/"+st.ID+"/partial", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("partial status = %d", resp.StatusCode)
		}
	}
	if leases != st.Total {
		t.Fatalf("leased %d ranges of %d single-point leases", leases, st.Total)
	}
	final := waitState(t, ts.URL, st.ID, jobs.StateDone)
	if final.Aggregate.Done != int64(st.Total) {
		t.Fatalf("final status = %+v", final)
	}
	if got := getAggregate(t, ts.URL, st.ID); !bytes.Equal(got, want) {
		t.Fatalf("sharded aggregate over HTTP diverged:\n%s\nvs\n%s", got, want)
	}

	for _, tc := range []struct {
		path, body string
		want       int
	}{
		{"/v1/jobs/" + control.ID + "/lease", `{"worker":"t"}`, http.StatusConflict},
		{"/v1/jobs/jdoesnotexist/lease", `{}`, http.StatusNotFound},
		{"/v1/jobs/" + st.ID + "/lease", `{}`, http.StatusGone},
		{"/v1/jobs/" + st.ID + "/partial", `not json`, http.StatusBadRequest},
		{"/v1/jobs/" + control.ID + "/partial", `{"lo":0,"hi":1}`, http.StatusConflict},
		{"/v1/jobs?sharded=1&lease_points=zap", gridDoc, http.StatusBadRequest},
		{"/v1/jobs?sharded=1&lease_ttl=never", gridDoc, http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("POST %s: status %d, want %d", tc.path, resp.StatusCode, tc.want)
		}
	}
}

// TestWorkerEndToEnd runs the real pull worker against a live server
// with no executors of its own: the worker drains a sharded grid, the
// aggregate matches the unsharded run, and cancelling its context exits
// the loop cleanly.
func TestWorkerEndToEnd(t *testing.T) {
	ts, _ := newTestServer(t, jobs.Config{Workers: -1})
	want := unshardedAggregate(t, gridDoc)

	resp, err := http.Post(ts.URL+"/v1/jobs?sharded=1&lease_points=1", "application/json", strings.NewReader(gridDoc))
	if err != nil {
		t.Fatal(err)
	}
	st := decodeStatus(t, resp.Body)
	resp.Body.Close()

	ctx, cancel := context.WithCancel(context.Background())
	workerErr := make(chan error, 1)
	go func() {
		workerErr <- runWorker(ctx, io.Discard, io.Discard, ts.URL, "w-e2e", bftbcast.EngineFast, 1, 5*time.Millisecond)
	}()
	waitState(t, ts.URL, st.ID, jobs.StateDone)
	cancel()
	if err := <-workerErr; err != nil {
		t.Fatalf("worker exit: %v", err)
	}
	if got := getAggregate(t, ts.URL, st.ID); !bytes.Equal(got, want) {
		t.Fatalf("worker-driven aggregate diverged:\n%s\nvs\n%s", got, want)
	}
}

// syncBuffer is a goroutine-safe capture of the daemon's stdout.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRunSignalDrain is the daemon smoke test: boot run() on a free
// port, drive the API over real HTTP, SIGTERM the process, and require
// a clean drain — run returns nil and no goroutines leak.
func TestRunSignalDrain(t *testing.T) {
	// First use of os/signal starts its process-wide watcher goroutine,
	// which never exits; start it now so the leak baseline excludes it.
	primeCtx, primeStop := signal.NotifyContext(context.Background(), syscall.SIGUSR2)
	primeStop()
	<-primeCtx.Done()

	before := runtime.NumGoroutine()
	stdout := &syncBuffer{}
	runErr := make(chan error, 1)
	go func() {
		runErr <- run(context.Background(), []string{
			"-addr", "127.0.0.1:0", "-dir", t.TempDir(), "-checkpoint-every", "1",
		}, stdout, io.Discard)
	}()

	var base string
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if out := stdout.String(); strings.Contains(out, "listening on ") {
			rest := out[strings.Index(out, "listening on ")+len("listening on "):]
			base = "http://" + strings.Fields(rest)[0]
			break
		}
		select {
		case err := <-runErr:
			t.Fatalf("daemon exited early: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never announced its address; stdout: %q", stdout.String())
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	resp, err = http.Post(base+"/v1/jobs", "application/json", strings.NewReader(gridDoc))
	if err != nil {
		t.Fatal(err)
	}
	st := decodeStatus(t, resp.Body)
	resp.Body.Close()

	// Stream the job to its summary line over the real wire.
	resp, err = http.Get(base + "/v1/jobs/" + st.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	stream, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(stream, []byte(`"summary"`)) {
		t.Fatalf("results stream missing summary: %q", stream)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("drain returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain after SIGTERM")
	}
	if !strings.Contains(stdout.String(), "draining") {
		t.Fatalf("stdout missing drain notice: %q", stdout.String())
	}

	http.DefaultClient.CloseIdleConnections()
	deadline = time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunBadFlags pins the CLI error paths.
func TestRunBadFlags(t *testing.T) {
	if err := run(context.Background(), []string{"-nope"}, io.Discard, io.Discard); err == nil {
		t.Fatal("unknown flag: want an error")
	}
}

// TestWorkerEvictsFinishedJobs pins the pull worker's per-job cache: the
// decoded spec and compiled topology of a job live only while the
// coordinator lists the job as sharded and running — the poll that finds
// it finished (or gone), or a lease answered 410, drops them, so a
// long-lived worker does not accumulate a topology per job it ever
// leased.
func TestWorkerEvictsFinishedJobs(t *testing.T) {
	ts, mgr := newTestServer(t, jobs.Config{Workers: -1})
	submit := func() jobs.Status {
		resp, err := http.Post(ts.URL+"/v1/jobs?sharded=1&lease_points=2", "application/json", strings.NewReader(gridDoc))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return decodeStatus(t, resp.Body)
	}
	st := submit()

	w := newWorker(ts.URL, "w-evict", bftbcast.EngineFast)
	errs := &syncBuffer{}
	w.stderr = errs
	ctx := context.Background()
	// An outside lease holds the first range, so the worker's run of the
	// second ends on a lease answered 204, with the job still running.
	if _, err := mgr.Lease(st.ID, "other"); err != nil {
		t.Fatal(err)
	}
	if worked, err := w.pullOnce(ctx); err != nil || !worked {
		t.Fatalf("first pull: worked=%v err=%v", worked, err)
	}
	if w.jobs[st.ID] == nil {
		t.Fatal("a job's spec and topology are not cached between its leases")
	}
	if err := mgr.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	if worked, err := w.pullOnce(ctx); err != nil || worked {
		t.Fatalf("pull with nothing leasable: worked=%v err=%v", worked, err)
	}
	if len(w.jobs) != 0 {
		t.Fatalf("worker still caches %d job(s) after the coordinator listed them finished", len(w.jobs))
	}

	// A job cancelled while the worker runs its range: the lookahead
	// lease answers 410, and that alone evicts it.
	st = submit()
	g, err := mgr.Lease(st.ID, "w-evict")
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	w.runJob(ctx, g)
	if len(w.jobs) != 0 {
		t.Fatalf("worker still caches %d job(s) after a lease answered 410", len(w.jobs))
	}
	if got := errs.String(); got != "" {
		t.Fatalf("worker logged errors: %s", got)
	}
}

// requestLog records the lease-protocol requests a coordinator serves —
// job listings, leases and partials — with their answer, in order.
type requestLog struct {
	mu   sync.Mutex
	reqs []string
}

// wrap returns h logging into l.
func (l *requestLog) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h.ServeHTTP(sw, r)
		kind := ""
		switch {
		case r.Method == http.MethodGet && r.URL.Path == "/v1/jobs":
			kind = "list"
		case r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/lease"):
			kind = "lease"
		case r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/partial"):
			kind = "partial"
		default:
			return
		}
		l.mu.Lock()
		l.reqs = append(l.reqs, fmt.Sprintf("%s %d", kind, sw.code))
		l.mu.Unlock()
	})
}

func (l *requestLog) snapshot() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.reqs)
}

// statusWriter remembers the status a handler answered.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.ResponseController reach the connection through it.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// partialProxy forwards every request to target and calls hold before
// forwarding each partial, so a test can delay or stall the worker's
// posts while its leases go through.
func partialProxy(t *testing.T, target string, hold func()) *httptest.Server {
	t.Helper()
	u, err := url.Parse(target)
	if err != nil {
		t.Fatal(err)
	}
	rp := httputil.NewSingleHostReverseProxy(u)
	rp.ErrorLog = log.New(io.Discard, "", 0) // a cancelled worker's request is expected
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/partial") {
			hold()
		}
		rp.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// sleepEngine runs the fast engine after a fixed pause, so a one-point
// range takes a known wall time.
type sleepEngine struct{ d time.Duration }

func (e sleepEngine) Name() string { return "sleep" }

func (e sleepEngine) Run(ctx context.Context, sc *bftbcast.Scenario) (*bftbcast.Report, error) {
	select {
	case <-time.After(e.d):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return bftbcast.EngineFast.Run(ctx, sc)
}

// gateEngine announces every point it starts on started and runs it on
// the fast engine only once it takes a token from release, or release
// is closed.
type gateEngine struct {
	started chan struct{}
	release chan struct{}
}

func (e *gateEngine) Name() string { return "gate" }

func (e *gateEngine) Run(ctx context.Context, sc *bftbcast.Scenario) (*bftbcast.Report, error) {
	e.started <- struct{}{}
	select {
	case <-e.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return bftbcast.EngineFast.Run(ctx, sc)
}

// testClock is a manual clock for the coordinator's lease expiry.
type testClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// gridDocSeeds is gridDoc with n seed replicas, so n points.
func gridDocSeeds(n int) string {
	return strings.Replace(gridDoc, `"seeds": 4`, fmt.Sprintf(`"seeds": %d`, n), 1)
}

// submitSharded submits doc as a sharded job of single-point ranges.
func submitSharded(t *testing.T, base, doc, query string) jobs.Status {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs?sharded=1&lease_points=1"+query, "application/json", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sharded submit status = %d", resp.StatusCode)
	}
	return decodeStatus(t, resp.Body)
}

// TestWorkerPipelineRequestCounts pins the worker's wire cost: one list
// to find the job, then exactly one lease and one partial per range, all
// in sequence — the lookahead lease goes out with the previous range's
// partial — and one lease answered 204 that ends the run.
func TestWorkerPipelineRequestCounts(t *testing.T) {
	const n = 8
	reqs := &requestLog{}
	ts, _ := newLoggedTestServer(t, jobs.Config{Workers: -1}, reqs)
	st := submitSharded(t, ts.URL, gridDocSeeds(n), "")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errs := &syncBuffer{}
	workerErr := make(chan error, 1)
	go func() {
		workerErr <- runWorker(ctx, io.Discard, errs, ts.URL, "w-count", bftbcast.EngineFast, 1, 5*time.Millisecond)
	}()
	waitState(t, ts.URL, st.ID, jobs.StateDone)
	cancel()
	if err := <-workerErr; err != nil {
		t.Fatalf("worker exit: %v", err)
	}
	if got := errs.String(); got != "" {
		t.Fatalf("worker logged errors: %s", got)
	}

	want := []string{"list 200", "lease 200", "lease 200"}
	for k := 0; k < n-2; k++ {
		want = append(want, "partial 200", "lease 200")
	}
	want = append(want, "partial 200", "lease 204", "partial 200")
	got := reqs.snapshot()
	// What follows the last partial is idle discovery.
	got = got[:min(len(got), len(want))]
	if !slices.Equal(got, want) {
		t.Fatalf("requests for %d ranges:\n%v\nwant\n%v", n, got, want)
	}
}

// TestWorkerPipelineOverlapsPartials pins that partials are posted
// behind the next range: with every partial's reply delayed by D and
// every range taking D to run, a worker that waits out each reply needs
// at least N·2D for N ranges; the pipelined one needs about (N+1)·D.
func TestWorkerPipelineOverlapsPartials(t *testing.T) {
	const (
		n = 6
		d = 100 * time.Millisecond
	)
	ts, _ := newTestServer(t, jobs.Config{Workers: -1})
	proxy := partialProxy(t, ts.URL, func() { time.Sleep(d) })
	st := submitSharded(t, ts.URL, gridDocSeeds(n), "")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workerErr := make(chan error, 1)
	start := time.Now()
	go func() {
		workerErr <- runWorker(ctx, io.Discard, io.Discard, proxy.URL, "w-overlap", sleepEngine{d}, 1, 5*time.Millisecond)
	}()
	waitState(t, ts.URL, st.ID, jobs.StateDone)
	elapsed := time.Since(start)
	cancel()
	if err := <-workerErr; err != nil {
		t.Fatalf("worker exit: %v", err)
	}
	if serial := n * 2 * d; elapsed > serial*3/4 {
		t.Fatalf("%d ranges took %v; a worker that waits out every partial needs %v", n, elapsed, serial)
	}
}

// TestWorkerExecutorsOverlapRanges pins that -workers 2 is two executors
// on one job: on a grid of single-point ranges, points of two different
// ranges start before either is released. One executor running a range
// on a two-worker sweep would start only one.
func TestWorkerExecutorsOverlapRanges(t *testing.T) {
	const n = 4
	doc := gridDocSeeds(n)
	ts, _ := newTestServer(t, jobs.Config{Workers: -1})
	want := unshardedAggregate(t, doc)
	st := submitSharded(t, ts.URL, doc, "")

	eng := &gateEngine{started: make(chan struct{}, n), release: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workerErr := make(chan error, 1)
	go func() {
		workerErr <- runWorker(ctx, io.Discard, io.Discard, ts.URL, "w-overlap", eng, 2, 5*time.Millisecond)
	}()
	for started := 0; started < 2; started++ {
		select {
		case <-eng.started:
		case <-time.After(10 * time.Second):
			close(eng.release)
			t.Fatalf("%d range(s) started before any was released, want 2", started)
		}
	}
	close(eng.release)
	waitState(t, ts.URL, st.ID, jobs.StateDone)
	cancel()
	if err := <-workerErr; err != nil {
		t.Fatalf("worker exit: %v", err)
	}
	if got := getAggregate(t, ts.URL, st.ID); !bytes.Equal(got, want) {
		t.Fatalf("aggregate of two executors diverged:\n%s\nvs\n%s", got, want)
	}
}

// TestWorkerShutdownWithQueuedGrant cancels a two-executor worker while
// one executor's partial is in flight and the other holds a grant
// mid-range: runWorker waits for the post, returns nil and leaks no
// goroutine; the grant it abandoned expires on the coordinator's clock
// and re-issues to a second worker, and the job ends on the unsharded
// run's aggregate bytes.
func TestWorkerShutdownWithQueuedGrant(t *testing.T) {
	const n = 8
	doc := gridDocSeeds(n)
	clock := &testClock{now: time.Unix(1_700_000_000, 0)}
	reqs := &requestLog{}
	ts, mgr := newLoggedTestServer(t, jobs.Config{Workers: -1, Now: clock.Now}, reqs)
	want := unshardedAggregate(t, doc)
	st := submitSharded(t, ts.URL, doc, "&lease_ttl=10s")

	held, hold := make(chan struct{}), make(chan struct{})
	var posts atomic.Int32
	proxy := partialProxy(t, ts.URL, func() {
		if posts.Add(1) == 1 {
			close(held)
		}
		<-hold
	})
	// Registered after the proxy, so a failing test unblocks it before
	// the proxy's Close waits for its requests.
	release := sync.OnceFunc(func() { close(hold) })
	t.Cleanup(release)
	http.DefaultClient.CloseIdleConnections()
	before := runtime.NumGoroutine()

	// One token: the first range started runs, the other parks until
	// the worker is cancelled.
	eng := &gateEngine{started: make(chan struct{}, n), release: make(chan struct{}, 1)}
	eng.release <- struct{}{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workerErr := make(chan error, 1)
	go func() {
		workerErr <- runWorker(ctx, io.Discard, io.Discard, proxy.URL, "w-stop", eng, 2, 5*time.Millisecond)
	}()
	// The first partial is in flight, and the other executor holds the
	// grant of a range it is running.
	for _, c := range []chan struct{}{held, eng.started, eng.started} {
		select {
		case <-c:
		case <-time.After(10 * time.Second):
			t.Fatal("the worker never posted one partial while running another range")
		}
	}
	cancel()
	select {
	case err := <-workerErr:
		t.Fatalf("runWorker returned %v with its partial still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	select {
	case err := <-workerErr:
		if err != nil {
			t.Fatalf("worker exit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("runWorker did not return after its partial went through")
	}
	if got := posts.Load(); got != 1 {
		t.Fatalf("the cancelled worker posted %d partials, want the one in flight", got)
	}
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// A second worker runs every open range, then finds the abandoned
	// one still leased until the clock passes its deadline.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	worker2Err := make(chan error, 1)
	go func() {
		worker2Err <- runWorker(ctx2, io.Discard, io.Discard, ts.URL, "w-next", bftbcast.EngineFast, 1, 5*time.Millisecond)
	}()
	deadline = time.Now().Add(30 * time.Second)
	for !slices.Contains(reqs.snapshot(), "lease 204") {
		if time.Now().After(deadline) {
			t.Fatal("the second worker never ran out of open ranges")
		}
		time.Sleep(time.Millisecond)
	}
	job, err := mgr.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := job.Status().State; got != jobs.StateRunning {
		t.Fatalf("job %s before the abandoned lease expired, want running", got)
	}
	clock.Advance(time.Minute)
	waitState(t, ts.URL, st.ID, jobs.StateDone)
	cancel2()
	if err := <-worker2Err; err != nil {
		t.Fatalf("second worker exit: %v", err)
	}
	if got := getAggregate(t, ts.URL, st.ID); !bytes.Equal(got, want) {
		t.Fatalf("aggregate after the re-issue diverged:\n%s\nvs\n%s", got, want)
	}
}

// countingFlusher counts flushes.
type countingFlusher struct{ n atomic.Int32 }

func (f *countingFlusher) Flush() { f.n.Add(1) }

// TestResultsFlushPerDrainedBatch pins the results stream's flush rule:
// records already queued go out in one flush, not one each, while a lone
// record is flushed before the stream waits for the next.
func TestResultsFlushPerDrainedBatch(t *testing.T) {
	points := make(chan jobs.PointRecord, 256)
	for i := 0; i < 100; i++ {
		points <- jobs.PointRecord{Index: i}
	}
	close(points)
	var out bytes.Buffer
	f := &countingFlusher{}
	if !streamPoints(&out, f, points, nil) {
		t.Fatal("stream of a closed channel did not report its end")
	}
	if lines := bytes.Count(out.Bytes(), []byte("\n")); lines != 100 {
		t.Fatalf("%d lines for 100 records", lines)
	}
	if got := f.n.Load(); got >= 100 {
		t.Fatalf("100 queued records took %d flushes", got)
	}

	points = make(chan jobs.PointRecord, 1)
	points <- jobs.PointRecord{Index: 7}
	lone := &syncBuffer{}
	f = &countingFlusher{}
	done := make(chan struct{})
	ended := make(chan bool, 1)
	go func() { ended <- streamPoints(lone, f, points, done) }()
	deadline := time.Now().Add(10 * time.Second)
	for f.n.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("a lone record was never flushed")
		}
		time.Sleep(time.Millisecond)
	}
	if !strings.Contains(lone.String(), `"index":7`) {
		t.Fatalf("flushed before writing the record: %q", lone.String())
	}
	close(done)
	if <-ended {
		t.Fatal("a stream cut off by its request reported its end")
	}
}

// TestWorkerRequestTimeout pins that a coordinator which accepts a
// request and never answers cannot wedge the worker: the client runWorker
// builds carries requestTimeout, and a pull against a stalled server
// returns an error once it lapses. Only the timeout's length is
// shortened to the test's patience.
func TestWorkerRequestTimeout(t *testing.T) {
	release := make(chan struct{})
	stalled := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { <-release }))
	defer stalled.Close()
	defer close(release)

	w := newWorker(stalled.URL, "w-timeout", bftbcast.EngineFast)
	if w.client.Timeout != requestTimeout || requestTimeout <= 0 {
		t.Fatalf("worker client timeout = %v, want the %v request timeout", w.client.Timeout, requestTimeout)
	}
	w.client.Timeout = 200 * time.Millisecond
	done := make(chan error, 1)
	go func() {
		_, err := w.pullOnce(context.Background())
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("pull against a coordinator that never answers returned no error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("pull against a coordinator that never answers did not time out")
	}
}
