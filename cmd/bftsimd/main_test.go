package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
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
	cfg.Dir = t.TempDir()
	mgr, err := jobs.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newHandler(mgr, 64, 30*time.Second))
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
	ts, _ := newTestServer(t, jobs.Config{Engine: eng, Workers: 1, MaxQueue: 1, MaxRunning: 1})

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
// endpoints' error statuses.
func TestHandlerShardedLifecycle(t *testing.T) {
	ts, _ := newTestServer(t, jobs.Config{Workers: 2})

	// Unsharded control of the identical grid.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(gridDoc))
	if err != nil {
		t.Fatal(err)
	}
	control := decodeStatus(t, resp.Body)
	resp.Body.Close()
	waitState(t, ts.URL, control.ID, jobs.StateDone)
	want := getAggregate(t, ts.URL, control.ID)

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

// TestWorkerEndToEnd runs the real pull worker against a live server:
// it drains a sharded grid, the aggregate matches the unsharded run,
// and cancelling its context exits the loop cleanly.
func TestWorkerEndToEnd(t *testing.T) {
	ts, _ := newTestServer(t, jobs.Config{Workers: 2})

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(gridDoc))
	if err != nil {
		t.Fatal(err)
	}
	control := decodeStatus(t, resp.Body)
	resp.Body.Close()
	waitState(t, ts.URL, control.ID, jobs.StateDone)
	want := getAggregate(t, ts.URL, control.ID)

	resp, err = http.Post(ts.URL+"/v1/jobs?sharded=1&lease_points=1", "application/json", strings.NewReader(gridDoc))
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
	if err := run(context.Background(), []string{"-engine", "warp", "-dir", t.TempDir()},
		io.Discard, io.Discard); err == nil {
		t.Fatal("unknown engine: want an error")
	}
	if err := run(context.Background(), []string{"-nope"}, io.Discard, io.Discard); err == nil {
		t.Fatal("unknown flag: want an error")
	}
}

// TestWorkerEvictsFinishedJobs pins the pull worker's per-job cache: the
// decoded spec and compiled topology of a job live only while the
// coordinator lists the job as sharded and running — the poll that finds
// it finished (or gone) drops them, so a long-lived worker does not
// accumulate a topology per job it ever leased.
func TestWorkerEvictsFinishedJobs(t *testing.T) {
	ts, _ := newTestServer(t, jobs.Config{Workers: 1})
	resp, err := http.Post(ts.URL+"/v1/jobs?sharded=1&lease_points=2", "application/json", strings.NewReader(gridDoc))
	if err != nil {
		t.Fatal(err)
	}
	st := decodeStatus(t, resp.Body)
	resp.Body.Close()

	w := newWorker(ts.URL, "w-evict", bftbcast.EngineFast, 1)
	ctx := context.Background()
	if worked, err := w.pullOnce(ctx); err != nil || !worked {
		t.Fatalf("first pull: worked=%v err=%v", worked, err)
	}
	if w.jobs[st.ID] == nil {
		t.Fatal("a running job's spec and topology are not cached between its leases")
	}
	if worked, err := w.pullOnce(ctx); err != nil || !worked {
		t.Fatalf("second pull: worked=%v err=%v", worked, err)
	}
	waitState(t, ts.URL, st.ID, jobs.StateDone)
	if worked, err := w.pullOnce(ctx); err != nil || worked {
		t.Fatalf("pull with nothing leasable: worked=%v err=%v", worked, err)
	}
	if len(w.jobs) != 0 {
		t.Fatalf("worker still caches %d job(s) after the coordinator listed them finished", len(w.jobs))
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

	w := newWorker(stalled.URL, "w-timeout", bftbcast.EngineFast, 1)
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
