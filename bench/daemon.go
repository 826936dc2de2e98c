package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"bftbcast"
	"bftbcast/internal/jobs"
	"bftbcast/internal/stats"
)

// daemonSpec is a daemon workload: how the coordinator is started, how
// many pull-worker processes join it, and how a job is submitted. Every
// bftsimd flag not named here keeps its default. One op is one job of the
// 4096-point grid: submit, tail /results to the summary line, fetch
// /aggregate; one client, one job at a time.
type daemonSpec struct {
	coordArgs   []string
	pullWorkers int
	query       string
}

var (
	daemonSharded = daemonSpec{pullWorkers: 2, query: "?sharded=1&lease_points=16"}
	daemonFIFO    = daemonSpec{coordArgs: []string{"-workers", "2"}}
)

const gridPoints = 4096

// daemonGrid is the grid both daemon workloads submit: 1024 seed
// replicas × t∈{1,2} × mf∈{1,2} on a 15×15 torus. Points cost about a
// quarter of a millisecond, so the service around them is half the wall.
// The run seed is the grid's base seed, from which every replica's
// scenario and placement seed derives.
func daemonGrid(seed uint64) *bftbcast.GridSpec {
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

// buildDaemon compiles bftsimd from source into outDir. It is not part of
// any timing.
func buildDaemon() (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(outDir, "bftsimd"))
	if err != nil {
		return "", err
	}
	if out, err := exec.Command("go", "build", "-o", bin, "bftbcast/cmd/bftsimd").CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build bftsimd: %v\n%s", err, out)
	}
	return bin, nil
}

// errJobFailed marks an in-process job that the manager itself ended in
// the failed state: a failed op, not a harness error.
var errJobFailed = errors.New("job ended failed")

// inProcessJob runs the grid through a jobs.Manager in this process, no
// HTTP: unsharded when shard is nil. It returns the aggregate bytes — the
// reference every daemon job's /aggregate must equal — the wall time of
// submit → done, and the size of the job's final checkpoint file.
func inProcessJob(grid *bftbcast.GridSpec, cfg jobs.Config, shard *jobs.ShardOptions) (agg []byte, wall float64, checkpointBytes int64, err error) {
	dir, err := scratchDir("inprocess-*")
	if err != nil {
		return nil, 0, 0, err
	}
	defer removeScratch(dir)
	cfg.Dir = dir
	m, err := jobs.Open(cfg)
	if err != nil {
		return nil, 0, 0, err
	}
	ctx := context.Background()
	defer m.Close(ctx)
	start := time.Now()
	var job *jobs.Job
	if shard != nil {
		job, err = m.SubmitSharded(grid, *shard)
	} else {
		job, err = m.Submit(grid)
	}
	if err != nil {
		return nil, 0, 0, err
	}
	if err := job.Wait(ctx); err != nil {
		return nil, 0, 0, fmt.Errorf("in-process job %s: %w: %w", job.ID(), errJobFailed, err)
	}
	wall = time.Since(start).Seconds()
	if agg, err = job.AggregateJSON(); err != nil {
		return nil, 0, 0, err
	}
	fi, err := os.Stat(filepath.Join(dir, job.ID()+".json"))
	if err != nil {
		return nil, 0, 0, err
	}
	return agg, wall, fi.Size(), nil
}

// cluster is one running coordinator with its pull workers.
type cluster struct {
	coord   *exec.Cmd
	workers []*exec.Cmd
	base    string // http://127.0.0.1:port
	dir     string
	client  *http.Client
	boot    float64 // exec → /healthz 200, seconds
}

// startCluster execs a coordinator on a free port with a fresh checkpoint
// directory, waits for /healthz, and starts the pull workers.
func startCluster(bin string, spec *daemonSpec, pullWorkers int) (*cluster, error) {
	dir, err := scratchDir("daemon-*")
	if err != nil {
		return nil, err
	}
	c := &cluster{dir: dir, client: &http.Client{Transport: &http.Transport{}}}
	args := append([]string{"-addr", "127.0.0.1:0", "-dir", filepath.Join(dir, "jobs")}, spec.coordArgs...)
	c.coord = exec.Command(bin, args...)
	c.coord.Stderr = os.Stderr
	stdout, err := c.coord.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := startChild(c.coord); err != nil {
		return nil, err
	}
	// The daemon announces its resolved address on its first stdout
	// line; keep draining after it so the pipe never fills.
	lines := bufio.NewScanner(stdout)
	addr := ""
	for addr == "" && lines.Scan() {
		if rest, ok := strings.CutPrefix(lines.Text(), "bftsimd listening on "); ok {
			addr, _, _ = strings.Cut(rest, " ")
		}
	}
	go func() {
		for lines.Scan() {
		}
	}()
	if addr == "" {
		c.stop()
		return nil, fmt.Errorf("bftsimd exited without announcing its address")
	}
	c.base = "http://" + addr
	for deadline := start.Add(10 * time.Second); ; {
		resp, err := c.client.Get(c.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, fmt.Errorf("bftsimd at %s never became healthy: %v", c.base, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	c.boot = time.Since(start).Seconds()
	for i := 0; i < pullWorkers; i++ {
		w := exec.Command(bin, "-worker", "-coordinator", c.base,
			"-workers", "1", "-poll", "10ms", "-worker-id", fmt.Sprintf("w%d", i))
		w.Stderr = os.Stderr
		if err := startChild(w); err != nil {
			c.stop()
			return nil, err
		}
		c.workers = append(c.workers, w)
	}
	return c, nil
}

func (c *cluster) stopWorkers() {
	for _, w := range c.workers {
		stopChild(w)
	}
	c.workers = nil
}

func (c *cluster) stop() {
	c.stopWorkers()
	stopChild(c.coord)
	c.client.CloseIdleConnections()
	removeScratch(c.dir)
}

// peakRSSMB sums the high-water resident sets of the coordinator and its
// workers.
func (c *cluster) peakRSSMB() (float64, error) {
	total := 0.0
	for _, cmd := range append([]*exec.Cmd{c.coord}, c.workers...) {
		mb, err := peakRSSMB(cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

// jobResult is what one job's op measured.
type jobResult struct {
	wall       float64   // submit → summary line, seconds
	firstPoint float64   // submit → first NDJSON point line; 0 when the tail saw none
	summaryAt  time.Time // when the summary line was read
	dropped    int64     // records the tail shed, from the summary line
	summary    jobs.Status
}

// runJob is the daemon op: submit the grid, tail /results to the summary
// line, fetch /aggregate, and check the three. A job that ends failed is
// a failed op, counted and reported with the daemon's error string and
// never retried; a done job with wrong counts or aggregate bytes is a
// wrong output; only a transport error aborts the run. tr may be nil
// (tracing off).
func (c *cluster) runJob(rep *report, spec *daemonSpec, body, want []byte, tr *tracer, op int) (jobResult, error) {
	var res jobResult
	root := tr.begin(0, op, "bftsimd", "job")
	start := time.Now()

	sp := tr.begin(root, op, "bftsimd", "submit")
	resp, err := c.client.Post(c.base+"/v1/jobs"+spec.query, "application/json", bytes.NewReader(body))
	if err != nil {
		return res, err
	}
	var submitted jobs.Status
	err = json.NewDecoder(resp.Body).Decode(&submitted)
	resp.Body.Close()
	tr.end(sp)
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return res, fmt.Errorf("submit: HTTP %d: %v", resp.StatusCode, err)
	}
	id := submitted.ID

	sp = tr.begin(root, op, "bftsimd", "results")
	resp, err = c.client.Get(c.base + "/v1/jobs/" + id + "/results")
	if err != nil {
		return res, err
	}
	var last struct {
		Summary *jobs.Status `json:"summary"`
		Dropped int64        `json:"dropped"`
	}
	lines := bufio.NewScanner(resp.Body)
	lines.Buffer(nil, 1<<20)
	for lines.Scan() {
		if !bytes.HasPrefix(lines.Bytes(), []byte(`{"summary"`)) {
			if res.firstPoint == 0 {
				res.firstPoint = time.Since(start).Seconds()
			}
			continue
		}
		if err := json.Unmarshal(lines.Bytes(), &last); err != nil {
			resp.Body.Close()
			return res, fmt.Errorf("job %s summary line: %w", id, err)
		}
	}
	resp.Body.Close()
	res.summaryAt = time.Now()
	res.wall = res.summaryAt.Sub(start).Seconds()
	tr.end(sp)
	tr.end(root)
	if err := lines.Err(); err != nil {
		return res, fmt.Errorf("job %s results stream: %w", id, err)
	}
	if last.Summary == nil {
		return res, fmt.Errorf("job %s results stream ended without a summary line", id)
	}
	res.summary, res.dropped = *last.Summary, last.Dropped

	sp = tr.begin(0, op, "bftsimd", "aggregate")
	resp, err = c.client.Get(c.base + "/v1/jobs/" + id + "/aggregate")
	if err != nil {
		return res, err
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	tr.end(sp)
	if err != nil {
		return res, err
	}

	st := res.summary
	switch {
	case st.State != jobs.StateDone:
		rep.opFailed("job %s ended %s: %s", id, st.State, st.Err)
	case st.Total != gridPoints || st.Aggregate.Done != gridPoints ||
		st.Aggregate.Completed != gridPoints || st.Aggregate.WrongDecisions != 0:
		rep.check(false, "job %s: total=%d done=%d completed=%d wrong=%d, want %d complete points",
			id, st.Total, st.Aggregate.Done, st.Aggregate.Completed, st.Aggregate.WrongDecisions, gridPoints)
	default:
		rep.check(bytes.Equal(got, want), "job %s: /aggregate differs from the in-process unsharded run (%d vs %d bytes)",
			id, len(got), len(want))
	}
	return res, nil
}

// runDaemon is the untraced run of a daemon workload: cold set-ups (exec
// → healthy → first job done), one discarded warm-up job on the last
// cluster, then jobs for cfg.seconds on that same cluster. The cluster
// and its checkpoint directory are never reused across runs, because the
// worker's job-discovery call gets slower with every retained job.
func runDaemon(spec *daemonSpec, cfg runConfig) (*report, error) {
	rep := newReport()
	bin, err := buildDaemon()
	if err != nil {
		return nil, err
	}
	grid := daemonGrid(cfg.seed)
	body, err := grid.Encode()
	if err != nil {
		return nil, err
	}
	want, _, _, err := inProcessJob(grid, jobs.Config{Workers: 2}, nil)
	if err != nil {
		return nil, err
	}
	cal, err := startCalibrator()
	if err != nil {
		return nil, err
	}
	defer cal.stop()

	var setups []float64
	var c *cluster
	for moreSetups(cfg, setups) {
		if c != nil {
			c.stop()
		}
		if err := cal.sampleIfDue(); err != nil {
			return nil, err
		}
		start := time.Now()
		if c, err = startCluster(bin, spec, spec.pullWorkers); err != nil {
			return nil, err
		}
		if _, err := c.runJob(rep, spec, body, want, nil, 0); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer c.stop()
	rep.set("setup_s", median(setups))
	rep.note("setup_s is the median of %d cold set-ups", len(setups))

	if _, err := c.runJob(rep, spec, body, want, nil, 0); err != nil {
		return nil, err
	}
	var durs []float64
	var last jobResult
	for window := 0.0; len(durs) < cfg.minOps || window < cfg.seconds; window += last.wall {
		// Between jobs the daemons idle, so the kernel has a core to
		// itself; the pause is outside the window.
		if err := cal.sampleIfDue(); err != nil {
			return nil, err
		}
		if last, err = c.runJob(rep, spec, body, want, nil, 0); err != nil {
			return nil, err
		}
		durs = append(durs, last.wall)
	}

	rep.set("op_s_p50", median(durs))
	rep.set("points_per_s", gridPoints*opsPerSecond(durs))
	rep.note("%s", timingNote(durs))
	rss, err := c.peakRSSMB()
	if err != nil {
		return nil, err
	}
	rep.set("peak_rss_mb", rss)
	rep.set("good_sends_per_node", last.summary.Aggregate.AvgSendsMean)
	rep.set("slots_per_broadcast", last.summary.Aggregate.SlotsMean)
	cal.scaleTimes(rep)
	return rep, nil
}
