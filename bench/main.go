// Command bench is the repository benchmark: six named workloads, the
// end-to-end metrics a user of the library or of bftsimd would see, and
// a traced pass that attributes the time to the layers underneath. See
// README.md for the workloads, the metrics and how to run a comparison;
// ../BENCHMARK.json declares the same names with their bounds.
//
//	go run -C bench .                              every workload, one child process each
//	go run -C bench . -workload torus45-sweep      one workload in this process
//	go run -C bench . -trace 1                     the traced pass (per-layer metrics, span files)
//	go run -C bench . -runs 10 -out a.json         ten seeds per workload, saved
//	go run -C bench . -compare a.json b.json       two saved sets against the bounds
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
)

// defaultSeconds is the timed window of one run; run_seconds in
// BENCHMARK.json repeats it (bench_test.go holds the two together).
const defaultSeconds = 12

type metricDef struct {
	name, unit string
}

// endToEnd are the metrics every untraced run reports, in table order.
// Failures are not a metric: they are the attempted/failed counts of the
// result line.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_s_p50", "s"},
	{"points_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"good_sends_per_node", "msgs"},
	{"slots_per_broadcast", "slots"},
}

// perLayer are the metrics every traced run reports. A metric that does
// not apply to a workload (the daemon layers on a library workload, say)
// or whose replay failed its fidelity check reads 0 in the result line
// and "null" with the reason in the table.
var perLayer = []metricDef{
	{"topo.build_s", "s"},
	{"plan.compile_s", "s"},
	{"plan.warm_lookup_ns", "ns"},
	{"radio.resolve_s", "s/op"},
	{"radio.slots", "count/op"},
	{"radio.txs", "count/op"},
	{"radio.deliveries", "count/op"},
	{"radio.ns_per_delivery", "ns"},
	{"radio.collided_share", "ratio"},
	{"radio.single_tx_slot_share", "ratio"},
	{"protocol.deliver_s", "s/op"},
	{"protocol.deliveries", "count/op"},
	{"protocol.decides", "count/op"},
	{"protocol.ns_per_delivery", "ns"},
	{"protocol.late_delivery_share", "ratio"},
	{"protocol.entries_per_send", "ratio"},
	{"protocol.batched_over_naive", "ratio"},
	{"protocol.reactive_rounds", "count/op"},
	{"auedcode.encode_ns", "ns"},
	{"auedcode.verify_ns", "ns"},
	{"adversary.place_s", "s/op"},
	{"adversary.bad_nodes", "count/op"},
	{"adversary.bad_msgs", "count/op"},
	{"adversary.bad_msg_share", "ratio"},
	{"sim.run_s", "s/op"},
	{"sim.loop_self_s", "s/op"},
	{"sim.trace_coverage", "ratio"},
	{"sim.executed_slot_share", "ratio"},
	{"sim.ns_per_delivery", "ns"},
	{"bftbcast.scenario_build_ns", "ns"},
	{"bftbcast.facade_overhead_share", "ratio"},
	{"bftbcast.allocs_per_op", "count"},
	{"bftbcast.alloc_bytes_per_op", "B"},
	{"bftbcast.observer_overhead_share", "ratio"},
	{"sweep.points_per_s_w1", "1/s"},
	{"sweep.points_per_s_w2", "1/s"},
	{"sweep.efficiency_w2", "ratio"},
	{"specjson.decode_s", "s"},
	{"specjson.expand_ns_per_point", "ns"},
	{"jobs.fifo_points_per_s", "1/s"},
	{"jobs.sharded_points_per_s", "1/s"},
	{"jobs.lease_s_p50", "s"},
	{"jobs.complete_lease_s_p50", "s"},
	{"jobs.run_range_s_p50", "s"},
	{"jobs.add_record_ns", "ns"},
	{"jobs.aggregate_json_s", "s"},
	{"jobs.aggregate_bytes", "B"},
	{"jobs.checkpoint_bytes", "B"},
	{"stats.sketch_add_ns", "ns"},
	{"stats.sketch_quantile_ns", "ns"},
	{"stats.cursor_fold_ns", "ns"},
	{"bftsimd.boot_s", "s"},
	{"bftsimd.submit_rtt_s", "s"},
	{"bftsimd.list_rtt_s_p50", "s"},
	{"bftsimd.lease_rtt_s_p50", "s"},
	{"bftsimd.partial_rtt_s_p50", "s"},
	{"bftsimd.partial_bytes", "B"},
	{"bftsimd.first_point_s", "s"},
	{"bftsimd.tail_lag_s", "s"},
	{"bftsimd.results_dropped", "count"},
	{"bftsimd.worker_busy_share", "ratio"},
	{"bftsimd.coordinator_cpu_s_per_job", "s"},
	{"bftsimd.worker_cpu_s_per_job", "s"},
}

// workload is one named set of inputs; exactly one of lib and daemon is
// set.
type workload struct {
	name, why string
	lib       *libSpec
	daemon    *daemonSpec
}

var workloads = []workload{
	{name: "torus45-sweep", lib: &torus45,
		why: "paper-scale adversarial runs: degree-80 balls with jams, so radio resolution and the adversary dominate and per-run facade cost shows"},
	{name: "rgg100k-adv", lib: &rgg100k,
		why: "one large sparse broadcast: the slot loop, queues and memory traffic dominate, topo and plan dominate set-up, facade cost is invisible"},
	{name: "multi32-torus45", lib: &multi32,
		why: "32 concurrent broadcasts on a fault-free torus: protocol.Multi batching carries the run while the radio sees a regular schedule"},
	{name: "reactive15-sweep", lib: &reactive15,
		why: "Section 5: protocol.Reactive and auedcode do the work and the threshold and jam paths are bypassed"},
	{name: "daemon-sharded-4k", daemon: &daemonSharded,
		why: "a 4096-point grid over real HTTP through a coordinator and two pull workers: leases, JSON, in-order fold, checkpoints, NDJSON"},
	{name: "daemon-fifo-4k", daemon: &daemonFIFO,
		why: "the same grid through the FIFO scheduler and a 2-worker in-process sweep pool: the jobs layer used the other way"},
}

// runConfig is one run of one workload.
type runConfig struct {
	seed    uint64
	seconds float64 // timed window
	trace   bool
	// setupReps is the least number of times set-up is repeated (cheap
	// set-ups repeat more, see setupBudget); minOps is the least number
	// of timed ops whatever seconds says. The smoke test lowers both.
	setupReps, minOps int
	// traceReps is how often the traced pass repeats each measurement;
	// 0 picks by op length (see repsOr). The smoke test uses 1.
	traceReps int
}

// repsOr returns the configured repetition count, or n when none is.
func (c runConfig) repsOr(n int) int {
	if c.traceReps > 0 {
		return c.traceReps
	}
	return n
}

func runWorkload(w *workload, cfg runConfig) (*report, error) {
	switch {
	case w.lib != nil && cfg.trace:
		return traceLibrary(w.name, w.lib, cfg)
	case w.lib != nil:
		return runLibrary(w.lib, cfg)
	case cfg.trace:
		return traceDaemon(w.name, w.daemon, cfg)
	default:
		return runDaemon(w.daemon, cfg)
	}
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func metricDefs(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

func main() {
	if os.Getenv(calibrateEnv) != "" {
		calibrateLoop()
		return
	}
	var (
		name    = flag.String("workload", "", "run this workload in this process (default: every workload, each in a child process)")
		seed    = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", defaultSeconds, "length of the timed window of a run")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced pass, per-layer metrics and span files")
		runs    = flag.Int("runs", 1, "with no -workload: repeat every workload this many times, on seeds seed, seed+1, ...")
		out     = flag.String("out", "", "with no -workload: save every run's result line to this file (the input of -compare)")
		compare = flag.Bool("compare", false, "compare two -out files against the bounds of ../BENCHMARK.json: -compare a.json b.json")
	)
	flag.Parse()

	// Children (daemons, workers, per-workload processes) and scratch
	// directories are torn down on every way out, signals included.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		cleanup()
		os.Exit(130)
	}()

	err := func() error {
		defer cleanup()
		switch {
		case *compare:
			if flag.NArg() != 2 {
				return fmt.Errorf("-compare wants two files, got %d", flag.NArg())
			}
			return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		case *name == "":
			return runAll(*seed, *seconds, *trace, *runs, *out)
		}
		w := findWorkload(*name)
		if w == nil {
			return fmt.Errorf("unknown workload %q", *name)
		}
		cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace != 0, setupReps: 3, minOps: 2}
		rep, err := runWorkload(w, cfg)
		if err != nil {
			return err
		}
		defs := metricDefs(cfg.trace)
		rep.print(os.Stdout, w.name, defs)
		res := rep.result(defs)
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", line)
		// A run that printed its result exits 0 even with failed ops in
		// it: the result line carries the count. Only a wrong output,
		// like a harness error, is a failure of the run itself.
		if !res.Correct {
			return fmt.Errorf("%s: wrong output in %d of %d ops", w.name, res.Failed, res.Attempted)
		}
		return nil
	}()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

// savedRun is one child run's result line; savedRuns is the -out file.
type savedRun struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Result   result `json:"result"`
}

type savedRuns struct {
	Env     environment `json:"env"`
	Seconds float64     `json:"seconds"`
	Trace   int         `json:"trace"`
	Runs    []savedRun  `json:"runs"`
}

// environment is what a set of numbers was taken on.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func readEnvironment() environment {
	env := environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}

// runAll runs every workload in a fresh child process of this binary, so
// heap and GC state do not leak from one workload into the next, and
// prints one table over all of them.
func runAll(seed uint64, seconds float64, trace, runs int, outPath string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	saved := savedRuns{Env: readEnvironment(), Seconds: seconds, Trace: trace}
	failed := 0
	for r := 0; r < runs; r++ {
		for _, w := range workloads {
			s := seed + uint64(r)
			cmd := exec.Command(exe,
				"-workload", w.name,
				"-seed", fmt.Sprint(s),
				"-seconds", fmt.Sprint(seconds),
				"-trace", fmt.Sprint(trace))
			cmd.Stderr = os.Stderr
			var stdout bytes.Buffer
			cmd.Stdout = io.MultiWriter(os.Stdout, &stdout)
			if err := startChild(cmd); err != nil {
				return err
			}
			runErr := waitChild(cmd)
			res, perr := lastResult(stdout.Bytes())
			if perr != nil {
				return fmt.Errorf("%s seed %d: %v (child: %v)", w.name, s, perr, runErr)
			}
			if !res.Correct || res.Failed > 0 {
				failed++
			}
			saved.Runs = append(saved.Runs, savedRun{Workload: w.name, Seed: s, Result: res})
		}
	}
	printSummary(os.Stdout, &saved)
	if outPath != "" {
		data, err := json.MarshalIndent(&saved, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d runs had a failed op or a wrong output", failed, len(saved.Runs))
	}
	return nil
}

// lastResult parses the result line, the last line of a run's stdout.
func lastResult(stdout []byte) (result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return res, fmt.Errorf("no result line: %w", err)
	}
	return res, nil
}

// printSummary prints one row per metric and one column per workload,
// each cell the median over the set's runs.
func printSummary(w io.Writer, s *savedRuns) {
	fmt.Fprintf(w, "\n== %d run(s) per workload, %gs each, trace %d; nproc %d, GOMAXPROCS %d, %s, %s ==\n",
		len(s.Runs)/len(workloads), s.Seconds, s.Trace, s.Env.NProc, s.Env.GOMAXPROCS, s.Env.GoVersion, s.Env.CPUModel)
	fmt.Fprintf(w, "%-34s %-9s", "metric (median)", "unit")
	for _, wl := range workloads {
		fmt.Fprintf(w, " %17s", wl.name)
	}
	fmt.Fprintln(w)
	for _, def := range metricDefs(s.Trace != 0) {
		fmt.Fprintf(w, "%-34s %-9s", def.name, def.unit)
		for _, wl := range workloads {
			fmt.Fprintf(w, " %17.6g", median(s.values(wl.name, def.name)))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-34s %-9s", "failed/attempted", "count")
	for _, wl := range workloads {
		failed, attempted := 0, 0
		for _, r := range s.Runs {
			if r.Workload == wl.name {
				failed += r.Result.Failed
				attempted += r.Result.Attempted
			}
		}
		fmt.Fprintf(w, " %17s", fmt.Sprintf("%d/%d", failed, attempted))
	}
	fmt.Fprintln(w)
}

// values returns one metric of one workload over the set's runs, in run
// order.
func (s *savedRuns) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if r.Workload == workload {
			if m, ok := r.Result.Metrics[metric]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}
