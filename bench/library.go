package main

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"time"

	"bftbcast"
	"bftbcast/internal/plan"
	"bftbcast/internal/stats"
)

// pointFn builds the options of one scenario point. Strategies are
// single-run objects, so every call returns a fresh one.
type pointFn func() []bftbcast.ScenarioOption

// libSpec is a library workload: a topology and the distinct scenario
// points an op cycles through. One op builds a Scenario from a point's
// options and runs it on EngineFast, closed-loop on one goroutine.
type libSpec struct {
	newTopo func() (bftbcast.Topology, error)
	// points derives the workload's distinct points from the run seed.
	points func(tp bftbcast.Topology, seed uint64) ([]pointFn, error)
	// refCheck runs point 0 on EngineRef at set-up and requires the
	// Report EngineFast gives (the torus workloads; the dense engine is
	// too slow for 100k nodes).
	refCheck bool
	// sweepN is how many scenarios the traced Sweep scaling pass runs.
	sweepN int
}

// seeds draws n point seeds from the run seed.
func seeds(seed uint64, n int) []uint64 {
	rng := stats.NewRNG(seed)
	out := make([]uint64, n)
	for i := range out {
		out[i] = rng.Uint64()
	}
	return out
}

var torus45 = libSpec{
	newTopo:  func() (bftbcast.Topology, error) { return bftbcast.NewTorus(45, 45, 4) },
	refCheck: true,
	sweepN:   8,
	points: func(tp bftbcast.Topology, seed uint64) ([]pointFn, error) {
		params := bftbcast.Params{R: 4, T: 2, MF: 2}
		spec, err := bftbcast.NewProtocolB(params)
		if err != nil {
			return nil, err
		}
		var pts []pointFn
		for _, s := range seeds(seed, 8) {
			pts = append(pts, func() []bftbcast.ScenarioOption {
				return []bftbcast.ScenarioOption{
					bftbcast.WithTopology(tp), bftbcast.WithParams(params), bftbcast.WithSpec(spec),
					bftbcast.WithAdversary(bftbcast.RandomPlacement{T: 2, Density: 0.05, Seed: s}, bftbcast.NewCorruptor()),
				}
			})
		}
		return pts, nil
	},
}

// rggLayoutSeed fixes the 100k-node graph. The run seed picks the
// adversary placement only: slots-to-completion differ by a quarter
// between layouts, which would drown the metric in input variance.
const rggLayoutSeed = 7

var rgg100k = libSpec{
	newTopo: func() (bftbcast.Topology, error) { return bftbcast.NewRGG(100_000, rggLayoutSeed) },
	sweepN:  4,
	points: func(tp bftbcast.Topology, seed uint64) ([]pointFn, error) {
		params := bftbcast.Params{R: 1, T: 1, MF: 2}
		spec, err := bftbcast.NewProtocolB(params)
		if err != nil {
			return nil, err
		}
		// On a graph with degree-1 and degree-2 nodes about one random
		// placement in six cuts a good node off behind bad neighbours, and
		// no protocol completes then. Such a placement is not a valid input
		// for a workload on which no operation may fail, so placement seeds
		// are drawn until the good nodes stay connected.
		rng := stats.NewRNG(seed)
		for try := 0; try < 64; try++ {
			placement := bftbcast.RandomPlacement{T: 1, Density: 0.02, Seed: rng.Uint64()}
			bad, err := placement.Place(tp, 0)
			if err != nil {
				return nil, err
			}
			if !goodConnected(tp, bad, 0) {
				continue
			}
			return []pointFn{func() []bftbcast.ScenarioOption {
				return []bftbcast.ScenarioOption{
					bftbcast.WithTopology(tp), bftbcast.WithParams(params), bftbcast.WithSpec(spec),
					bftbcast.WithAdversary(placement, bftbcast.NewCorruptor()),
				}
			}}, nil
		}
		return nil, fmt.Errorf("seed %d: no placement in 64 draws keeps the good nodes connected", seed)
	},
}

// goodConnected reports whether every good node is reachable from source
// through good nodes only.
func goodConnected(tp bftbcast.Topology, bad []bool, source bftbcast.NodeID) bool {
	seen := make([]bool, tp.Size())
	seen[source] = true
	queue := []bftbcast.NodeID{source}
	var nbrs []bftbcast.NodeID
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		nbrs = tp.AppendNeighbors(nbrs[:0], id)
		for _, nb := range nbrs {
			if !seen[nb] && !bad[nb] {
				seen[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	for i, s := range seen {
		if !s && !bad[i] {
			return false
		}
	}
	return true
}

// multi32 is fault-free and has one point, so it does not depend on the
// seed at all: its simulated metrics are constants of the commit.
var multi32 = libSpec{
	newTopo:  func() (bftbcast.Topology, error) { return bftbcast.NewTorus(45, 45, 2) },
	refCheck: true,
	sweepN:   8,
	points: func(tp bftbcast.Topology, _ uint64) ([]pointFn, error) {
		params := bftbcast.Params{R: 2, T: 2, MF: 2}
		spec, err := bftbcast.NewProtocolB(params)
		if err != nil {
			return nil, err
		}
		return []pointFn{func() []bftbcast.ScenarioOption {
			return []bftbcast.ScenarioOption{
				bftbcast.WithTopology(tp), bftbcast.WithParams(params), bftbcast.WithSpec(spec),
				bftbcast.WithBroadcasts(32),
			}
		}}, nil
	},
}

// reactiveCode are the coding parameters of reactive15, spelled out (they
// are also the facade's defaults) because the traced pass rebuilds the
// same machine and the same code from them.
var reactiveCode = bftbcast.ReactiveSpec{MMax: 64, PayloadBits: 16}

var reactive15 = libSpec{
	newTopo:  func() (bftbcast.Topology, error) { return bftbcast.NewTorus(15, 15, 2) },
	refCheck: true,
	sweepN:   8,
	points: func(tp bftbcast.Topology, seed uint64) ([]pointFn, error) {
		params := bftbcast.Params{R: 2, T: 1, MF: 3}
		var pts []pointFn
		for _, s := range seeds(seed, 8) {
			pts = append(pts, func() []bftbcast.ScenarioOption {
				return []bftbcast.ScenarioOption{
					bftbcast.WithTopology(tp), bftbcast.WithParams(params),
					bftbcast.WithProtocol(bftbcast.ProtocolReactive), bftbcast.WithReactive(reactiveCode),
					bftbcast.WithSeed(s),
					bftbcast.WithPlacement(bftbcast.RandomPlacement{T: 1, Density: 0.06, Seed: s}),
				}
			})
		}
		return pts, nil
	},
}

// libRun is one set-up of a library workload: the topology, its points,
// and the simulated outcome each point gave the first time it ran.
type libRun struct {
	tp     bftbcast.Topology
	points []pointFn
	first  []*bftbcast.Report
	rep    *report
}

// setUp builds the topology and the points and runs the cold first op.
func (w *libSpec) setUp(ctx context.Context, seed uint64, rep *report) (*libRun, error) {
	tp, err := w.newTopo()
	if err != nil {
		return nil, err
	}
	pts, err := w.points(tp, seed)
	if err != nil {
		return nil, err
	}
	run := &libRun{tp: tp, points: pts, first: make([]*bftbcast.Report, len(pts)), rep: rep}
	if _, err := run.op(ctx, 0); err != nil {
		return nil, err
	}
	return run, nil
}

// scenario builds point j's Scenario.
func (r *libRun) scenario(j int, extra ...bftbcast.ScenarioOption) (*bftbcast.Scenario, error) {
	return bftbcast.NewScenario(append(r.points[j](), extra...)...)
}

// op is the measured operation: build point j's Scenario, run it on
// EngineFast, check the Report. An error is a harness or program error;
// a failed check is counted and the run goes on.
func (r *libRun) op(ctx context.Context, j int) (*bftbcast.Report, error) {
	sc, err := r.scenario(j)
	if err != nil {
		return nil, err
	}
	got, err := bftbcast.EngineFast.Run(ctx, sc)
	if err != nil {
		return nil, err
	}
	r.checkReport(j, got)
	return got, nil
}

// checkReport is the output check of one op: the broadcast completed
// with no wrong decision, and the simulated counts repeat the first run
// of the same point exactly.
func (r *libRun) checkReport(j int, got *bftbcast.Report) {
	ok := got.Completed && got.WrongDecisions == 0 && got.DecidedGood == got.TotalGood
	if first := r.first[j]; first == nil {
		r.first[j] = got
	} else {
		ok = ok && got.Slots == first.Slots && got.GoodMessages == first.GoodMessages && got.BadMessages == first.BadMessages
	}
	r.rep.check(ok, "point %d: completed=%v wrong=%d decided=%d/%d slots=%d good=%d bad=%d (first run of the point: %+v)",
		j, got.Completed, got.WrongDecisions, got.DecidedGood, got.TotalGood, got.Slots, got.GoodMessages, got.BadMessages,
		firstCounts(r.first[j]))
}

func firstCounts(rep *bftbcast.Report) [3]int {
	return [3]int{rep.Slots, rep.GoodMessages, rep.BadMessages}
}

// checkRef runs point 0 on the dense reference engine and requires the
// Report EngineFast gave, engine name aside.
func (r *libRun) checkRef(ctx context.Context) error {
	sc, err := r.scenario(0)
	if err != nil {
		return err
	}
	ref, err := bftbcast.EngineRef.Run(ctx, sc)
	if err != nil {
		return err
	}
	fast, err := r.op(ctx, 0)
	if err != nil {
		return err
	}
	ref.Engine = fast.Engine
	r.rep.check(reflect.DeepEqual(ref, fast), "point 0: EngineRef and EngineFast reports differ (ref slots=%d good=%d, fast slots=%d good=%d)",
		ref.Slots, ref.GoodMessages, fast.Slots, fast.GoodMessages)
	return nil
}

// simulated sets the two simulated end-to-end metrics from the first
// report of each distinct point. They are properties of the protocol,
// not of the host: a change that only makes the program faster leaves
// them bit-equal.
func (r *libRun) simulated() (goodSends, slotsPerBroadcast float64) {
	for _, first := range r.first {
		goodSends += first.AvgGoodSends
		m := 1
		if first.Multi != nil {
			m = first.Multi.M
		}
		slotsPerBroadcast += float64(first.Slots) / float64(m)
	}
	n := float64(len(r.first))
	return goodSends / n, slotsPerBroadcast / n
}

// setupBudget is how long cheap set-ups keep repeating: a 10 ms set-up is
// timed some twenty times so that its median is as steady as a 1 s one
// timed three times.
const (
	setupBudget  = 1.0 // seconds
	maxSetupReps = 200
)

func moreSetups(cfg runConfig, times []float64) bool {
	if len(times) < cfg.setupReps {
		return true
	}
	total := 0.0
	for _, t := range times {
		total += t
	}
	return cfg.setupReps > 1 && total < setupBudget && len(times) < maxSetupReps
}

// runLibrary is the untraced run of a library workload: one cold set-up,
// one discarded warm-up pass over the distinct points, ops for
// cfg.seconds, and then the repetitions of the set-up.
func runLibrary(w *libSpec, cfg runConfig) (*report, error) {
	ctx := context.Background()
	rep := newReport()
	cal, err := startCalibrator()
	if err != nil {
		return nil, err
	}
	defer cal.stop()

	// Every set-up starts from nothing: no compiled plan, no topology, and
	// the previous one's heap collected.
	var setups []float64
	coldSetUp := func() (*libRun, error) {
		if err := cal.sampleIfDue(); err != nil {
			return nil, err
		}
		plan.Purge()
		runtime.GC()
		start := time.Now()
		run, err := w.setUp(ctx, cfg.seed, rep)
		setups = append(setups, time.Since(start).Seconds())
		return run, err
	}
	run, err := coldSetUp()
	if err != nil {
		return nil, err
	}

	if w.refCheck {
		if err := run.checkRef(ctx); err != nil {
			return nil, err
		}
	}
	for j := range run.points {
		if _, err := run.op(ctx, j); err != nil {
			return nil, err
		}
	}
	// The peak is read here, after one cold set-up and one pass over the
	// points — what a process that builds the topology and runs each
	// point once reaches. Read after the timed window it would mostly
	// measure the collector: the heap goal doubles whatever is live when
	// a cycle ends, which depends on where in an op that is, and on the
	// 100k-node graph that alone moves the peak between 54 and 85 MB.
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	rep.set("peak_rss_mb", rss)

	n := len(run.points)
	durs := make([]float64, 0, 1<<14)
	for window := 0.0; len(durs) < cfg.minOps || window < cfg.seconds; {
		// Calibration pauses fall between ops, outside the window.
		if err := cal.sampleIfDue(); err != nil {
			return nil, err
		}
		t := time.Now()
		if _, err := run.op(ctx, len(durs)%n); err != nil {
			return nil, err
		}
		d := time.Since(t).Seconds()
		durs = append(durs, d)
		window += d
	}

	rep.set("op_s_p50", median(durs))
	rep.set("points_per_s", opsPerSecond(durs))
	rep.note("%s", timingNote(durs))
	goodSends, slots := run.simulated()
	rep.set("good_sends_per_node", goodSends)
	rep.set("slots_per_broadcast", slots)

	// The other set-up repetitions come after everything else, so that the
	// run itself happens in a process that was set up once, as a user's is.
	run = nil
	for moreSetups(cfg, setups) {
		if _, err := coldSetUp(); err != nil {
			return nil, err
		}
	}
	rep.set("setup_s", median(setups))
	rep.note("setup_s is the median of %d cold set-ups", len(setups))
	cal.scaleTimes(rep)
	return rep, nil
}
