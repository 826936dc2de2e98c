package bftbcast_test

// The allocation contracts of the hot paths: upper bounds on heap
// allocations per operation, which do not depend on the machine and
// which no timing benchmark can hold (bench/ measures the time; these
// hold what the time rests on — reused runner state, flat arenas, one
// spec expansion per point). They live in one file, engine, protocol and
// job layer alike, so that one build-tagged constant (raceEnabled)
// covers them all: the race detector allocates on its own.
//
// Each bound is a literal about 1.10× what the commit that introduced
// it read (noted beside it); testing.AllocsPerRun runs the operation
// once unmeasured first, which fills the runner pool and the plan cache.
// A change that trips one either fixes the allocation it added or moves
// the literal and says why.

import (
	"context"
	"testing"
	"time"

	"bftbcast"
	"bftbcast/internal/grid"
	"bftbcast/internal/jobs"
	"bftbcast/internal/protocol"
	"bftbcast/internal/radio"
)

func TestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	t.Run("RGG100kRun", allocsRGG100kRun)
	t.Run("MultiBroadcast", allocsMultiBroadcast)
	t.Run("BVDeliver", allocsBVDeliver)
	t.Run("Sweep", allocsSweep)
	t.Run("JobGrid", allocsJobGrid)
	t.Run("ReactiveRun", allocsReactiveRun)
}

// allocsAtMost fails t when op allocates more than bound times per run,
// averaged over runs measured runs after one warm-up run.
func allocsAtMost(t *testing.T, runs int, bound float64, op func()) {
	t.Helper()
	if got := testing.AllocsPerRun(runs, op); got > bound {
		t.Fatalf("%.0f allocs per run, the contract is at most %.0f", got, bound)
	}
}

// allocsRGG100kRun holds the large-scale fast path's steady-state
// reuse: one adversarial protocol-B broadcast on a connected 100,000-node
// random geometric graph (t=1 random placement, corruptor), scenario and
// a fresh corruptor included — strategies are single-run objects —
// allocates a dozen or two times, not in proportion to nodes or slots (it
// was ~200k before the runner kept its arenas).
func allocsRGG100kRun(t *testing.T) {
	g, err := bftbcast.NewRGG(100_000, 7)
	if err != nil {
		t.Fatal(err)
	}
	params := bftbcast.Params{R: 1, T: 1, MF: 2}
	spec, err := bftbcast.NewProtocolB(params)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Read 11 since Run keeps its normalized Scenario copy on the stack;
	// 12 since the placement and the corruptor take their scratch from the
	// runner; 16 since the run frame keeps the jammers' reach; 29–32 when
	// the corruptor built a per-run bad-neighbor index.
	allocsAtMost(t, 5, 13, func() {
		sc, err := bftbcast.NewScenario(
			bftbcast.WithTopology(g),
			bftbcast.WithParams(params),
			bftbcast.WithSpec(spec),
			bftbcast.WithAdversary(bftbcast.RandomPlacement{T: 1, Density: 0.02, Seed: 3}, bftbcast.NewCorruptor()),
		)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := bftbcast.EngineFast.Run(ctx, sc)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Completed || rep.WrongDecisions != 0 {
			t.Fatalf("100k broadcast failed: completed=%v wrong=%d", rep.Completed, rep.WrongDecisions)
		}
	})
}

// allocsMultiBroadcast holds the multi-broadcast machine's flat
// arenas: 32 concurrent protocol-B instances on a fault-free 45×45 torus
// allocate per run, not per instance, node or delivery.
func allocsMultiBroadcast(t *testing.T) {
	tor, err := bftbcast.NewTorus(45, 45, 2)
	if err != nil {
		t.Fatal(err)
	}
	params := bftbcast.Params{R: 2, T: 2, MF: 2}
	spec, err := bftbcast.NewProtocolB(params)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := bftbcast.NewScenario(
		bftbcast.WithTopology(tor), bftbcast.WithParams(params), bftbcast.WithSpec(spec),
		bftbcast.WithBroadcasts(32))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	run := func() {
		rep, err := bftbcast.EngineFast.Run(ctx, sc)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Completed || rep.WrongDecisions != 0 || rep.Multi == nil {
			t.Fatalf("multi broadcast failed: %+v", rep)
		}
	}
	// Read 23 since the machine carves its int32 arrays and its flags
	// from one arena each; 28 since Run keeps its normalized Scenario copy
	// on the stack; 33 when introduced.
	allocsAtMost(t, 10, 26, run)
	// The machine allocates the receipt-count plane of a value on its
	// first tally, so a fault-free run, which only ever counts ValueTrue,
	// holds one of the eight: ≈0.97 MB a run, 2.78 MB with every plane
	// allocated up front.
	const maxBytes = 1_300_000
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run()
		}
	})
	if got := res.AllocedBytesPerOp(); got > maxBytes {
		t.Fatalf("%d bytes allocated per run, the contract is at most %d", got, maxBytes)
	}
}

// allocsBVDeliver holds the flat relay arena of certified
// propagation (the Bhandari–Vaidya rule the reactive machine accepts by):
// one pass in which every non-source node of a 30×30 torus receives t+1
// in-window relays and accepts allocates only when the arena grows —
// nothing per node, per delivery or per acceptance.
func allocsBVDeliver(t *testing.T) {
	tor := grid.MustNew(30, 30, 2)
	const faults, runs = 2, 20
	// An Acceptance serves one pass, so each run (and the warm-up) gets
	// its own, built outside the measurement.
	accs := make([]*protocol.Acceptance, runs+1)
	for i := range accs {
		var err error
		accs[i], err = protocol.NewAcceptance(protocol.AcceptConfig{
			Topo: tor, Source: 0, Threshold: faults + 1,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	row := make([]grid.NodeID, 0, tor.MaxDegree())
	// Read 15 when introduced.
	allocsAtMost(t, runs, 16, func() {
		acc := accs[next]
		next++
		for id := 1; id < tor.Size(); id++ {
			to := grid.NodeID(id)
			n := 0
			row = tor.AppendNeighbors(row[:0], to)
			for _, nb := range row {
				if n <= faults && nb != to {
					acc.Deliver(to, nb, radio.ValueTrue)
					n++
				}
			}
		}
		decided := 0
		for _, d := range acc.Decided {
			if d {
				decided++
			}
		}
		if decided != tor.Size() {
			t.Fatalf("decided %d of %d", decided, tor.Size())
		}
	})
}

// allocsSweep holds a pooled-runner sweep: 8 adversarial protocol-B
// points on a 45×45 torus (r=4, degree 80) through Sweep on one worker —
// scenarios, strategies and reports included, the runner drawn warm from
// the fast engine's pool — stay at a few dozen allocations per point.
func allocsSweep(t *testing.T) {
	tor, err := bftbcast.NewTorus(45, 45, 4)
	if err != nil {
		t.Fatal(err)
	}
	params := bftbcast.Params{R: 4, T: 2, MF: 2}
	spec, err := bftbcast.NewProtocolB(params)
	if err != nil {
		t.Fatal(err)
	}
	base, err := bftbcast.NewScenario(
		bftbcast.WithTopology(tor), bftbcast.WithParams(params), bftbcast.WithSpec(spec))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Read 95, ≈12 a point, since Run fills its points from plain worker
	// goroutines (no emitter, no done table); 102 since Run keeps its
	// normalized Scenario copy on the stack; 110 since the placement and the corruptor take their
	// scratch from the runner; 174 since the run frame keeps the jammers'
	// reach; 230 with the corruptor's per-run bad-neighbor index, 618 when
	// Sweep built a cold runner per call.
	allocsAtMost(t, 5, 105, func() {
		scenarios := make([]*bftbcast.Scenario, 8)
		for j := range scenarios {
			scenarios[j], err = base.With(bftbcast.WithAdversary(
				bftbcast.RandomPlacement{T: params.T, Density: 0.05, Seed: uint64(j + 1)},
				bftbcast.NewCorruptor(),
			))
			if err != nil {
				t.Fatal(err)
			}
		}
		pts, err := (&bftbcast.Sweep{Workers: 1, Scenarios: scenarios}).Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for j, pt := range pts {
			if !pt.Report.Completed {
				t.Fatalf("sweep point %d did not complete", j)
			}
		}
	})
}

// allocsJobGrid holds the job service's per-point cost — one spec
// expansion, one record, one fold per point, and pooled runners reused
// across leased ranges: a 64-point grid (15×15 torus, 16 seeds × t∈{1,2} × mf∈{1,2})
// submitted to a jobs.Manager with checkpointing on and run to
// completion by two in-process executors, which lease it in 4-point
// ranges.
func allocsJobGrid(t *testing.T) {
	m, err := jobs.Open(jobs.Config{Dir: t.TempDir(), Workers: 2, MaxQueue: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := m.Close(ctx); err != nil {
			t.Error(err)
		}
	}()
	spec := &bftbcast.GridSpec{
		Base: bftbcast.ScenarioSpec{
			Topology:  bftbcast.TopologySpec{Kind: "torus", W: 15, H: 15, R: 2},
			Adversary: "random",
			Density:   0.08,
			Seed:      9,
		},
		Seeds: 16,
		T:     []int{1, 2},
		MF:    []int{1, 2},
	}
	// Read 424–441 since grid expansion shares one corruptor, a
	// descriptor with no run state, across its points; 495–514 since a
	// spec's constant Sends and Budget share one func per value; 654 since RunCounts keeps its normalized Scenario
	// copy on the stack; 704–721 since a range runs its points tallies-only on the
	// executor's goroutine, placement and corruptor scratch lent by the
	// runner; 1710–1712 since the run frame keeps the jammers' reach;
	// 2062–2064 with the corruptor's per-run bad-neighbor index, 4378–4385
	// when a cold runner was built per leased range.
	allocsAtMost(t, 10, 484, func() {
		job, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := job.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		if st := job.Status(); st.State != jobs.StateDone || st.Aggregate.Done != 64 {
			t.Fatalf("job ended %s with %d of 64 points", st.State, st.Aggregate.Done)
		}
	})
}

// allocsReactiveRun holds the reactive machine's per-run arrays: one
// reactive15-sweep-shaped point (15×15 torus, r=2, t=1, mf=3, density
// 0.06, MMax 64, k=16) through Scenario → EngineFast allocates its
// instance — the settled mask and its booking arrays included — once per
// run, and nothing per slot, round or delivery.
func allocsReactiveRun(t *testing.T) {
	tor, err := bftbcast.NewTorus(15, 15, 2)
	if err != nil {
		t.Fatal(err)
	}
	params := bftbcast.Params{R: 2, T: 1, MF: 3}
	ctx := context.Background()
	// Read 130 when introduced; the parent read 125, and the five more
	// are the settled mask, Live and the armed/settledAt/lastBook arrays.
	allocsAtMost(t, 20, 143, func() {
		sc, err := bftbcast.NewScenario(
			bftbcast.WithTopology(tor), bftbcast.WithParams(params),
			bftbcast.WithProtocol(bftbcast.ProtocolReactive),
			bftbcast.WithReactive(bftbcast.ReactiveSpec{MMax: 64, PayloadBits: 16}),
			bftbcast.WithSeed(1),
			bftbcast.WithPlacement(bftbcast.RandomPlacement{T: 1, Density: 0.06, Seed: 1}),
		)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := bftbcast.EngineFast.Run(ctx, sc)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Completed || rep.Reactive == nil {
			t.Fatalf("reactive run failed: completed=%v", rep.Completed)
		}
	})
}
