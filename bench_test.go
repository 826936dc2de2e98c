package bftbcast_test

// go test -bench conveniences for looking at one thing while working:
// one benchmark per paper experiment (E1–E12, see DESIGN.md §5 and
// EXPERIMENTS.md), each running the corresponding reproduction through
// the exper harness and failing when the claim shape does not reproduce;
// the dense-reference vs sparse-engine pair; the tiers above what bench/
// runs (160×160 sweep, 2^20-node run, RGG construction, large-M RGG); and
// micro-benchmarks of the core primitives. Run with: go test -bench=.
// -benchmem
//
// Nothing here is recorded or gated. Performance claims are measured
// with the repository benchmark (go run -C bench ., BENCHMARK.json),
// which owns the workloads that used to be rows here; allocation
// contracts are tests (allocs_test.go).

import (
	"context"
	"io"
	"testing"

	"bftbcast"
	"bftbcast/internal/auedcode"
	"bftbcast/internal/exper"
	"bftbcast/internal/sim"
	"bftbcast/internal/sim/ref"
	"bftbcast/internal/stats"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := exper.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	for i := 0; i < b.N; i++ {
		out, err := e.Run(exper.Options{Quick: true, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		if !out.Passed {
			var sink io.Writer = io.Discard
			_, _ = out.WriteTo(sink)
			b.Fatalf("%s failed reproduction", id)
		}
	}
}

// BenchmarkE1Figure1Impossibility regenerates the Theorem 1 / Figure 1
// budget sweep against the stripe construction.
func BenchmarkE1Figure1Impossibility(b *testing.B) { benchExperiment(b, "E1") }

// BenchmarkE2Figure2Stall regenerates the exact Figure 2 stall
// (r=4, t=1, mf=1000, m=m0+1=59; 84 decided nodes).
func BenchmarkE2Figure2Stall(b *testing.B) { benchExperiment(b, "E2") }

// BenchmarkE3ProtocolBVsKoo regenerates the protocol B vs repetition
// baseline message-cost comparison (~½(r(2r+1)−t) ratio).
func BenchmarkE3ProtocolBVsKoo(b *testing.B) { benchExperiment(b, "E3") }

// BenchmarkE4CorollaryThresholds regenerates the Corollary 1 fault
// tolerance sweep.
func BenchmarkE4CorollaryThresholds(b *testing.B) { benchExperiment(b, "E4") }

// BenchmarkE5Heterogeneous regenerates the Theorem 3 average-budget
// comparison between Bheter and homogeneous B.
func BenchmarkE5Heterogeneous(b *testing.B) { benchExperiment(b, "E5") }

// BenchmarkE6GeometryLemmas regenerates the Lemma 5–10 frontier and
// expanding-line validations.
func BenchmarkE6GeometryLemmas(b *testing.B) { benchExperiment(b, "E6") }

// BenchmarkE7CodingScheme regenerates the Figure 9 coding tables
// (overhead vs I-code, flip detection, forgery rate).
func BenchmarkE7CodingScheme(b *testing.B) { benchExperiment(b, "E7") }

// BenchmarkE8ReactiveBudget regenerates the Theorem 4 Breactive budget
// measurements.
func BenchmarkE8ReactiveBudget(b *testing.B) { benchExperiment(b, "E8") }

// BenchmarkE9Lemma4Propagation regenerates the Lemma 4 contrapositive
// check on the Figure 2 stall.
func BenchmarkE9Lemma4Propagation(b *testing.B) { benchExperiment(b, "E9") }

// BenchmarkE10Ablations regenerates the sub-bit-length and segment-chain
// ablations.
func BenchmarkE10Ablations(b *testing.B) { benchExperiment(b, "E10") }

// BenchmarkE11Topologies runs the topology-generality comparison (torus
// vs bounded grid vs random geometric graph).
func BenchmarkE11Topologies(b *testing.B) { benchExperiment(b, "E11") }

// BenchmarkE12MultiBroadcast runs the multi-broadcast batching economics
// comparison (batched sends vs M sequential single-broadcast runs).
func BenchmarkE12MultiBroadcast(b *testing.B) { benchExperiment(b, "E12") }

// --- Engine speedup ---

// benchSweep45 runs 8 points of protocol B on a 45×45 torus (r=4, random
// adversary, one seed per point) with a pluggable engine entry point.
// The two variants execute identical work, so their time ratio is the
// engine speedup: sparse fast path vs the dense sim/ref baseline.
func benchSweep45(b *testing.B, run func(context.Context, sim.Config) (*sim.Result, error)) {
	b.Helper()
	tor, err := bftbcast.NewTorus(45, 45, 4)
	if err != nil {
		b.Fatal(err)
	}
	params := bftbcast.Params{R: 4, T: 2, MF: 2}
	spec, err := bftbcast.NewProtocolB(params)
	if err != nil {
		b.Fatal(err)
	}
	const points = 8
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < points; j++ {
			res, err := run(context.Background(), sim.Config{
				Topo: tor, Params: params, Spec: spec,
				Placement: bftbcast.RandomPlacement{T: 2, Density: 0.05, Seed: uint64(j + 1)},
				Strategy:  bftbcast.NewCorruptor(),
			})
			if err != nil {
				b.Fatal(err)
			}
			if !res.Completed {
				b.Fatalf("sweep point %d did not complete", j)
			}
		}
	}
}

// BenchmarkSweep45Sequential is the 45×45 sweep through the sparse fast
// engine (the production path).
func BenchmarkSweep45Sequential(b *testing.B) { benchSweep45(b, sim.RunContext) }

// BenchmarkSweep45DenseRef is the same sweep through the dense reference
// engine (internal/sim/ref): the frozen pre-optimization baseline the
// fast path's single-core speedup is measured against.
func BenchmarkSweep45DenseRef(b *testing.B) { benchSweep45(b, ref.RunContext) }

// --- Large-scale tier (compiled topology plans) ---

// BenchmarkSweep160Scenario is the large-scale sweep tier: 8 points of
// protocol B on a 160×160 torus (25.6k nodes, r=2, random adversary +
// corruptor) through the public Sweep harness with its pooled runner,
// one worker so timings compare across machines. The compiled
// topology plan is built once for the whole benchmark; every point and
// every iteration reuses it.
func BenchmarkSweep160Scenario(b *testing.B) {
	tor, err := bftbcast.NewTorus(160, 160, 2)
	if err != nil {
		b.Fatal(err)
	}
	params := bftbcast.Params{R: 2, T: 2, MF: 2}
	spec, err := bftbcast.NewProtocolB(params)
	if err != nil {
		b.Fatal(err)
	}
	base, err := bftbcast.NewScenario(
		bftbcast.WithTopology(tor), bftbcast.WithParams(params), bftbcast.WithSpec(spec))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scenarios := make([]*bftbcast.Scenario, 8)
		for j := range scenarios {
			scenarios[j], err = base.With(bftbcast.WithAdversary(
				bftbcast.RandomPlacement{T: params.T, Density: 0.05, Seed: uint64(j + 1)},
				bftbcast.NewCorruptor(),
			))
			if err != nil {
				b.Fatal(err)
			}
		}
		pts, err := (&bftbcast.Sweep{Workers: 1, Scenarios: scenarios}).Run(ctx)
		if err != nil {
			b.Fatal(err)
		}
		for j, pt := range pts {
			if !pt.Report.Completed {
				b.Fatalf("sweep point %d did not complete", j)
			}
		}
	}
}

// BenchmarkRGG1MRun is the million-node scale proof: one fault-free
// protocol-B broadcast on a connected random geometric graph of 2^20
// nodes (the RGG constructor's cap). The graph and its compiled plan are
// built once outside the timer; the measured op is the full broadcast to
// completion. Skipped in -short runs: graph construction alone takes
// seconds.
func BenchmarkRGG1MRun(b *testing.B) {
	if testing.Short() {
		b.Skip("million-node benchmark skipped in -short mode")
	}
	g, err := bftbcast.NewRGG(1<<20, 7)
	if err != nil {
		b.Fatal(err)
	}
	params := bftbcast.Params{R: 1, T: 0, MF: 0}
	spec, err := bftbcast.NewProtocolB(params)
	if err != nil {
		b.Fatal(err)
	}
	sc, err := bftbcast.NewScenario(
		bftbcast.WithTopology(g),
		bftbcast.WithParams(params),
		bftbcast.WithSpec(spec),
	)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := bftbcast.EngineFast.Run(ctx, sc)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Completed || rep.WrongDecisions != 0 {
			b.Fatalf("1M broadcast failed: completed=%v wrong=%d", rep.Completed, rep.WrongDecisions)
		}
	}
}

// BenchmarkRGGBuild is the topology layer under the RGG tiers, which
// all build their graph outside the timer: place the nodes, grow
// the radius until connected, CSR adjacency, component sweep, greedy
// distance-2 coloring. n=1M is run at -benchtime 1x like RGG1MRun and
// skipped in -short runs.
func BenchmarkRGGBuild(b *testing.B) {
	for _, tc := range []struct {
		name string
		n    int
	}{{"n=100k", 100_000}, {"n=1M", 1 << 20}} {
		b.Run(tc.name, func(b *testing.B) {
			if tc.n > 100_000 && testing.Short() {
				b.Skip("million-node benchmark skipped in -short mode")
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g, err := bftbcast.NewRGG(tc.n, 7)
				if err != nil {
					b.Fatal(err)
				}
				if g.Size() != tc.n {
					b.Fatalf("built %d nodes, want %d", g.Size(), tc.n)
				}
			}
		})
	}
}

// BenchmarkRGG25kMulti is the large-M irregular-topology tier: 16
// concurrent protocol-B instances on a connected random geometric graph
// of 25,600 nodes, fault-free. Where bench/'s multi32-torus45 runs the
// batching on a regular schedule, this one runs it over the RGG's greedy
// coloring — uneven color classes — at a scale where the flat M×N arenas
// dominate memory traffic. One run outside the timer fills the runner
// pool and the plan cache. Next to ns/op it reports the multi-broadcast
// accounting of Levin/Kowalski/Segal (PAPERS.md): amortised slots per
// broadcast, instance entries per physical send, and batched over naive
// sends.
func BenchmarkRGG25kMulti(b *testing.B) {
	g, err := bftbcast.NewRGG(25_600, 7)
	if err != nil {
		b.Fatal(err)
	}
	params := bftbcast.Params{R: 1, T: 0, MF: 0}
	spec, err := bftbcast.NewProtocolB(params)
	if err != nil {
		b.Fatal(err)
	}
	sc, err := bftbcast.NewScenario(
		bftbcast.WithTopology(g),
		bftbcast.WithParams(params),
		bftbcast.WithSpec(spec),
		bftbcast.WithBroadcasts(16),
	)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	var rep *bftbcast.Report
	run := func() {
		if rep, err = bftbcast.EngineFast.Run(ctx, sc); err != nil {
			b.Fatal(err)
		}
		if !rep.Completed || rep.WrongDecisions != 0 || rep.Multi == nil {
			b.Fatalf("multi broadcast failed: %+v", rep)
		}
	}
	run()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(rep.Slots)/float64(rep.Multi.M), "slots/bcast")
	b.ReportMetric(float64(rep.Multi.EntriesCarried)/float64(rep.Multi.BatchedSends), "entries/send")
	b.ReportMetric(float64(rep.Multi.BatchedSends)/float64(rep.Multi.NaiveSends), "batched/naive")
}

// --- Micro-benchmarks of the core primitives ---

// BenchmarkProtocolBRun measures a full protocol B broadcast on a 20×20
// torus under the corruptor adversary.
func BenchmarkProtocolBRun(b *testing.B) {
	tor, err := bftbcast.NewTorus(20, 20, 2)
	if err != nil {
		b.Fatal(err)
	}
	params := bftbcast.Params{R: 2, T: 3, MF: 2}
	spec, err := bftbcast.NewProtocolB(params)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.RunContext(context.Background(), sim.Config{
			Topo: tor, Params: params, Spec: spec,
			Placement: bftbcast.RandomPlacement{T: 3, Density: 0.1, Seed: 7},
			Strategy:  bftbcast.NewCorruptor(),
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Completed {
			b.Fatal("broadcast failed")
		}
	}
}

// BenchmarkAUEDEncode measures encoding a 64-bit payload into the
// two-level code (bit segments plus random sub-bit patterns).
func BenchmarkAUEDEncode(b *testing.B) {
	code, err := auedcode.NewCode(64, 1024, 4, 4096)
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRNG(1)
	payload := auedcode.NewBitString(64)
	for i := 0; i < 64; i += 3 {
		payload.Set(i, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := code.Encode(payload, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAUEDVerify measures integrity verification of a received
// codeword.
func BenchmarkAUEDVerify(b *testing.B) {
	code, err := auedcode.NewCode(64, 1024, 4, 4096)
	if err != nil {
		b.Fatal(err)
	}
	payload := auedcode.NewBitString(64)
	payload.Set(0, 1)
	w, err := code.EncodeBits(payload)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := code.Verify(w); err != nil {
			b.Fatal(err)
		}
	}
}
