package bftbcast_test

import (
	"context"
	"fmt"

	"bftbcast"
)

// ExampleM0 shows the Figure 2 parameters: at r=4, t=1, mf=1000 a good
// node needs at least 58 messages, and protocol B works with twice that.
func ExampleM0() {
	m0 := bftbcast.M0(4, 1, 1000)
	fmt.Println(m0, 2*m0)
	// Output: 58 116
}

// ExampleNewProtocolB runs the paper's protocol B on a small fault-free
// torus through the Scenario/Engine API.
func ExampleNewProtocolB() {
	params := bftbcast.Params{R: 2, T: 3, MF: 2}
	tor, err := bftbcast.NewTorus(20, 20, params.R)
	if err != nil {
		panic(err)
	}
	spec, err := bftbcast.NewProtocolB(params)
	if err != nil {
		panic(err)
	}
	sc, err := bftbcast.NewScenario(
		bftbcast.WithTopology(tor),
		bftbcast.WithParams(params),
		bftbcast.WithSpec(spec),
		bftbcast.WithSource(tor.ID(0, 0)),
	)
	if err != nil {
		panic(err)
	}
	rep, err := bftbcast.EngineFast.Run(context.Background(), sc)
	if err != nil {
		panic(err)
	}
	fmt.Println(rep.Completed, rep.WrongDecisions)
	// Output: true 0
}

// ExampleSweep sweeps one Scenario over three adversary seeds on the
// deterministic worker pool; the points come back in scenario order.
func ExampleSweep() {
	params := bftbcast.Params{R: 2, T: 2, MF: 2}
	tor, err := bftbcast.NewTorus(20, 20, params.R)
	if err != nil {
		panic(err)
	}
	spec, err := bftbcast.NewProtocolB(params)
	if err != nil {
		panic(err)
	}
	base, err := bftbcast.NewScenario(
		bftbcast.WithTopology(tor),
		bftbcast.WithParams(params),
		bftbcast.WithSpec(spec),
	)
	if err != nil {
		panic(err)
	}
	var scenarios []*bftbcast.Scenario
	for seed := uint64(1); seed <= 3; seed++ {
		sc, err := base.With(bftbcast.WithAdversary(
			bftbcast.RandomPlacement{T: params.T, Density: 0.05, Seed: seed},
			bftbcast.NewCorruptor(),
		))
		if err != nil {
			panic(err)
		}
		scenarios = append(scenarios, sc)
	}
	sweep := bftbcast.Sweep{Workers: 2, Scenarios: scenarios}
	pts, err := sweep.Run(context.Background())
	if err != nil {
		panic(err)
	}
	for _, pt := range pts {
		fmt.Println(pt.Index, pt.Report.Completed, pt.Report.WrongDecisions)
	}
	// Output:
	// 0 true 0
	// 1 true 0
	// 2 true 0
}

// ExampleNewCode encodes a message with the Section 5 AUED code and shows
// the layout: K stays close to k while the I-code would double it.
func ExampleNewCode() {
	code, err := bftbcast.NewCode(64, 1024, 4, 4096)
	if err != nil {
		panic(err)
	}
	fmt.Println(code.CodewordBits(), code.SubBitLength())
	// Output: 79 34
}

// ExampleTolerableT evaluates Corollary 1 for a given budget pair.
func ExampleTolerableT() {
	fmt.Println(bftbcast.TolerableT(8, 4, 2), bftbcast.BreakableT(8, 4, 2))
	// Output: 3 4
}

// ExampleNewScenario describes one broadcast — protocol B on a 20×20
// torus against a random locally-bounded adversary — and runs it through
// the fast engine: the minimal end-to-end use of the Scenario/Engine API.
func ExampleNewScenario() {
	// Fault model: radio range 2, at most 3 bad nodes per neighborhood,
	// each with a budget of 2 messages.
	params := bftbcast.Params{R: 2, T: 3, MF: 2}
	tor, err := bftbcast.NewTorus(20, 20, params.R)
	if err != nil {
		panic(err)
	}
	// Protocol B (Theorem 2): the source repeats 2tmf+1 times, nodes
	// relay m' times and accept at tmf+1 copies. Every good node needs
	// budget 2*m0.
	spec, err := bftbcast.NewProtocolB(params)
	if err != nil {
		panic(err)
	}
	fmt.Printf("m0=%d, relay budget m'=%d, per-node budget 2m0=%d, threshold=%d\n",
		bftbcast.M0(params.R, params.T, params.MF), spec.Sends(0),
		params.HomogeneousBudget(), spec.Threshold)

	// A Scenario is backend-neutral: the same description also runs on
	// the dense reference engine (bftbcast.EngineRef).
	sc, err := bftbcast.NewScenario(
		bftbcast.WithTopology(tor),
		bftbcast.WithParams(params),
		bftbcast.WithSpec(spec),
		bftbcast.WithSource(tor.ID(0, 0)),
		// Random bad nodes respecting the t-local bound, driven by the
		// budget-aware collision adversary.
		bftbcast.WithAdversary(
			bftbcast.RandomPlacement{T: params.T, Density: 0.1, Seed: 7},
			bftbcast.NewCorruptor(),
		),
	)
	if err != nil {
		panic(err)
	}
	rep, err := bftbcast.EngineFast.Run(context.Background(), sc)
	if err != nil {
		panic(err)
	}
	fmt.Printf("completed=%v decided=%d/%d wrongDecisions=%d\n",
		rep.Completed, rep.DecidedGood, rep.TotalGood, rep.WrongDecisions)
	fmt.Printf("slots=%d goodMessages=%d badMessages=%d avgSends=%.2f\n",
		rep.Slots, rep.GoodMessages, rep.BadMessages, rep.AvgGoodSends)
	// Output:
	// m0=2, relay budget m'=4, per-node budget 2m0=4, threshold=7
	// completed=true decided=364/364 wrongDecisions=0
	// slots=381 goodMessages=1465 badMessages=0 avgSends=4.00
}

// ExampleNewBheter shows Theorem 3 / Figure 5: protocol Bheter gives the
// boosted budget m' only to the cross through the source and m0 to
// everyone else, cutting the average budget versus protocol B's
// homogeneous 2m0 while still completing under attack. Both protocols run
// as variants of one base Scenario (Scenario.With).
func ExampleNewBheter() {
	params := bftbcast.Params{R: 2, T: 2, MF: 10}
	tor, err := bftbcast.NewTorus(40, 40, params.R)
	if err != nil {
		panic(err)
	}
	src := tor.ID(0, 0)
	cross := bftbcast.Cross{Center: src, HalfWidth: params.R}
	heter, err := bftbcast.NewBheter(params, tor, cross)
	if err != nil {
		panic(err)
	}
	homog, err := bftbcast.NewProtocolB(params)
	if err != nil {
		panic(err)
	}
	fmt.Printf("m0=%d m'=%d; cross holds %d of %d nodes\n",
		bftbcast.M0(params.R, params.T, params.MF), heter.Sends(src),
		tor.CrossSize(cross), tor.Size())

	base, err := bftbcast.NewScenario(
		bftbcast.WithTopology(tor),
		bftbcast.WithParams(params),
		bftbcast.WithSource(src),
		bftbcast.WithAdversary(
			bftbcast.RandomPlacement{T: params.T, Density: 0.05, Seed: 11},
			bftbcast.NewCorruptor(),
		),
		bftbcast.WithSpec(heter),
	)
	if err != nil {
		panic(err)
	}
	for _, tc := range []struct {
		name string
		spec bftbcast.Spec
	}{
		{"Bheter (cross m', rest m0)", heter},
		{"B     (everyone 2m0)     ", homog},
	} {
		// Each variant gets its protocol and a corruptor.
		sc, err := base.With(
			bftbcast.WithSpec(tc.spec),
			bftbcast.WithStrategy(bftbcast.NewCorruptor()),
		)
		if err != nil {
			panic(err)
		}
		rep, err := bftbcast.EngineFast.Run(context.Background(), sc)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s: completed=%-5v avgBudget=%6.2f avgSent=%6.2f\n",
			tc.name, rep.Completed, tc.spec.AverageBudget(tor, src), rep.AvgGoodSends)
	}
	// Output:
	// m0=6 m'=11; cross holds 375 of 1600 nodes
	// Bheter (cross m', rest m0): completed=true  avgBudget=  7.17 avgSent=  7.18
	// B     (everyone 2m0)     : completed=true  avgBudget= 12.00 avgSent= 11.00
}

// ExampleSandwichPlacement reproduces the paper's impossibility
// construction on one torus: the Theorem 1 stripe (as a sandwich, since a
// single stripe does not disconnect a torus) starves a whole band when
// good budgets fall below m0, while the same setup completes at m = 2m0
// (Theorem 2). The three budget points run as one Sweep.
func ExampleSandwichPlacement() {
	params := bftbcast.Params{R: 2, T: 5, MF: 4}
	m0 := bftbcast.M0(params.R, params.T, params.MF)
	fmt.Printf("fault model r=%d t=%d mf=%d: m0=%d, 2m0=%d\n",
		params.R, params.T, params.MF, m0, 2*m0)
	tor, err := bftbcast.NewTorus(20, 20, params.R)
	if err != nil {
		panic(err)
	}
	// Two stripes of bad nodes face each other across rows 9..12: the
	// band in between can only be reached through them.
	sandwich := bftbcast.SandwichPlacement{YLow: 7, YHigh: 13, T: params.T}
	victims := sandwich.VictimBand(tor)
	base, err := bftbcast.NewScenario(
		bftbcast.WithTopology(tor),
		bftbcast.WithParams(params),
		bftbcast.WithSource(tor.ID(0, 0)),
		bftbcast.WithPlacement(sandwich),
	)
	if err != nil {
		panic(err)
	}

	budgets := []int{m0 - 4, m0, 2 * m0}
	scenarios := make([]*bftbcast.Scenario, len(budgets))
	for i, m := range budgets {
		spec, err := bftbcast.NewFullBudget(params, m)
		if err != nil {
			panic(err)
		}
		scenarios[i], err = base.With(
			bftbcast.WithSpec(spec),
			bftbcast.WithStrategy(bftbcast.NewTargeted(victims)),
		)
		if err != nil {
			panic(err)
		}
	}
	sweep := bftbcast.Sweep{Scenarios: scenarios}
	pts, err := sweep.Run(context.Background())
	if err != nil {
		panic(err)
	}
	for _, pt := range pts {
		rep, m := pt.Report, budgets[pt.Index]
		blocked := 0
		for i, v := range victims {
			if v && !rep.Decided[i] {
				blocked++
			}
		}
		fmt.Printf("m=%3d (%.2f*m0): completed=%-5v bandBlocked=%d wrongDecisions=%d adversarySpent=%d\n",
			m, float64(m)/float64(m0), rep.Completed, blocked, rep.WrongDecisions, rep.BadMessages)
	}
	fmt.Println("expected: blocked band below m0, completion at 2m0, and no wrong decisions ever (Lemma 1)")
	// Output:
	// fault model r=2 t=5 mf=4: m0=9, 2m0=18
	// m=  5 (0.56*m0): completed=false bandBlocked=80 wrongDecisions=0 adversarySpent=57
	// m=  9 (1.00*m0): completed=true  bandBlocked=0 wrongDecisions=0 adversarySpent=160
	// m= 18 (2.00*m0): completed=true  bandBlocked=0 wrongDecisions=0 adversarySpent=160
	// expected: blocked band below m0, completion at 2m0, and no wrong decisions ever (Lemma 1)
}

// ExampleReactiveSpec shows Section 5: when the adversary's budget mf is
// unknown, protocol Breactive combines the cryptography-free AUED coding
// scheme with NACK-driven retransmission and certified propagation. It
// runs three attack policies on the fast engine, comparing per-node
// message costs with the Theorem 4 budget, and cross-checks one of them
// on the dense reference engine, which must agree bit for bit.
func ExampleReactiveSpec() {
	tor, err := bftbcast.NewTorus(15, 15, 2)
	if err != nil {
		panic(err)
	}
	const (
		t    = 1  // locally-bounded faults (must be < r(2r+1)/2 = 5)
		mf   = 3  // actual adversary budget: the protocol does NOT know this
		mmax = 64 // loose bound the protocol does know (sets L)
		k    = 16 // payload bits
	)
	fmt.Printf("Breactive on 15x15, t=%d, real mf=%d (hidden), mmax=%d, k=%d; CPA tolerates t < %d\n",
		t, mf, mmax, k, bftbcast.CPAMaxT(tor.Range())+1)
	base, err := bftbcast.NewScenario(
		bftbcast.WithTopology(tor),
		bftbcast.WithParams(bftbcast.Params{R: tor.Range(), T: t, MF: mf}),
		bftbcast.WithProtocol(bftbcast.ProtocolReactive),
		bftbcast.WithSource(tor.ID(0, 0)),
		bftbcast.WithPlacement(bftbcast.RandomPlacement{T: t, Density: 0.06, Seed: 13}),
		bftbcast.WithSeed(17),
	)
	if err != nil {
		panic(err)
	}
	for _, policy := range []bftbcast.AttackPolicy{
		bftbcast.PolicyDisrupt, bftbcast.PolicyNackSpam, bftbcast.PolicyMixed,
	} {
		sc, err := base.With(bftbcast.WithReactive(bftbcast.ReactiveSpec{
			MMax: mmax, PayloadBits: k, Policy: policy,
		}))
		if err != nil {
			panic(err)
		}
		rep, err := bftbcast.EngineFast.Run(context.Background(), sc)
		if err != nil {
			panic(err)
		}
		res := rep.Reactive
		fmt.Printf("policy=%-8s completed=%-5v rounds=%3d maxMsgs/node=%d (bound %d) forged=%d\n",
			policy, rep.Completed, res.MessageRounds, res.MaxNodeMessages,
			2*(t*mf+1), res.ForgedDeliveries)
		if policy == bftbcast.PolicyDisrupt {
			fmt.Printf("  codeword K=%d bits, L=%d sub-bits; max sub-slots %d vs Theorem 4 budget %d\n",
				res.CodewordBits, res.SubBitLength, res.MaxNodeSubSlots, res.Theorem4SubSlots)
		}
	}

	// The protocol runs on any engine: the dense reference backend must
	// reproduce the fast engine's disruption run exactly.
	sc, err := base.With(bftbcast.WithReactive(bftbcast.ReactiveSpec{
		MMax: mmax, PayloadBits: k, Policy: bftbcast.PolicyDisrupt,
	}))
	if err != nil {
		panic(err)
	}
	fastRep, err := bftbcast.EngineFast.Run(context.Background(), sc)
	if err != nil {
		panic(err)
	}
	refRep, err := bftbcast.EngineRef.Run(context.Background(), sc)
	if err != nil {
		panic(err)
	}
	fmt.Printf("cross-check: fast slots=%d rounds=%d == ref slots=%d rounds=%d\n",
		fastRep.Slots, fastRep.Reactive.MessageRounds,
		refRep.Slots, refRep.Reactive.MessageRounds)
	// Output:
	// Breactive on 15x15, t=1, real mf=3 (hidden), mmax=64, k=16; CPA tolerates t < 5
	// policy=disrupt  completed=true  rounds=237 maxMsgs/node=4 (bound 8) forged=0
	//   codeword K=29 bits, L=22 sub-bits; max sub-slots 2552 vs Theorem 4 budget 4576
	// policy=nackspam completed=true  rounds=237 maxMsgs/node=2 (bound 8) forged=0
	// policy=mixed    completed=true  rounds=231 maxMsgs/node=3 (bound 8) forged=0
	// cross-check: fast slots=60 rounds=237 == ref slots=60 rounds=237
}
