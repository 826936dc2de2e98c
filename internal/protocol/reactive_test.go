package protocol_test

// Section 5's claims, asserted on the reactive machine — the one
// implementation every Scenario, bftsim run and bftsimd job executes:
// certified propagation completes with no wrong decision (absent
// forgeries), the adversary spends at most its budget, per-node message
// counts respect the Theorem 4 bound 2(t·mf+1), and the 1 − 1/n
// reliability target holds over a batch of independent seeds.

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"bftbcast/internal/adversary"
	"bftbcast/internal/core"
	"bftbcast/internal/grid"
	"bftbcast/internal/plan"
	"bftbcast/internal/protocol"
	"bftbcast/internal/sim"
)

// reactiveRun describes one machine run on an r = 2 torus with the
// suite's code parameters (mmax = 64, k = 16) unless overridden.
type reactiveRun struct {
	side      int // torus side; 0 = 15
	t, mf     int
	mmax, k   int // 0 = 64, 16
	policy    protocol.AttackPolicy
	density   float64 // 0 = fault-free
	placeSeed uint64
	seed      uint64
}

func (r reactiveRun) config(t *testing.T) sim.Config {
	t.Helper()
	if r.side == 0 {
		r.side = 15
	}
	if r.mmax == 0 {
		r.mmax = 64
	}
	if r.k == 0 {
		r.k = 16
	}
	tor, err := grid.New(r.side, r.side, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{
		Topo:    tor,
		Params:  core.Params{R: 2, T: r.t, MF: r.mf},
		Machine: &protocol.Reactive{MMax: r.mmax, PayloadBits: r.k, Policy: r.policy},
		Seed:    r.seed,
	}
	if r.density > 0 {
		cfg.Placement = adversary.Random{T: r.t, Density: r.density, Seed: r.placeSeed}
	}
	return cfg
}

// run executes the configuration and returns the engine result with the
// machine's run record.
func (r reactiveRun) run(t *testing.T) (*sim.Result, *protocol.ReactiveStats) {
	t.Helper()
	cfg := r.config(t)
	rec := &sim.Recorder{Machine: cfg.Machine}
	cfg.Machine = rec
	res, err := sim.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatalf("%+v: %v", r, err)
	}
	rs, ok := rec.Record().(*protocol.ReactiveStats)
	if !ok || rs == nil {
		t.Fatalf("%+v: the run published no reactive record", r)
	}
	return res, rs
}

// reactiveConfig is the suite's standard attacked run: t = 1, mf = 3,
// density 0.06, placement and coding seeded alike.
func reactiveConfig(t *testing.T, policy protocol.AttackPolicy, seed uint64) sim.Config {
	t.Helper()
	return reactiveRun{t: 1, mf: 3, policy: policy, density: 0.06, placeSeed: seed, seed: seed}.config(t)
}

// TestReactiveMachineInvariants runs the machine over batches of seeds
// and checks, on every run, completion, budget accounting, the
// retransmission accounting and the Theorem 4 per-node bounds; the cases
// are the paper's Section 5 claims at the parameters the experiment suite
// and EXPERIMENTS.md quote.
func TestReactiveMachineInvariants(t *testing.T) {
	same := func(i uint64) uint64 { return i }
	plus1000 := func(i uint64) uint64 { return i + 1000 }
	cases := []struct {
		name string
		base reactiveRun // seeds filled per run
		// seeds first..first+n-1 drive the placement; runSeed derives
		// the coding seed from the same index.
		first, n uint64
		runSeed  func(i uint64) uint64
		// mayForge: a forge round's rare success may plant a wrong
		// value, so only a forgery-free run must complete cleanly.
		mayForge bool
		long     bool // skipped under -short (the CI oracle leg runs it)
	}{
		{name: "disrupt", base: reactiveRun{t: 1, mf: 3, policy: protocol.PolicyDisrupt, density: 0.06}, first: 1, n: 6, runSeed: same},
		{name: "nackspam", base: reactiveRun{t: 1, mf: 3, policy: protocol.PolicyNackSpam, density: 0.06}, first: 1, n: 6, runSeed: same},
		{name: "mixed", base: reactiveRun{t: 1, mf: 3, policy: protocol.PolicyMixed, density: 0.06}, first: 1, n: 6, runSeed: same, mayForge: true},
		{name: "fault-free", base: reactiveRun{}, first: 1, n: 1, runSeed: same},
		// Success with probability at least 1 − 1/n: at n = 225 and
		// L = 22 the failure probability per run is below 1e-5, so every
		// one of a batch of independent runs must complete correctly.
		{name: "reliability-t2-mixed", base: reactiveRun{t: 2, mf: 3, policy: protocol.PolicyMixed, density: 0.07},
			n: 30, runSeed: func(i uint64) uint64 { return i * 7919 }, long: true},
		// The Theorem 4 message bound 2(t·mf+1) = 10 over placements and
		// policies at once.
		{name: "bound-mf4-disrupt", base: reactiveRun{t: 1, mf: 4, policy: protocol.PolicyDisrupt, density: 0.06},
			n: 10, runSeed: plus1000},
		{name: "bound-mf4-nackspam", base: reactiveRun{t: 1, mf: 4, policy: protocol.PolicyNackSpam, density: 0.06},
			n: 10, runSeed: plus1000},
		{name: "bound-mf4-mixed", base: reactiveRun{t: 1, mf: 4, policy: protocol.PolicyMixed, density: 0.06},
			n: 10, runSeed: plus1000, mayForge: true},
		// t = 3 at r = 2 is still below the certified-propagation
		// threshold (4): the broadcast survives the denser adversary.
		{name: "load-t3-20x20", base: reactiveRun{side: 20, t: 3, mf: 2, policy: protocol.PolicyDisrupt, density: 0.08},
			first: 11, n: 1, runSeed: func(uint64) uint64 { return 1 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.long && testing.Short() {
				t.Skip("multi-seed batch")
			}
			for i := c.first; i < c.first+c.n; i++ {
				r := c.base
				r.placeSeed, r.seed = i, c.runSeed(i)
				res, rs := r.run(t)
				checkReactiveRun(t, fmt.Sprintf("seed %d", i), r, res, rs, c.mayForge)
				if i == c.first {
					// Same configuration, same run record.
					res2, rs2 := r.run(t)
					if !reflect.DeepEqual(rs, rs2) || res.Slots != res2.Slots || res.DecidedGood != res2.DecidedGood {
						t.Fatalf("seed %d: nondeterministic:\n%+v\n%+v", i, rs, rs2)
					}
				}
			}
		})
	}
}

// checkReactiveRun asserts what every reactive run must satisfy.
func checkReactiveRun(t *testing.T, label string, r reactiveRun, res *sim.Result, rs *protocol.ReactiveStats, mayForge bool) {
	t.Helper()
	clean := res.Completed && res.WrongDecisions == 0
	if !clean && !(mayForge && rs.ForgedDeliveries > 0) {
		t.Fatalf("%s: completed=%v decided=%d/%d wrong=%d forged=%d", label,
			res.Completed, res.DecidedGood, res.TotalGood, res.WrongDecisions, rs.ForgedDeliveries)
	}
	// Disruption is always detected and spam never touches a payload:
	// only the forging policies can plant a value.
	if (r.policy == protocol.PolicyDisrupt || r.policy == protocol.PolicyNackSpam) && rs.ForgedDeliveries != 0 {
		t.Fatalf("%s: policy %s forged %d deliveries", label, r.policy, rs.ForgedDeliveries)
	}
	if budget := res.BadCount * r.mf; rs.AttacksSpent > budget {
		t.Fatalf("%s: adversary spent %d > budget %d", label, rs.AttacksSpent, budget)
	}
	if res.BadCount > 0 && r.mf > 0 && rs.AttacksSpent == 0 {
		t.Fatalf("%s: %d bad nodes never attacked", label, res.BadCount)
	}
	// A data round is repeated only because of a NACK, and without a
	// payload attack the only NACKs are the fake ones the adversary paid
	// for: fault-free every local broadcast is a single round, and under
	// spam every spent message forces exactly one more.
	if r.policy == protocol.PolicyNackSpam || rs.AttacksSpent == 0 {
		if rs.MessageRounds != rs.LocalBroadcasts+rs.AttacksSpent {
			t.Fatalf("%s: %d rounds, want %d local broadcasts + %d spam", label,
				rs.MessageRounds, rs.LocalBroadcasts, rs.AttacksSpent)
		}
	}
	if bound := 2 * (r.t*r.mf + 1); rs.MaxNodeMessages > bound {
		t.Fatalf("%s: max node messages %d exceed Theorem 4 bound %d", label, rs.MaxNodeMessages, bound)
	}
	if rs.MaxNodeSubSlots > rs.Theorem4SubSlots {
		t.Fatalf("%s: sub-slots %d exceed the Theorem 4 budget %d", label, rs.MaxNodeSubSlots, rs.Theorem4SubSlots)
	}
	if rs.MessageRounds != int(sum32(rs.DataSends)) {
		t.Fatalf("%s: rounds %d != total data sends %d", label, rs.MessageRounds, sum32(rs.DataSends))
	}
	if res.GoodMessages != rs.MessageRounds {
		t.Fatalf("%s: engine sends %d != data rounds %d", label, res.GoodMessages, rs.MessageRounds)
	}
}

// TestReactiveMachineForgePolicy smoke-tests the probabilistic forging
// policy: runs stay well-formed whether or not a forgery lands, a
// forgery-free run completes cleanly, and a wrong decision can only come
// from a counted forgery. The last run hammers one placement with a huge
// budget and a short payload — every data round in range is a fresh
// cancel lottery — and must still terminate with consistent accounting.
func TestReactiveMachineForgePolicy(t *testing.T) {
	var runs []reactiveRun
	for seed := uint64(1); seed <= 10; seed++ {
		runs = append(runs, reactiveRun{t: 1, mf: 3, policy: protocol.PolicyForge, density: 0.06, placeSeed: seed, seed: seed})
	}
	runs = append(runs, reactiveRun{t: 1, mf: 500, mmax: 500, k: 4, policy: protocol.PolicyForge, density: 0.04, placeSeed: 3, seed: 7})
	for _, r := range runs {
		res, rs := r.run(t)
		if rs.ForgedDeliveries == 0 && (!res.Completed || res.WrongDecisions != 0) {
			t.Fatalf("%+v: no forgery yet completed=%v wrong=%d", r, res.Completed, res.WrongDecisions)
		}
		if res.WrongDecisions > 0 && rs.ForgedDeliveries == 0 {
			t.Fatalf("%+v: wrong decision without a forged delivery", r)
		}
		if rs.MessageRounds <= 0 || rs.LocalBroadcasts <= 0 {
			t.Fatalf("%+v: degenerate run: %+v", r, rs)
		}
		if res.DecidedGood > res.TotalGood || res.WrongDecisions > res.DecidedGood {
			t.Fatalf("%+v: inconsistent decision accounting: %+v", r, res)
		}
	}
}

// TestReactiveCheckParams pins the reactive parameter rule where it
// lives, and that Attach enforces it.
func TestReactiveCheckParams(t *testing.T) {
	tor, err := grid.New(15, 15, 2) // r = 2: CPMaxT = 4
	if err != nil {
		t.Fatal(err)
	}
	suite := protocol.Reactive{MMax: 64, PayloadBits: 16}
	cases := []struct {
		name    string
		m       protocol.Reactive
		t, mf   int
		wantErr bool
	}{
		{"suite parameters", suite, 1, 3, false},
		{"fault-free", suite, 0, 0, false},
		{"t at the threshold", suite, 4, 2, false},
		{"mmax equal to mf", protocol.Reactive{MMax: 5, PayloadBits: 16}, 1, 5, false},
		{"largest payload", protocol.Reactive{MMax: 64, PayloadBits: 1 << 20}, 1, 3, false},
		{"negative t", suite, -1, 3, true},
		{"t above the threshold", suite, 5, 3, true},
		{"negative mf", suite, 1, -1, true},
		{"mmax below 1", protocol.Reactive{MMax: 0, PayloadBits: 16}, 1, 0, true},
		{"mmax below mf", protocol.Reactive{MMax: 1, PayloadBits: 16}, 1, 5, true},
		{"no payload", protocol.Reactive{MMax: 64, PayloadBits: 0}, 1, 3, true},
		{"oversized payload", protocol.Reactive{MMax: 64, PayloadBits: 1<<20 + 1}, 1, 3, true},
	}
	for _, c := range cases {
		if err := c.m.CheckParams(tor.Range(), c.t, c.mf); (err != nil) != c.wantErr {
			t.Errorf("%s: CheckParams = %v, want error %v", c.name, err, c.wantErr)
		}
		_, err := c.m.Attach(protocol.Env{Plan: plan.For(tor), Params: core.Params{R: 2, T: c.t, MF: c.mf}})
		if (err != nil) != c.wantErr {
			t.Errorf("%s: Attach = %v, want error %v", c.name, err, c.wantErr)
		}
	}
}

func sum32(xs []int32) int64 {
	var s int64
	for _, x := range xs {
		s += int64(x)
	}
	return s
}
