package exper

import (
	"fmt"
	"math"

	"bftbcast/internal/adversary"
	"bftbcast/internal/auedcode"
	"bftbcast/internal/core"
	"bftbcast/internal/geometry"
	"bftbcast/internal/grid"
	"bftbcast/internal/metrics"
	"bftbcast/internal/protocol"
	"bftbcast/internal/sim"
	"bftbcast/internal/stats"
)

func init() {
	register(Experiment{ID: "E6", Title: "Lemmas 5-10 / Figures 6-8: propagation geometry", Run: runE6})
	register(Experiment{ID: "E7", Title: "Figure 9: AUED coding scheme (overhead, detection, forgery)", Run: runE7})
	register(Experiment{ID: "E8", Title: "Theorem 4: Breactive message budgets with unknown mf", Run: runE8})
	register(Experiment{ID: "E9", Title: "Lemma 4: decided-neighborhood sufficiency (contrapositive)", Run: runE9})
	register(Experiment{ID: "E10", Title: "Ablations: sub-bit length, segment chain", Run: runE10})
}

func runE6(opts Options) (*Outcome, error) {
	o := &Outcome{ID: "E6", Title: "Propagation geometry", Passed: true}

	front := metrics.NewTable("Frontier distance bounds over all slopes (length 37r)",
		"r", "variant", "min measured distance / r", "lemma bound / r", "holds")
	radii := []int{2, 3, 4, 5}
	if opts.Quick {
		radii = []int{2, 4}
	}
	for _, r := range radii {
		for _, variant := range []struct {
			name string
			c    int
		}{{"committed (L6)", 1}, {"shifted (L7)", 2}, {"float (L8)", 3}} {
			minD := math.Inf(1)
			for rho := -r; rho <= 0; rho++ {
				cl := geometry.CommittedLine{Rho: rho, R: r, Length: 37 * float64(r)}
				var dl, dr float64
				var err error
				switch variant.c {
				case 1:
					_, dl, dr, err = cl.Frontier()
				case 2:
					_, dl, dr, err = cl.ShiftedFrontier()
				default:
					_, dl, dr, err = cl.FloatFrontier()
				}
				if err != nil {
					return nil, err
				}
				minD = math.Min(minD, math.Min(dl, dr))
			}
			bound := geometry.FrontierDistanceBound(37*float64(r), r, variant.c)
			holds := minD >= bound
			front.AddRow(metrics.Itoa(r), variant.name,
				metrics.Ftoa(minD/float64(r), 2), metrics.Ftoa(bound/float64(r), 2),
				metrics.Btoa(holds))
			if !holds {
				o.fail("%s bound violated at r=%d", variant.name, r)
			}
		}
	}
	o.Tables = append(o.Tables, front)

	clear := metrics.NewTable("Lemma 9: expanding-line clearance d (must exceed 1.25)",
		"r", "min d over slopes", "holds")
	for _, r := range radii {
		minD := math.Inf(1)
		for rho := -r; rho < 0; rho++ {
			lo := float64(rho) / float64(r)
			hi := float64(rho+1) / float64(r)
			steps := 16
			if opts.Quick {
				steps = 6
			}
			for i := 0; i < steps; i++ {
				h := lo + (hi-lo)*(float64(i)+0.5)/float64(steps)
				if h <= -1 || h >= 0 {
					continue
				}
				el, err := geometry.NewExpandingLine(geometry.Point{}, h, r, 74*float64(r))
				if err != nil {
					return nil, err
				}
				d, _, err := el.Clearance()
				if err != nil {
					return nil, err
				}
				minD = math.Min(minD, d)
			}
		}
		clear.AddRow(metrics.Itoa(r), metrics.Ftoa(minD, 3), metrics.Btoa(minD > 1.25))
		if minD <= 1.25 {
			o.fail("Lemma 9 clearance %.3f <= 1.25 at r=%d", minD, r)
		}
	}
	o.Tables = append(o.Tables, clear)

	belt := metrics.NewTable("Lemma 10 belt arithmetic on the 550r^2 circle",
		"chord", "sagitta |HH1|", "belt width", "paper claim")
	s74, d74 := geometry.BeltExpansion(2, 74)
	belt.AddRow("74r (as stated)", metrics.Ftoa(s74, 4), metrics.Ftoa(d74, 4),
		"<0.72 / >0.53 (does not hold; belt still positive)")
	s56, d56 := geometry.BeltExpansion(2, 56)
	belt.AddRow("56r (matching the printed numbers)", metrics.Ftoa(s56, 4), metrics.Ftoa(d56, 4),
		"<0.72 / >0.53 (holds)")
	o.Tables = append(o.Tables, belt)
	if d74 <= 0 || s56 >= 0.72 || d56 <= 0.53 {
		o.fail("belt arithmetic outside expected ranges")
	}
	o.note("the paper's 0.72/0.53 figures correspond to a 56r chord; with the stated 74r "+
		"chord the sagitta is %.4f, leaving a thinner but still positive belt, so Lemma 10's "+
		"conclusion survives", s74)
	return o, nil
}

func runE7(opts Options) (*Outcome, error) {
	o := &Outcome{ID: "E7", Title: "AUED coding scheme", Passed: true}
	rng := stats.NewRNG(opts.Seed + 70)

	overhead := metrics.NewTable("Code length vs payload (paper: K <= k + 2 log k + 2; I-code: 2k)",
		"k", "K (this impl)", "bound", "I-code 2k", "K < 2k")
	ks := []int{16, 64, 256, 1024, 4096}
	if opts.Quick {
		ks = []int{16, 256, 4096}
	}
	for _, k := range ks {
		c, err := auedcode.NewCode(k, 1024, 4, 4096)
		if err != nil {
			return nil, err
		}
		kk := c.CodewordBits()
		overhead.AddRow(metrics.Itoa(k), metrics.Itoa(kk),
			metrics.Itoa(auedcode.PaperOverheadBound(k)), metrics.Itoa(2*k),
			metrics.Btoa(kk < 2*k))
		if kk > auedcode.PaperOverheadBound(k) || kk >= 2*k {
			o.fail("overhead out of range at k=%d: K=%d", k, kk)
		}
	}
	o.Tables = append(o.Tables, overhead)

	// Detection: random up-flip attacks must always be caught.
	c, err := auedcode.NewCode(32, 1024, 4, 4096)
	if err != nil {
		return nil, err
	}
	trials := 2000
	if opts.Quick {
		trials = 400
	}
	detected := 0
	for i := 0; i < trials; i++ {
		payload := auedcode.NewBitString(32)
		for j := 0; j < 32; j++ {
			if rng.Bool() {
				payload.Set(j, 1)
			}
		}
		w, err := c.EncodeBits(payload)
		if err != nil {
			return nil, err
		}
		attacked := w.Clone()
		flips := rng.Intn(5) + 1
		for f := 0; f < flips; f++ {
			for {
				pos := rng.Intn(attacked.Len())
				if attacked.Get(pos) == 0 {
					attacked.Set(pos, 1)
					break
				}
			}
		}
		if c.Verify(attacked) != nil {
			detected++
		}
	}
	det := metrics.NewTable("Detection of 0->1 flip attacks (k=32)",
		"trials", "detected", "rate", "paper")
	det.AddRow(metrics.Itoa(trials), metrics.Itoa(detected),
		metrics.Ftoa(float64(detected)/float64(trials), 4), "1.0 (all unidirectional errors)")
	o.Tables = append(o.Tables, det)
	if detected != trials {
		o.fail("missed %d flip attacks", trials-detected)
	}

	// Forgery: measured 1->0 erasure rate vs 1/(2^L - 1) at tiny L.
	small, err := auedcode.NewCode(4, 2, 1, 2) // L = 3
	if err != nil {
		return nil, err
	}
	forgeTrials := 30000
	if opts.Quick {
		forgeTrials = 6000
	}
	payload, err := auedcode.ParseBits("1000")
	if err != nil {
		return nil, err
	}
	hits := 0
	for i := 0; i < forgeTrials; i++ {
		cw, err := small.Encode(payload, rng)
		if err != nil {
			return nil, err
		}
		_, erased, err := cw.AttackCancelRandom(1, rng)
		if err != nil {
			return nil, err
		}
		if erased {
			hits++
		}
	}
	lo, hi, err := stats.WilsonInterval(hits, forgeTrials)
	if err != nil {
		return nil, err
	}
	want := small.ForgeProbability()
	forge := metrics.NewTable("Random-guess erasure of a 1-bit (L=3)",
		"trials", "successes", "measured", "95% CI", "design 1/(2^L-1)")
	forge.AddRow(metrics.Itoa(forgeTrials), metrics.Itoa(hits),
		metrics.Etoa(float64(hits)/float64(forgeTrials)),
		fmt.Sprintf("[%.4f, %.4f]", lo, hi), metrics.Etoa(want))
	o.Tables = append(o.Tables, forge)
	if want < lo || want > hi {
		o.fail("forge probability %.5f outside measured CI [%.5f, %.5f]", want, lo, hi)
	}
	return o, nil
}

// runE8 measures Theorem 4 on the reactive protocol machine — the code
// every Scenario, bftsim run and bftsimd job executes — through sim.Run,
// exactly as E12 drives protocol.Multi.
func runE8(opts Options) (*Outcome, error) {
	o := &Outcome{ID: "E8", Title: "Theorem 4 budgets", Passed: true}
	tor, err := grid.New(15, 15, 2)
	if err != nil {
		return nil, err
	}
	tbl := metrics.NewTable("Breactive on a 15x15 torus (k=16, mmax=64): per-node message cost",
		"t", "mf", "policy", "completed", "max msgs/node", "bound 2(tmf+1)",
		"max sub-slots", "Theorem 4 budget", "forged")
	type cse struct {
		t, mf  int
		policy protocol.AttackPolicy
	}
	cases := []cse{
		{1, 3, protocol.PolicyDisrupt},
		{1, 3, protocol.PolicyNackSpam},
		{3, 2, protocol.PolicyDisrupt},
	}
	if !opts.Quick {
		cases = append(cases, cse{1, 6, protocol.PolicyMixed}, cse{4, 2, protocol.PolicyDisrupt})
	}
	for _, c := range cases {
		machine := &protocol.Reactive{MMax: 64, PayloadBits: 16, Policy: c.policy}
		res, err := sim.Run(sim.Config{
			Topo: tor, Params: core.Params{R: 2, T: c.t, MF: c.mf}, Source: tor.ID(0, 0),
			Placement: adversary.Random{T: c.t, Density: 0.06, Seed: opts.Seed + 80},
			Seed:      opts.Seed + 81,
			Machine:   machine,
		})
		if err != nil {
			return nil, err
		}
		rs := machine.TakeStats()
		bound := 2 * (c.t*c.mf + 1)
		tbl.AddRow(metrics.Itoa(c.t), metrics.Itoa(c.mf), c.policy.String(),
			metrics.Btoa(res.Completed), metrics.Itoa(rs.MaxNodeMessages),
			metrics.Itoa(bound), metrics.Itoa(rs.MaxNodeSubSlots),
			metrics.Itoa(rs.Theorem4SubSlots), metrics.Itoa(rs.ForgedDeliveries))
		if !res.Completed {
			o.fail("Breactive failed at t=%d mf=%d policy=%s", c.t, c.mf, c.policy)
		}
		if rs.MaxNodeMessages > bound {
			o.fail("message cost %d exceeds 2(tmf+1)=%d", rs.MaxNodeMessages, bound)
		}
		if rs.MaxNodeSubSlots > rs.Theorem4SubSlots {
			o.fail("sub-slot cost %d exceeds the Theorem 4 budget %d",
				rs.MaxNodeSubSlots, rs.Theorem4SubSlots)
		}
	}
	o.Tables = append(o.Tables, tbl)
	o.note("success probability target is 1 - 1/n; across the suite's seeds no run has failed, " +
		"and the forge rate is bounded by 2^-L per attack (measured in E7 at small L)")
	return o, nil
}

func runE9(Options) (*Outcome, error) {
	o := &Outcome{ID: "E9", Title: "Lemma 4 contrapositive", Passed: true}
	// Rebuild the Figure 2 stall and check that no undecided node ever
	// had r(2r+1) decided neighbors: Lemma 4 says such a node must be
	// able to accept, so the stalled frontier must stay strictly below.
	p := core.Params{R: 4, T: 1, MF: 1000}
	tor, err := grid.New(45, 45, 4)
	if err != nil {
		return nil, err
	}
	spec, err := core.NewFullBudget(p, p.M0()+1)
	if err != nil {
		return nil, err
	}
	res, err := sim.Run(sim.Config{
		Topo: tor, Params: p, Spec: spec, Source: tor.ID(0, 0),
		Placement: adversary.Figure2Lattice(4),
		Strategy:  adversary.NewTargeted(adversary.Figure2Victims(tor)),
	})
	if err != nil {
		return nil, err
	}
	if !res.Stalled {
		o.fail("Figure 2 stall did not reproduce")
		return o, nil
	}
	half := p.HalfNeighborhood()
	maxDecidedNbrs := 0
	var worst grid.NodeID
	for i := 0; i < tor.Size(); i++ {
		id := grid.NodeID(i)
		if res.Decided[id] {
			continue
		}
		n := 0
		tor.ForEachNeighbor(id, func(nb grid.NodeID) {
			if res.Decided[nb] {
				n++
			}
		})
		if n > maxDecidedNbrs {
			maxDecidedNbrs = n
			worst = id
		}
	}
	x, y := tor.XY(worst)
	tbl := metrics.NewTable("Lemma 4 check on the Figure 2 stall",
		"quantity", "value")
	tbl.AddRow("r(2r+1) (Lemma 4 sufficiency)", metrics.Itoa(half))
	tbl.AddRow("max decided neighbors of any undecided node", metrics.Itoa(maxDecidedNbrs))
	tbl.AddRow("achieved at", fmt.Sprintf("(%d,%d)", x, y))
	o.Tables = append(o.Tables, tbl)
	if maxDecidedNbrs >= half {
		o.fail("undecided node with %d >= r(2r+1) decided neighbors: Lemma 4 violated", maxDecidedNbrs)
	}
	o.note("every undecided node has at most %d < %d decided neighbors, consistent with "+
		"Lemma 4: a node with r(2r+1) decided neighbors can always accept", maxDecidedNbrs, half)
	return o, nil
}

// runE10 ablates the two design choices of the coding layer. The
// sender's quiet window — stop after (2r+1)²−1 NACK-free rounds — is not
// ablated: the protocol machine ends a local broadcast at the first data
// round that draws no NACK, and the window only sets how long the sender
// keeps listening after that, so every window length gives the same
// sends, deliveries and decisions (DESIGN.md §10).
func runE10(opts Options) (*Outcome, error) {
	o := &Outcome{ID: "E10", Title: "Ablations", Passed: true}

	// Ablation 1: sub-bit length L vs forgery probability.
	rng := stats.NewRNG(opts.Seed + 102)
	lt := metrics.NewTable("Sub-bit length ablation: measured erasure rate vs 2^-L design",
		"L", "trials", "measured", "design 1/(2^L-1)")
	trials := 12000
	if opts.Quick {
		trials = 3000
	}
	payload, err := auedcode.ParseBits("1000")
	if err != nil {
		return nil, err
	}
	// NewCode derives L from (n, t, mmax); pick combinations giving the
	// desired small L values: L = 2log2(n)+log2(t)+log2(mmax).
	for _, combo := range []struct{ n, t, mmax, wantL int }{
		{2, 1, 1, 2}, {2, 1, 2, 3}, {2, 2, 2, 4}, {4, 2, 2, 6},
	} {
		c, err := auedcode.NewCode(4, combo.n, combo.t, combo.mmax)
		if err != nil {
			return nil, err
		}
		if c.SubBitLength() != combo.wantL {
			return nil, fmt.Errorf("E10: L=%d, want %d", c.SubBitLength(), combo.wantL)
		}
		hits := 0
		for i := 0; i < trials; i++ {
			cw, err := c.Encode(payload, rng)
			if err != nil {
				return nil, err
			}
			_, erased, err := cw.AttackCancelRandom(1, rng)
			if err != nil {
				return nil, err
			}
			if erased {
				hits++
			}
		}
		measured := float64(hits) / float64(trials)
		lt.AddRow(metrics.Itoa(combo.wantL), metrics.Itoa(trials),
			metrics.Etoa(measured), metrics.Etoa(c.ForgeProbability()))
		if math.Abs(measured-c.ForgeProbability()) > 0.25*c.ForgeProbability()+0.01 {
			o.fail("L=%d: measured %.4f too far from design %.4f",
				combo.wantL, measured, c.ForgeProbability())
		}
	}
	o.Tables = append(o.Tables, lt)

	// Ablation 2: why the whole segment chain matters. With a single
	// count segment, the "10000000" payload is forgeable by up-flips
	// alone (0010 -> 0011 after adding a payload bit); the full chain
	// forces the impossible 01 -> 10 transition one level down.
	c, err := auedcode.NewCode(8, 1024, 4, 4096)
	if err != nil {
		return nil, err
	}
	p8, err := auedcode.ParseBits("10000000")
	if err != nil {
		return nil, err
	}
	w, err := c.EncodeBits(p8)
	if err != nil {
		return nil, err
	}
	attacked := w.Clone()
	attacked.Set(2, 1)   // extra payload 1-bit
	attacked.Set(9+3, 1) // S1: 0010 -> 0011 (up-flip only)
	s1Consistent := attacked.ReadUint(9, 4) == uint(attacked.PopCountRange(0, 9))
	chainDetects := c.Verify(attacked) != nil
	seg := metrics.NewTable("Segment-chain ablation (payload 10000000, attack: +1 payload bit, S1 0010->0011)",
		"checker", "accepts forged word")
	seg.AddRow("single count segment (S1 only)", metrics.Btoa(s1Consistent))
	seg.AddRow("full chain S1..Sl (the paper's code)", metrics.Btoa(!chainDetects))
	o.Tables = append(o.Tables, seg)
	if !s1Consistent || !chainDetects {
		o.fail("segment-chain ablation shape mismatch (s1=%v chain=%v)", s1Consistent, chainDetects)
	}
	return o, nil
}
