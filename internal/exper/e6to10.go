package exper

import (
	"fmt"
	"math"
	"strconv"

	"bftbcast"
	"bftbcast/internal/adversary"
	"bftbcast/internal/auedcode"
	"bftbcast/internal/core"
	"bftbcast/internal/geometry"
	"bftbcast/internal/grid"
	"bftbcast/internal/stats"
)

func runE6(opts Options) (*Outcome, error) {
	o := &Outcome{ID: "E6", Title: "Propagation geometry", Passed: true}

	front := newTable("Frontier distance bounds over all slopes (length 37r)",
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
			front.addRow(strconv.Itoa(r), variant.name,
				ftoa(minD/float64(r), 2), ftoa(bound/float64(r), 2),
				btoa(holds))
			if !holds {
				o.fail("%s bound violated at r=%d", variant.name, r)
			}
		}
	}
	o.Tables = append(o.Tables, front)

	clear := newTable("Lemma 9: expanding-line clearance d (must exceed 1.25)",
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
		clear.addRow(strconv.Itoa(r), ftoa(minD, 3), btoa(minD > 1.25))
		if minD <= 1.25 {
			o.fail("Lemma 9 clearance %.3f <= 1.25 at r=%d", minD, r)
		}
	}
	o.Tables = append(o.Tables, clear)

	belt := newTable("Lemma 10 belt arithmetic on the 550r^2 circle",
		"chord", "sagitta |HH1|", "belt width", "paper claim")
	s74, d74 := geometry.BeltExpansion(2, 74)
	belt.addRow("74r (as stated)", ftoa(s74, 4), ftoa(d74, 4),
		"<0.72 / >0.53 (does not hold; belt still positive)")
	s56, d56 := geometry.BeltExpansion(2, 56)
	belt.addRow("56r (matching the printed numbers)", ftoa(s56, 4), ftoa(d56, 4),
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

	overhead := newTable("Code length vs payload (paper: K <= k + 2 log k + 2; I-code: 2k)",
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
		overhead.addRow(strconv.Itoa(k), strconv.Itoa(kk),
			strconv.Itoa(auedcode.PaperOverheadBound(k)), strconv.Itoa(2*k),
			btoa(kk < 2*k))
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
	det := newTable("Detection of 0->1 flip attacks (k=32)",
		"trials", "detected", "rate", "paper")
	det.addRow(strconv.Itoa(trials), strconv.Itoa(detected),
		ftoa(float64(detected)/float64(trials), 4), "1.0 (all unidirectional errors)")
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
	forge := newTable("Random-guess erasure of a 1-bit (L=3)",
		"trials", "successes", "measured", "95% CI", "design 1/(2^L-1)")
	forge.addRow(strconv.Itoa(forgeTrials), strconv.Itoa(hits),
		etoa(float64(hits)/float64(forgeTrials)),
		fmt.Sprintf("[%.4f, %.4f]", lo, hi), etoa(want))
	o.Tables = append(o.Tables, forge)
	if want < lo || want > hi {
		o.fail("forge probability %.5f outside measured CI [%.5f, %.5f]", want, lo, hi)
	}
	return o, nil
}

// runE8 measures Theorem 4 on the reactive protocol machine — the code
// every Scenario, bftsim run and bftsimd job executes — as
// ProtocolReactive Scenarios read through Report.Reactive.
func runE8(opts Options) (*Outcome, error) {
	o := &Outcome{ID: "E8", Title: "Theorem 4 budgets", Passed: true}
	tor, err := grid.New(15, 15, 2)
	if err != nil {
		return nil, err
	}
	tbl := newTable("Breactive on a 15x15 torus (k=16, mmax=64): per-node message cost",
		"t", "mf", "policy", "completed", "max msgs/node", "bound 2(tmf+1)",
		"max sub-slots", "Theorem 4 budget", "forged")
	type cse struct {
		t, mf  int
		policy bftbcast.AttackPolicy
	}
	cases := []cse{
		{1, 3, bftbcast.PolicyDisrupt},
		{1, 3, bftbcast.PolicyNackSpam},
		{3, 2, bftbcast.PolicyDisrupt},
	}
	if !opts.Quick {
		cases = append(cases, cse{1, 6, bftbcast.PolicyMixed}, cse{4, 2, bftbcast.PolicyDisrupt})
	}
	scs := make([]*bftbcast.Scenario, len(cases))
	for i, c := range cases {
		scs[i], err = bftbcast.NewScenario(
			bftbcast.WithTopology(tor), bftbcast.WithParams(core.Params{R: 2, T: c.t, MF: c.mf}),
			bftbcast.WithSource(tor.ID(0, 0)),
			bftbcast.WithProtocol(bftbcast.ProtocolReactive),
			bftbcast.WithReactive(bftbcast.ReactiveSpec{MMax: 64, PayloadBits: 16, Policy: c.policy}),
			bftbcast.WithPlacement(adversary.Random{T: c.t, Density: 0.06, Seed: opts.Seed + 80}),
			bftbcast.WithSeed(opts.Seed+81))
		if err != nil {
			return nil, err
		}
	}
	reps, err := sweep(opts, scs...)
	if err != nil {
		return nil, err
	}
	for i, c := range cases {
		rep, rs := reps[i], reps[i].Reactive
		bound := 2 * (c.t*c.mf + 1)
		tbl.addRow(strconv.Itoa(c.t), strconv.Itoa(c.mf), c.policy.String(),
			btoa(rep.Completed), strconv.Itoa(rs.MaxNodeMessages),
			strconv.Itoa(bound), strconv.Itoa(rs.MaxNodeSubSlots),
			strconv.Itoa(rs.Theorem4SubSlots), strconv.Itoa(rs.ForgedDeliveries))
		if !rep.Completed {
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

func runE9(opts Options) (*Outcome, error) {
	o := &Outcome{ID: "E9", Title: "Lemma 4 contrapositive", Passed: true}
	// Rebuild the Figure 2 stall and check that no undecided node ever
	// had r(2r+1) decided neighbors: Lemma 4 says such a node must be
	// able to accept, so the stalled frontier must stay strictly below.
	sc, err := figure2Scenario()
	if err != nil {
		return nil, err
	}
	reps, err := sweep(opts, sc)
	if err != nil {
		return nil, err
	}
	rep, tor := reps[0], sc.Topo.(*grid.Torus)
	if !rep.Stalled {
		o.fail("Figure 2 stall did not reproduce")
		return o, nil
	}
	half := sc.Params.HalfNeighborhood()
	maxDecidedNbrs := 0
	var worst grid.NodeID
	var row []grid.NodeID
	for i := 0; i < tor.Size(); i++ {
		id := grid.NodeID(i)
		if rep.Decided[id] {
			continue
		}
		n := 0
		row = tor.AppendNeighbors(row[:0], id)
		for _, nb := range row {
			if rep.Decided[nb] {
				n++
			}
		}
		if n > maxDecidedNbrs {
			maxDecidedNbrs = n
			worst = id
		}
	}
	x, y := tor.XY(worst)
	tbl := newTable("Lemma 4 check on the Figure 2 stall",
		"quantity", "value")
	tbl.addRow("r(2r+1) (Lemma 4 sufficiency)", strconv.Itoa(half))
	tbl.addRow("max decided neighbors of any undecided node", strconv.Itoa(maxDecidedNbrs))
	tbl.addRow("achieved at", fmt.Sprintf("(%d,%d)", x, y))
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
	lt := newTable("Sub-bit length ablation: measured erasure rate vs 2^-L design",
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
		lt.addRow(strconv.Itoa(combo.wantL), strconv.Itoa(trials),
			etoa(measured), etoa(c.ForgeProbability()))
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
	seg := newTable("Segment-chain ablation (payload 10000000, attack: +1 payload bit, S1 0010->0011)",
		"checker", "accepts forged word")
	seg.addRow("single count segment (S1 only)", btoa(s1Consistent))
	seg.addRow("full chain S1..Sl (the paper's code)", btoa(!chainDetects))
	o.Tables = append(o.Tables, seg)
	if !s1Consistent || !chainDetects {
		o.fail("segment-chain ablation shape mismatch (s1=%v chain=%v)", s1Consistent, chainDetects)
	}
	return o, nil
}
