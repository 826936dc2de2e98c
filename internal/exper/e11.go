package exper

import (
	"fmt"
	"strconv"

	"bftbcast"
	"bftbcast/internal/adversary"
	"bftbcast/internal/core"
	"bftbcast/internal/grid"
	"bftbcast/internal/topo"
)

// runE11 exercises the topology seam end to end: the same engine, the
// same protocol B and the same random adversary run on the paper's
// torus, on a bounded (non-wrapping) grid, and on a random geometric
// graph. The torus is the control — Theorem 2 guarantees completion
// there. The bounded grid measures the edge effect the paper's torus
// assumption removes: border neighborhoods are truncated, so corner and
// edge nodes lose suppliers and the worst-case corner source starts with
// (r+1)²−1 neighbors instead of (2r+1)²−1. The RGG is the general
// multi-hop-graph setting (hop metric, irregular degrees, greedy
// distance-2 TDMA coloring).
func runE11(opts Options) (*Outcome, error) {
	o := &Outcome{ID: "E11", Title: "Topology generality", Passed: true}
	seeds := 6
	if opts.Quick {
		seeds = 3
	}

	gridParams := core.Params{R: 2, T: 2, MF: 2}
	rggParams := core.Params{R: 1, T: 1, MF: 2} // RGG range is hop adjacency
	tor, err := grid.New(20, 20, gridParams.R)
	if err != nil {
		return nil, err
	}
	bounded, err := topo.NewBounded(20, 20, gridParams.R)
	if err != nil {
		return nil, err
	}
	rgg, err := topo.NewConnectedRGG(300, opts.Seed+11)
	if err != nil {
		return nil, err
	}
	cases := []struct {
		tp topo.Topology
		p  core.Params
	}{
		{tor, gridParams},
		{bounded, gridParams},
		{rgg, rggParams},
	}

	// One control (fault-free) plus `seeds` attacked runs per topology,
	// all in one sweep: point ci*(seeds+1) is topology ci's control, the
	// `seeds` points after it are its attacked runs.
	var scs []*bftbcast.Scenario
	for ci, c := range cases {
		spec, err := core.NewProtocolB(c.p)
		if err != nil {
			return nil, err
		}
		base, err := bftbcast.NewScenario(
			bftbcast.WithTopology(c.tp), bftbcast.WithParams(c.p), bftbcast.WithSpec(spec))
		if err != nil {
			return nil, err
		}
		scs = append(scs, base)
		for si := 0; si < seeds; si++ {
			seed := opts.Seed + uint64(200+ci*seeds+si)
			sc, err := base.With(bftbcast.WithAdversary(
				adversary.Random{T: c.p.T, Density: 0.05, Seed: seed}, adversary.NewCorruptor()))
			if err != nil {
				return nil, err
			}
			scs = append(scs, sc)
		}
	}
	reps, err := sweep(opts, scs...)
	if err != nil {
		return nil, err
	}
	control := func(ci int) *bftbcast.Report { return reps[ci*(seeds+1)] }
	attacked := func(ci, si int) *bftbcast.Report { return reps[ci*(seeds+1)+1+si] }

	tbl := newTable(
		fmt.Sprintf("Protocol B vs the random corruptor adversary, %d seeds per topology (source = node 0)", seeds),
		"topology", "r", "t", "mf", "control", "attacked completed", "mean decided", "mean avg sends", "max sends")
	for ci, c := range cases {
		wins, worstMax := 0, 0
		var fracSum, sendsSum float64
		for si := 0; si < seeds; si++ {
			r := attacked(ci, si)
			if r.Completed {
				wins++
			}
			fracSum += float64(r.DecidedGood) / float64(r.TotalGood)
			sendsSum += r.AvgGoodSends
			worstMax = max(worstMax, r.MaxGoodSends)
			if r.WrongDecisions != 0 {
				o.fail("%v: %d wrong decisions (Lemma 1 generalizes to any topology)", c.tp, r.WrongDecisions)
			}
		}
		tbl.addRow(c.tp.String(), strconv.Itoa(c.p.R), strconv.Itoa(c.p.T), strconv.Itoa(c.p.MF),
			btoa(control(ci).Completed),
			fmt.Sprintf("%d/%d", wins, seeds),
			ftoa(fracSum/float64(seeds), 3),
			ftoa(sendsSum/float64(seeds), 2),
			strconv.Itoa(worstMax))
		if !control(ci).Completed {
			o.fail("fault-free control stalled on %v", c.tp)
		}
	}
	o.Tables = append(o.Tables, tbl)

	shape := newTable("Topology structure (the torus has full-sized neighborhoods everywhere; the others do not)",
		"topology", "nodes", "min degree", "max degree", "TDMA period", "diameter hint")
	var rggPeriod int
	var row []grid.NodeID
	for _, c := range cases {
		minDeg := c.tp.Size()
		for i := 0; i < c.tp.Size(); i++ {
			row = c.tp.AppendNeighbors(row[:0], grid.NodeID(i))
			minDeg = min(minDeg, len(row))
		}
		_, period, err := c.tp.Coloring()
		if err != nil {
			return nil, err
		}
		if c.tp == rgg {
			rggPeriod = period
		}
		shape.addRow(c.tp.String(), strconv.Itoa(c.tp.Size()), strconv.Itoa(minDeg),
			strconv.Itoa(c.tp.MaxDegree()), strconv.Itoa(period), strconv.Itoa(c.tp.DiameterHint()))
	}
	o.Tables = append(o.Tables, shape)

	// The torus is the guaranteed baseline: protocol B must win every
	// seed there (Theorem 2). The other topologies are reported, not
	// bounded by the paper's theorems — their neighborhoods are not
	// full-sized, so the m0/2m0 accounting does not transfer verbatim.
	for si := 0; si < seeds; si++ {
		if !attacked(0, si).Completed {
			o.fail("torus attacked run %d did not complete, contradicting Theorem 2", si)
		}
	}
	o.note("the torus guarantee (Theorem 2) holds seed for seed; border truncation on the "+
		"bounded grid and irregular degrees on the RGG change the supply accounting, which is "+
		"exactly the open setting of the planar/general-graph follow-up work (see PAPERS.md); "+
		"rgg uses hop adjacency (range 1) with a greedy distance-2 coloring, period %d", rggPeriod)
	return o, nil
}
