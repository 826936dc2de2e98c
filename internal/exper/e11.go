package exper

import (
	"fmt"

	"bftbcast/internal/adversary"
	"bftbcast/internal/core"
	"bftbcast/internal/grid"
	"bftbcast/internal/metrics"
	"bftbcast/internal/pool"
	"bftbcast/internal/sim"
	"bftbcast/internal/topo"
)

func init() {
	register(Experiment{ID: "E11", Title: "Topology generality: torus vs bounded grid vs RGG under the random adversary", Run: runE11})
}

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

	type runRes struct {
		completed   bool
		decidedFrac float64
		avgSends    float64
		maxSends    int
		wrong       int
		badCount    int
	}
	// One control (fault-free) plus `seeds` attacked runs per topology;
	// all topology×seed points are independent, so they go through the
	// worker pool as one flat sweep.
	controls := make([]runRes, len(cases))
	attacked := make([]runRes, len(cases)*seeds)
	runOne := func(c struct {
		tp topo.Topology
		p  core.Params
	}, seed uint64, attack bool) (runRes, error) {
		spec, err := core.NewProtocolB(c.p)
		if err != nil {
			return runRes{}, err
		}
		cfg := sim.Config{Topo: c.tp, Params: c.p, Spec: spec, Source: 0}
		if attack {
			cfg.Placement = adversary.Random{T: c.p.T, Density: 0.05, Seed: seed}
			cfg.Strategy = adversary.NewCorruptor()
		}
		res, err := sim.Run(cfg)
		if err != nil {
			return runRes{}, err
		}
		return runRes{
			completed:   res.Completed,
			decidedFrac: float64(res.DecidedGood) / float64(res.TotalGood),
			avgSends:    res.AvgGoodSends,
			maxSends:    res.MaxGoodSends,
			wrong:       res.WrongDecisions,
			badCount:    res.BadCount,
		}, nil
	}
	if err := pool.ForEach(opts.Workers, len(cases)*(seeds+1), func(i int) error {
		ci, si := i/(seeds+1), i%(seeds+1)
		if si == 0 {
			r, err := runOne(cases[ci], 0, false)
			controls[ci] = r
			return err
		}
		r, err := runOne(cases[ci], opts.Seed+uint64(200+ci*seeds+si-1), true)
		attacked[ci*seeds+si-1] = r
		return err
	}); err != nil {
		return nil, err
	}

	tbl := metrics.NewTable(
		fmt.Sprintf("Protocol B vs the random corruptor adversary, %d seeds per topology (source = node 0)", seeds),
		"topology", "r", "t", "mf", "control", "attacked completed", "mean decided", "mean avg sends", "max sends")
	for ci, c := range cases {
		wins, worstMax := 0, 0
		var fracSum, sendsSum float64
		for si := 0; si < seeds; si++ {
			r := attacked[ci*seeds+si]
			if r.completed {
				wins++
			}
			fracSum += r.decidedFrac
			sendsSum += r.avgSends
			if r.maxSends > worstMax {
				worstMax = r.maxSends
			}
			if r.wrong != 0 {
				o.fail("%v: %d wrong decisions (Lemma 1 generalizes to any topology)", c.tp, r.wrong)
			}
		}
		tbl.AddRow(c.tp.String(), metrics.Itoa(c.p.R), metrics.Itoa(c.p.T), metrics.Itoa(c.p.MF),
			metrics.Btoa(controls[ci].completed),
			fmt.Sprintf("%d/%d", wins, seeds),
			metrics.Ftoa(fracSum/float64(seeds), 3),
			metrics.Ftoa(sendsSum/float64(seeds), 2),
			metrics.Itoa(worstMax))
		if !controls[ci].completed {
			o.fail("fault-free control stalled on %v", c.tp)
		}
	}
	o.Tables = append(o.Tables, tbl)

	shape := metrics.NewTable("Topology structure (the torus has full-sized neighborhoods everywhere; the others do not)",
		"topology", "nodes", "min degree", "max degree", "TDMA period", "diameter hint")
	for _, c := range cases {
		minDeg := c.tp.Size()
		for i := 0; i < c.tp.Size(); i++ {
			if d := c.tp.Degree(grid.NodeID(i)); d < minDeg {
				minDeg = d
			}
		}
		_, period, err := c.tp.Coloring()
		if err != nil {
			return nil, err
		}
		shape.AddRow(c.tp.String(), metrics.Itoa(c.tp.Size()), metrics.Itoa(minDeg),
			metrics.Itoa(c.tp.MaxDegree()), metrics.Itoa(period), metrics.Itoa(c.tp.DiameterHint()))
	}
	o.Tables = append(o.Tables, shape)

	// The torus is the guaranteed baseline: protocol B must win every
	// seed there (Theorem 2). The other topologies are reported, not
	// bounded by the paper's theorems — their neighborhoods are not
	// full-sized, so the m0/2m0 accounting does not transfer verbatim.
	for si := 0; si < seeds; si++ {
		if !attacked[si].completed {
			o.fail("torus attacked run %d did not complete, contradicting Theorem 2", si)
		}
	}
	o.note("the torus guarantee (Theorem 2) holds seed for seed; border truncation on the "+
		"bounded grid and irregular degrees on the RGG change the supply accounting, which is "+
		"exactly the open setting of the planar/general-graph follow-up work (see PAPERS.md); "+
		"rgg uses hop adjacency (range 1) with a greedy distance-2 coloring, period %d", rggPeriod(rgg))
	return o, nil
}

func rggPeriod(g *topo.RGG) int {
	_, period, _ := g.Coloring()
	return period
}
