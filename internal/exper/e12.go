package exper

import (
	"fmt"

	"bftbcast/internal/adversary"
	"bftbcast/internal/core"
	"bftbcast/internal/grid"
	"bftbcast/internal/metrics"
	"bftbcast/internal/pool"
	"bftbcast/internal/protocol"
	"bftbcast/internal/sim"
	"bftbcast/internal/topo"
)

func init() {
	register(Experiment{ID: "E12", Title: "Multi-broadcast traffic: batched sends vs M sequential single-broadcast runs", Run: runE12})
}

// runE12 measures the message economics of the multi-broadcast traffic
// mode (protocol.Multi, DESIGN.md §12): M concurrent protocol-B
// instances — distinct sources and staggered starts drawn from the run
// seed — multiplex one TDMA slot stream, and a transmission carries one
// entry per instance its sender still owes a relay. The baseline is M
// sequential single-broadcast runs from the same sources; fault-free,
// the machine's naive-send accounting must equal that baseline's
// measured total exactly, and the batched total must come in strictly
// below it. The corruptor rows stress the same comparison under attack,
// where the torus is still bound per instance by Theorem 2.
func runE12(opts Options) (*Outcome, error) {
	o := &Outcome{ID: "E12", Title: "Multi-broadcast batching economics", Passed: true}
	ms := []int{4, 8, 16}
	if opts.Quick {
		ms = []int{4, 8}
	}

	gridParams := core.Params{R: 2, T: 2, MF: 2}
	rggParams := core.Params{R: 1, T: 1, MF: 2} // RGG range is hop adjacency
	tor, err := grid.New(20, 20, gridParams.R)
	if err != nil {
		return nil, err
	}
	rgg, err := topo.NewConnectedRGG(300, opts.Seed+17)
	if err != nil {
		return nil, err
	}
	cases := []struct {
		tp         topo.Topology
		p          core.Params
		guaranteed bool // per-instance completion backed by Theorem 2
	}{
		{tor, gridParams, true},
		{rgg, rggParams, false},
	}

	type pointRes struct {
		completed int // instances whose good nodes all decided
		batched   int
		naive     int
		seqSum    int // fault-free only: measured total of M sequential runs
		entries   int
		decisions int
		slots     int
		wrong     int
		multiOK   bool
	}
	// Every topology × M × {fault-free, corruptor} point is independent;
	// the M sequential baseline runs of a fault-free point execute inside
	// that point.
	points := make([]pointRes, len(cases)*len(ms)*2)
	runPoint := func(ci, mi, adv int) (pointRes, error) {
		c, m := cases[ci], ms[mi]
		spec, err := core.NewProtocolB(c.p)
		if err != nil {
			return pointRes{}, err
		}
		machine := &protocol.Multi{Spec: spec, M: m}
		cfg := sim.Config{
			Topo: c.tp, Params: c.p, Spec: spec, Source: 0,
			Seed:    opts.Seed + uint64(ci*100+mi*10+adv),
			Machine: machine,
		}
		if adv == 1 {
			cfg.Placement = adversary.Random{T: c.p.T, Density: 0.05, Seed: cfg.Seed}
			cfg.Strategy = adversary.NewCorruptor()
		}
		res, err := sim.Run(cfg)
		if err != nil {
			return pointRes{}, err
		}
		st := machine.TakeStats()
		pr := pointRes{
			batched: st.BatchedSends, naive: st.NaiveSends,
			entries: st.EntriesCarried, decisions: st.Decisions,
			slots: res.Slots, wrong: res.WrongDecisions, multiOK: res.Completed,
		}
		for _, inst := range st.Instances {
			if inst.Completed {
				pr.completed++
			}
		}
		if adv == 0 {
			// The sequential baseline: one classic single-broadcast run
			// per drawn instance source.
			for _, inst := range st.Instances {
				sres, err := sim.Run(sim.Config{Topo: c.tp, Params: c.p, Spec: spec, Source: inst.Source})
				if err != nil {
					return pointRes{}, err
				}
				if !sres.Completed {
					return pointRes{}, fmt.Errorf("sequential baseline from source %d stalled", inst.Source)
				}
				pr.seqSum += sres.GoodMessages
			}
		}
		return pr, nil
	}
	if err := pool.ForEach(opts.Workers, len(points), func(i int) error {
		r, err := runPoint(i/(len(ms)*2), (i/2)%len(ms), i%2)
		points[i] = r
		return err
	}); err != nil {
		return nil, err
	}

	tbl := metrics.NewTable(
		"M concurrent protocol-B instances over one TDMA schedule vs M sequential runs from the same sources",
		"topology", "M", "adversary", "completed", "batched sends", "naive (M runs)", "ratio", "entries/send", "decisions/slot")
	for i, r := range points {
		c, m, adv := cases[i/(len(ms)*2)], ms[(i/2)%len(ms)], i%2
		advName := "none"
		if adv == 1 {
			advName = "corruptor"
		}
		var ratio, eps, dps float64
		if r.naive > 0 {
			ratio = float64(r.batched) / float64(r.naive)
		}
		if r.batched > 0 {
			eps = float64(r.entries) / float64(r.batched)
		}
		if r.slots > 0 {
			dps = float64(r.decisions) / float64(r.slots)
		}
		tbl.AddRow(c.tp.String(), metrics.Itoa(m), advName,
			fmt.Sprintf("%d/%d", r.completed, m),
			metrics.Itoa(r.batched), metrics.Itoa(r.naive),
			metrics.Ftoa(ratio, 3), metrics.Ftoa(eps, 2), metrics.Ftoa(dps, 3))

		if r.wrong != 0 {
			o.fail("%v M=%d adv=%s: %d wrong decisions (Lemma 1 holds per instance)", c.tp, m, advName, r.wrong)
		}
		if adv == 0 {
			if r.completed != m || !r.multiOK {
				o.fail("%v M=%d: fault-free multi run left %d/%d instances undecided", c.tp, m, m-r.completed, m)
			}
			if r.naive != r.seqSum {
				o.fail("%v M=%d: naive accounting %d != measured %d of M sequential runs", c.tp, m, r.naive, r.seqSum)
			}
			if r.batched >= r.seqSum {
				o.fail("%v M=%d: no batching win: %d batched vs %d sequential sends", c.tp, m, r.batched, r.seqSum)
			}
		} else {
			if c.guaranteed && (r.completed != m || !r.multiOK) {
				o.fail("%v M=%d corruptor: %d/%d instances decided, contradicting Theorem 2 per instance", c.tp, m, r.completed, m)
			}
			if r.multiOK && r.batched >= r.naive {
				o.fail("%v M=%d corruptor: no batching win: %d batched vs %d naive", c.tp, m, r.batched, r.naive)
			}
		}
	}
	o.Tables = append(o.Tables, tbl)
	o.note("batching carries one entry per owed instance per transmission, so dense instance overlap drives " +
		"the ratio down; the fault-free naive column equals the measured total of M sequential runs exactly " +
		"(the machine's counterfactual accounting is not an estimate)")
	return o, nil
}
