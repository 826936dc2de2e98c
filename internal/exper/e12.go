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

	// Every topology × M × {fault-free, corruptor} point, in that order:
	// point i runs cases[i/(2·len(ms))] with M = ms[(i/2)%len(ms)], under
	// the corruptor when i is odd.
	var scs []*bftbcast.Scenario
	for ci, c := range cases {
		spec, err := core.NewProtocolB(c.p)
		if err != nil {
			return nil, err
		}
		for mi, m := range ms {
			for adv := 0; adv < 2; adv++ {
				seed := opts.Seed + uint64(ci*100+mi*10+adv)
				with := []bftbcast.ScenarioOption{
					bftbcast.WithTopology(c.tp), bftbcast.WithParams(c.p), bftbcast.WithSpec(spec),
					bftbcast.WithBroadcasts(m), bftbcast.WithSeed(seed),
				}
				if adv == 1 {
					with = append(with, bftbcast.WithAdversary(
						adversary.Random{T: c.p.T, Density: 0.05, Seed: seed}, adversary.NewCorruptor()))
				}
				sc, err := bftbcast.NewScenario(with...)
				if err != nil {
					return nil, err
				}
				scs = append(scs, sc)
			}
		}
	}
	reps, err := sweep(opts, scs...)
	if err != nil {
		return nil, err
	}

	// The sequential baseline of a fault-free point: one classic
	// single-broadcast run per instance source it drew, all fault-free
	// points in one second sweep.
	var seqScs []*bftbcast.Scenario
	var seqPoint []int // the point each sequential run belongs to
	for i := 0; i < len(reps); i += 2 {
		for _, inst := range reps[i].Multi.Instances {
			sc, err := bftbcast.NewScenario(bftbcast.WithTopology(scs[i].Topo),
				bftbcast.WithParams(scs[i].Params), bftbcast.WithSpec(scs[i].Spec), bftbcast.WithSource(inst.Source))
			if err != nil {
				return nil, err
			}
			seqScs = append(seqScs, sc)
			seqPoint = append(seqPoint, i)
		}
	}
	seqReps, err := sweep(opts, seqScs...)
	if err != nil {
		return nil, err
	}
	seqSum := make([]int, len(reps)) // fault-free points only
	for k, rep := range seqReps {
		if !rep.Completed {
			return nil, fmt.Errorf("sequential baseline from source %d stalled", seqScs[k].Source)
		}
		seqSum[seqPoint[k]] += rep.GoodMessages
	}

	tbl := newTable(
		"M concurrent protocol-B instances over one TDMA schedule vs M sequential runs from the same sources",
		"topology", "M", "adversary", "completed", "batched sends", "naive (M runs)", "ratio", "entries/send", "decisions/slot")
	for i, rep := range reps {
		c, m, adv := cases[i/(len(ms)*2)], ms[(i/2)%len(ms)], i%2
		r := rep.Multi
		advName := "none"
		if adv == 1 {
			advName = "corruptor"
		}
		completed := 0 // instances whose good nodes all decided
		for _, inst := range r.Instances {
			if inst.Completed {
				completed++
			}
		}
		var ratio, eps float64
		if r.NaiveSends > 0 {
			ratio = float64(r.BatchedSends) / float64(r.NaiveSends)
		}
		if r.BatchedSends > 0 {
			eps = float64(r.EntriesCarried) / float64(r.BatchedSends)
		}
		tbl.addRow(c.tp.String(), strconv.Itoa(m), advName,
			fmt.Sprintf("%d/%d", completed, m),
			strconv.Itoa(r.BatchedSends), strconv.Itoa(r.NaiveSends),
			ftoa(ratio, 3), ftoa(eps, 2), ftoa(r.DecisionsPerSlot, 3))

		if rep.WrongDecisions != 0 {
			o.fail("%v M=%d adv=%s: %d wrong decisions (Lemma 1 holds per instance)", c.tp, m, advName, rep.WrongDecisions)
		}
		if adv == 0 {
			if completed != m || !rep.Completed {
				o.fail("%v M=%d: fault-free multi run left %d/%d instances undecided", c.tp, m, m-completed, m)
			}
			if r.NaiveSends != seqSum[i] {
				o.fail("%v M=%d: naive accounting %d != measured %d of M sequential runs", c.tp, m, r.NaiveSends, seqSum[i])
			}
			if r.BatchedSends >= seqSum[i] {
				o.fail("%v M=%d: no batching win: %d batched vs %d sequential sends", c.tp, m, r.BatchedSends, seqSum[i])
			}
		} else {
			if c.guaranteed && (completed != m || !rep.Completed) {
				o.fail("%v M=%d corruptor: %d/%d instances decided, contradicting Theorem 2 per instance", c.tp, m, completed, m)
			}
			if rep.Completed && r.BatchedSends >= r.NaiveSends {
				o.fail("%v M=%d corruptor: no batching win: %d batched vs %d naive", c.tp, m, r.BatchedSends, r.NaiveSends)
			}
		}
	}
	o.Tables = append(o.Tables, tbl)
	o.note("batching carries one entry per owed instance per transmission, so dense instance overlap drives " +
		"the ratio down; the fault-free naive column equals the measured total of M sequential runs exactly " +
		"(the machine's counterfactual accounting is not an estimate)")
	return o, nil
}
