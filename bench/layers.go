package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"bftbcast"
	"bftbcast/internal/adversary"
	"bftbcast/internal/auedcode"
	"bftbcast/internal/plan"
	"bftbcast/internal/protocol"
	"bftbcast/internal/radio"
	"bftbcast/internal/sim"
	"bftbcast/internal/stats"
)

// recorder is the counting Observer of the traced run. It keeps each
// executed slot's transmissions, so that the radio and protocol layers
// can be replayed on the exact inputs the engine gave them, and the
// counts the ratios are taken from.
type recorder struct {
	bftbcast.BaseObserver
	// jams says adversarial Send events are radio transmissions (the
	// scenario has a jamming Strategy). Without one they are the reactive
	// machine's coding-layer attacks, which never reach the medium.
	jams bool
	// full is how many acceptances make a node fully decided: the number
	// of broadcast instances.
	full int32

	txs       []radio.Tx
	slotNo    []int
	slotStart []int // txs[slotStart[i]:slotStart[i+1]] are slot i's
	accepted  []int32

	delivers, decides, late int
}

func (r *recorder) reset(sc *bftbcast.Scenario) {
	r.jams = sc.Strategy != nil
	r.full = int32(max(sc.Broadcasts, 1))
	r.txs, r.slotNo, r.slotStart = r.txs[:0], r.slotNo[:0], r.slotStart[:0]
	r.delivers, r.decides, r.late = 0, 0, 0
	if n := sc.Topo.Size(); len(r.accepted) != n {
		r.accepted = make([]int32, n)
	} else {
		clear(r.accepted)
	}
	r.accepted[sc.Source] = r.full // pre-decided, no Decide event
}

func (r *recorder) SlotStart(slot int) {
	r.slotNo = append(r.slotNo, slot)
	r.slotStart = append(r.slotStart, len(r.txs))
}

func (r *recorder) Send(_ int, from bftbcast.NodeID, v bftbcast.Value, adversarial bool) {
	if adversarial && !r.jams {
		return
	}
	// The Observer does not carry Tx.Drop; a dropping jam would replay as
	// a delivering one and trip the fidelity check.
	r.txs = append(r.txs, radio.Tx{From: from, Value: v, Jam: adversarial})
}

func (r *recorder) Deliver(_ int, _, to bftbcast.NodeID, _ bftbcast.Value) {
	r.delivers++
	if r.accepted[to] >= r.full {
		r.late++
	}
}

func (r *recorder) Decide(_ int, id bftbcast.NodeID, _ bftbcast.Value) {
	r.decides++
	r.accepted[id]++
}

// slot returns the transmissions of the i-th executed slot.
func (r *recorder) slot(i int) []radio.Tx {
	hi := len(r.txs)
	if i+1 < len(r.slotStart) {
		hi = r.slotStart[i+1]
	}
	return r.txs[r.slotStart[i]:hi]
}

// replayMachine is the protocol machine the facade would build for sc,
// rebuilt here from the Scenario's exported fields.
func replayMachine(sc *bftbcast.Scenario) protocol.Machine {
	switch {
	case sc.Broadcasts > 1:
		return &protocol.Multi{Spec: sc.Spec, M: sc.Broadcasts}
	case sc.Protocol == bftbcast.ProtocolReactive:
		return &protocol.Reactive{MMax: sc.Reactive.MMax, PayloadBits: sc.Reactive.PayloadBits, Policy: sc.Reactive.Policy}
	default:
		return protocol.NewThreshold(sc.Spec)
	}
}

// lowered is sc as the slot engine's own config: the engine without the
// facade. The single-broadcast threshold protocol runs on the engine's
// built-in instance, as it does under the facade.
func lowered(sc *bftbcast.Scenario) sim.Config {
	cfg := sim.Config{
		Topo: sc.Topo, Params: sc.Params, Spec: sc.Spec, Source: sc.Source,
		Placement: sc.Placement, Strategy: sc.Strategy, Seed: sc.Seed, MaxSlots: sc.MaxSlots,
	}
	if sc.Broadcasts > 1 || sc.Protocol == bftbcast.ProtocolReactive {
		cfg.Machine = replayMachine(sc)
	}
	return cfg
}

func place(sc *bftbcast.Scenario) ([]bool, error) {
	var p adversary.Placement = adversary.None{}
	if sc.Placement != nil {
		p = sc.Placement
	}
	return p.Place(sc.Topo, sc.Source)
}

// samples gathers, per metric, one value per distinct point (itself the
// median over the repetitions of that point); the reported value is the
// mean over points, which is what one op of the workload costs on
// average.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// repsFor is how often each point's traced run and replays repeat: long
// ops repeat less, so that the traced pass of the 100k-node workload stays
// near twenty seconds.
func repsFor(opSeconds float64) int {
	if opSeconds > 0.1 {
		return 3
	}
	return 5
}

// traceLibrary is the traced pass of a library workload: one pass over
// the distinct points, each run with the recorder attached and then
// replayed layer by layer from outside — the engine without the facade,
// the medium on the recorded transmissions, a fresh protocol instance on
// the resolved deliveries, the placement — so that each layer's time is
// taken through its public functions on the inputs the run gave it.
func traceLibrary(name string, w *libSpec, cfg runConfig) (*report, error) {
	ctx := context.Background()
	rep := newReport()
	tr := newTracer()

	var tp bftbcast.Topology
	var builds, compiles []float64
	for i := 0; i < cfg.repsOr(3); i++ {
		plan.Purge()
		d, err := tr.timed(0, -1, "topo", "topo.build", func() (err error) { tp, err = w.newTopo(); return err })
		if err != nil {
			return nil, err
		}
		builds = append(builds, d)
		d, _ = tr.timed(0, -1, "plan", "plan.compile", func() error { plan.Compute(tp); return nil })
		compiles = append(compiles, d)
	}
	rep.set("topo.build_s", median(builds))
	rep.set("plan.compile_s", median(compiles))
	pl := plan.For(tp)
	const lookups = 1 << 20
	d, _ := tr.timed(0, -1, "plan", "plan.warm_lookup", func() error {
		for i := 0; i < lookups; i++ {
			pl = plan.For(tp)
		}
		return nil
	})
	rep.set("plan.warm_lookup_ns", d*1e9/lookups)

	pts, err := w.points(tp, cfg.seed)
	if err != nil {
		return nil, err
	}
	run := &libRun{tp: tp, points: pts, first: make([]*bftbcast.Report, len(pts)), rep: rep}
	for j := range pts {
		if _, err := run.op(ctx, j); err != nil {
			return nil, err
		}
	}

	// The untraced op, timed as the untraced run times it: the reference
	// the tracing overhead and the facade's share are taken against.
	reps := cfg.repsOr(5)
	untraced := make([][]float64, len(pts))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ops := 0
	for r := 0; r < reps; r++ {
		for j := range pts {
			t := time.Now()
			if _, err := run.op(ctx, j); err != nil {
				return nil, err
			}
			untraced[j] = append(untraced[j], time.Since(t).Seconds())
			ops++
		}
		if r == 0 {
			reps = cfg.repsOr(repsFor(untraced[0][0]))
		}
	}
	runtime.ReadMemStats(&after)
	rep.set("bftbcast.allocs_per_op", float64(after.Mallocs-before.Mallocs)/float64(ops))
	rep.set("bftbcast.alloc_bytes_per_op", float64(after.TotalAlloc-before.TotalAlloc)/float64(ops))

	const builds2 = 4096
	d, err = tr.timed(0, -1, "bftbcast", "scenario_build", func() error {
		for i := 0; i < builds2; i++ {
			if _, err := run.scenario(i % len(pts)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.set("bftbcast.scenario_build_ns", d*1e9/builds2)

	lt := &layerTrace{run: run, tr: tr, pl: pl, runner: sim.NewRunner(), medium: radio.NewMediumShared(pl.Adjacency()), reps: reps, s: samples{}}
	for j := range pts {
		if err := lt.point(ctx, j, median(untraced[j])); err != nil {
			return nil, err
		}
	}
	for metric, perPoint := range lt.s {
		rep.set(metric, mean(perPoint))
	}
	if lt.mismatch != "" {
		rep.unavailable(lt.mismatch,
			"radio.resolve_s", "radio.deliveries", "radio.ns_per_delivery", "radio.collided_share",
			"protocol.deliver_s", "protocol.ns_per_delivery",
			"sim.loop_self_s", "sim.trace_coverage", "sim.ns_per_delivery")
		rep.note("reconciliation unavailable: %s", lt.mismatch)
	} else {
		rep.note("reconciliation: radio.resolve_s %.6g + protocol.deliver_s %.6g + adversary.place_s %.6g + sim.loop_self_s %.6g = %.6g; sim.run_s = %.6g",
			rep.values["radio.resolve_s"], rep.values["protocol.deliver_s"], rep.values["adversary.place_s"], rep.values["sim.loop_self_s"],
			rep.values["radio.resolve_s"]+rep.values["protocol.deliver_s"]+rep.values["adversary.place_s"]+rep.values["sim.loop_self_s"],
			rep.values["sim.run_s"])
	}

	if err := traceSweep(ctx, rep, tr, w, run, cfg.repsOr(3)); err != nil {
		return nil, err
	}
	if sc, err := run.scenario(0); err != nil {
		return nil, err
	} else if sc.Protocol == bftbcast.ProtocolReactive {
		if err := traceCode(rep, tr, sc); err != nil {
			return nil, err
		}
	}

	path, err := tr.write(name)
	if err != nil {
		return nil, err
	}
	rep.note("%d spans written to %s", len(tr.spans), path)
	return rep, nil
}

// layerTrace is the per-point part of the traced pass.
type layerTrace struct {
	run    *libRun
	tr     *tracer
	pl     *plan.Plan
	runner *sim.Runner
	medium *radio.Medium
	rec    recorder
	reps   int
	s      samples
	// mismatch is the first replay-fidelity failure; it voids the metrics
	// that rest on the replay.
	mismatch string

	dels   []radio.Delivery // every slot's final deliveries, replayed once per point
	delEnd []int
	buf    []radio.Delivery
	sends  []protocol.Send
}

// point traces point j. Each layer is timed reps times back to back, so
// that every repetition after the first runs warm, as the ops of the
// untraced run do. The spans of repetition r form one tree: the observed
// op, under it the same point on the bare engine (sim.run), and under
// that the replayed layers.
func (lt *layerTrace) point(ctx context.Context, j int, untracedOp float64) error {
	tr, rec := lt.tr, &lt.rec
	var traced, simRun, resolve, deliver, placed []float64
	roots, simSpans := make([]int, lt.reps), make([]int, lt.reps)
	var got *bftbcast.Report
	var sc *bftbcast.Scenario
	for r := range roots {
		roots[r] = tr.begin(0, j, "bftbcast", "op")
		var err error
		if sc, err = lt.run.scenario(j, bftbcast.WithObserver(rec)); err != nil {
			return err
		}
		rec.reset(sc)
		if got, err = bftbcast.EngineFast.Run(ctx, sc); err != nil {
			return err
		}
		traced = append(traced, tr.end(roots[r]))
		lt.run.checkReport(j, got)
	}
	for r := range simSpans {
		bare, err := lt.run.scenario(j) // a fresh strategy and machine
		if err != nil {
			return err
		}
		simSpans[r] = tr.begin(roots[r], j, "sim", "sim.run")
		res, err := lt.runner.RunContext(ctx, lowered(bare))
		if err != nil {
			return err
		}
		simRun = append(simRun, tr.end(simSpans[r]))
		lt.run.rep.check(res.Slots == got.Slots && res.GoodMessages == got.GoodMessages && res.Completed,
			"point %d: the bare engine gave slots=%d good=%d, the facade slots=%d good=%d", j, res.Slots, res.GoodMessages, got.Slots, got.GoodMessages)
	}
	var bad []bool
	for _, parent := range simSpans {
		d, err := tr.timed(parent, j, "adversary", "adversary.place", func() (err error) { bad, err = place(sc); return err })
		if err != nil {
			return err
		}
		placed = append(placed, d)
	}
	if err := lt.checkFidelity(j, sc, bad, got); err != nil {
		return err
	}
	for _, parent := range simSpans {
		d, err := tr.timed(parent, j, "radio", "radio.resolve", func() error {
			for i := range rec.slotNo {
				var err error
				if lt.buf, err = lt.medium.ResolveAppend(rec.slot(i), lt.buf[:0]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		resolve = append(resolve, d)
	}
	for _, parent := range simSpans {
		inst, err := replayMachine(sc).Attach(protocol.Env{Plan: lt.pl, Params: sc.Params, Source: sc.Source, Bad: bad, Seed: sc.Seed})
		if err != nil {
			return err
		}
		d, err := tr.timed(parent, j, "protocol", "protocol.deliver", func() error { return lt.replayProtocol(inst, &protocol.Hooks{}) })
		if err != nil {
			return err
		}
		deliver = append(deliver, d)
	}
	// What the replays do not explain is the engine's own slot loop:
	// queues, the tentative resolve of jammed slots, jam selection.
	loopSelf := median(simRun) - median(resolve) - median(deliver) - median(placed)

	s := lt.s
	slots := float64(len(rec.slotNo))
	radioDeliveries := float64(len(lt.dels))
	single, collided := 0, 0
	for i := range rec.slotNo {
		if len(rec.slot(i)) == 1 {
			single++
		}
	}
	for _, d := range lt.dels {
		if d.Collided {
			collided++
		}
	}
	s.add("radio.slots", slots)
	s.add("radio.txs", float64(len(rec.txs)))
	s.add("radio.deliveries", radioDeliveries)
	s.add("radio.resolve_s", median(resolve))
	s.add("radio.ns_per_delivery", median(resolve)*1e9/radioDeliveries)
	s.add("radio.collided_share", float64(collided)/radioDeliveries)
	s.add("radio.single_tx_slot_share", float64(single)/slots)
	s.add("protocol.deliveries", float64(rec.delivers))
	s.add("protocol.decides", float64(rec.decides))
	s.add("protocol.deliver_s", median(deliver))
	s.add("protocol.ns_per_delivery", median(deliver)*1e9/float64(rec.delivers))
	s.add("protocol.late_delivery_share", float64(rec.late)/float64(rec.delivers))
	if m := got.Multi; m != nil {
		s.add("protocol.entries_per_send", float64(m.EntriesCarried)/float64(m.BatchedSends))
		s.add("protocol.batched_over_naive", float64(m.BatchedSends)/float64(m.NaiveSends))
	}
	if rr := got.Reactive; rr != nil {
		s.add("protocol.reactive_rounds", float64(rr.MessageRounds))
	}
	s.add("adversary.place_s", median(placed))
	s.add("adversary.bad_nodes", float64(got.BadCount))
	s.add("adversary.bad_msgs", float64(got.BadMessages))
	s.add("adversary.bad_msg_share", float64(got.BadMessages)/float64(got.GoodMessages+got.BadMessages))
	s.add("sim.run_s", median(simRun))
	s.add("sim.loop_self_s", loopSelf)
	s.add("sim.trace_coverage", 1-loopSelf/median(simRun))
	s.add("sim.executed_slot_share", slots/float64(got.Slots))
	s.add("sim.ns_per_delivery", median(simRun)*1e9/radioDeliveries)
	s.add("bftbcast.facade_overhead_share", (untracedOp-median(simRun))/untracedOp)
	s.add("bftbcast.observer_overhead_share", median(traced)/untracedOp-1)
	return nil
}

// checkFidelity resolves the recorded transmissions of every slot once,
// keeping the deliveries for the protocol replays, and runs them through
// a fresh protocol instance with counting hooks. The replay stands for
// the run only if it surfaces the deliveries and acceptances the Observer
// saw and ends with the Report's decided count.
func (lt *layerTrace) checkFidelity(j int, sc *bftbcast.Scenario, bad []bool, got *bftbcast.Report) error {
	rec := &lt.rec
	lt.dels, lt.delEnd = lt.dels[:0], lt.delEnd[:0]
	for i := range rec.slotNo {
		var err error
		if lt.dels, err = lt.medium.ResolveAppend(rec.slot(i), lt.dels); err != nil {
			return err
		}
		lt.delEnd = append(lt.delEnd, len(lt.dels))
	}
	inst, err := replayMachine(sc).Attach(protocol.Env{Plan: lt.pl, Params: sc.Params, Source: sc.Source, Bad: bad, Seed: sc.Seed})
	if err != nil {
		return err
	}
	delivers, accepts := 0, 0
	hooks := &protocol.Hooks{
		OnDeliver: func(int, radio.Delivery) { delivers++ },
		OnAccept:  func(int, bftbcast.NodeID, radio.Value) { accepts++ },
	}
	if err := lt.replayProtocol(inst, hooks); err != nil {
		return err
	}
	decidedGood := 0
	for id, decided := range inst.State().Decided {
		if decided && !bad[id] {
			decidedGood++
		}
	}
	if lt.mismatch == "" && (delivers != rec.delivers || accepts != rec.decides || decidedGood != got.DecidedGood) {
		lt.mismatch = fmt.Sprintf("replay of point %d is not faithful: deliveries %d vs observed %d, acceptances %d vs %d, decided %d vs %d",
			j, delivers, rec.delivers, accepts, rec.decides, decidedGood, got.DecidedGood)
	}
	return nil
}

// replayProtocol drives inst exactly as the engine does: Bootstrap, then
// Deliver and Tick for every slot that delivered.
func (lt *layerTrace) replayProtocol(inst protocol.Instance, hooks *protocol.Hooks) error {
	lt.sends = inst.Bootstrap(lt.sends[:0])
	lo := 0
	for i, hi := range lt.delEnd {
		if hi > lo {
			slot := lt.rec.slotNo[i]
			var err error
			if lt.sends, err = inst.Deliver(slot, lt.dels[lo:hi], hooks, lt.sends[:0]); err != nil {
				return err
			}
			lt.sends = inst.Tick(slot, lt.sends)
		}
		lo = hi
	}
	return nil
}

// traceSweep runs the workload's points through the public Sweep harness
// on one and on two workers.
func traceSweep(ctx context.Context, rep *report, tr *tracer, w *libSpec, run *libRun, reps int) error {
	rate := func(workers int) (float64, error) {
		var rates []float64
		for r := 0; r < reps; r++ {
			scenarios := make([]*bftbcast.Scenario, w.sweepN)
			for i := range scenarios {
				var err error
				if scenarios[i], err = run.scenario(i % len(run.points)); err != nil {
					return 0, err
				}
			}
			sweep := &bftbcast.Sweep{Workers: workers, Scenarios: scenarios}
			var pts []bftbcast.SweepPoint
			d, err := tr.timed(0, -1, "sweep", fmt.Sprintf("sweep.w%d", workers), func() (err error) { pts, err = sweep.Run(ctx); return err })
			if err != nil {
				return 0, err
			}
			for _, pt := range pts {
				run.checkReport(pt.Index%len(run.points), pt.Report)
			}
			rates = append(rates, float64(len(scenarios))/d)
		}
		return median(rates), nil
	}
	w1, err := rate(1)
	if err != nil {
		return err
	}
	w2, err := rate(2)
	if err != nil {
		return err
	}
	rep.set("sweep.points_per_s_w1", w1)
	rep.set("sweep.points_per_s_w2", w2)
	rep.set("sweep.efficiency_w2", w2/(2*w1))
	return nil
}

// traceCode times the AUED code at the reactive workload's parameters,
// the ones protocol.Reactive derives in Attach.
func traceCode(rep *report, tr *tracer, sc *bftbcast.Scenario) error {
	code, err := auedcode.NewCode(sc.Reactive.PayloadBits, sc.Topo.Size(), max(sc.Params.T, 1), sc.Reactive.MMax)
	if err != nil {
		return err
	}
	rng := stats.NewRNG(sc.Seed)
	payload := auedcode.NewBitString(code.PayloadBits())
	for i := 0; i < payload.Len(); i++ {
		payload.Set(i, rng.Intn(2))
	}
	word, err := code.EncodeBits(payload)
	if err != nil {
		return err
	}
	const n = 1 << 14
	d, err := tr.timed(0, -1, "auedcode", "auedcode.encode", func() error {
		for i := 0; i < n; i++ {
			if _, err := code.Encode(payload, rng); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	rep.set("auedcode.encode_ns", d*1e9/n)
	d, err = tr.timed(0, -1, "auedcode", "auedcode.verify", func() error {
		for i := 0; i < n; i++ {
			if err := code.Verify(word); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	rep.set("auedcode.verify_ns", d*1e9/n)
	return nil
}
