// Package actor is a concurrent runtime for the broadcast protocols:
// every node runs as its own goroutine that owns the transmission
// mechanics — its pending counter, transmit value and sent tally — and
// answers a coordinator over channels, slot by slot. The protocol brain
// is a protocol.Instance the coordinator drives after each slot's
// delivery barrier (machines are single-goroutine by contract), so
// acceptances and Observer events come out in delivery order, the same
// on every run and the same as the sequential engine's (package sim),
// against which the runtime is checked in the fault-free setting. Its
// purpose is to exercise the protocols under Go's race detector with
// real channel traffic, the way a deployment harness would.
//
// It implements the engines' one contract — sim.Config in, *sim.Result
// out — for fault-free configs. Adversaries are not supported: the
// worst-case adversary of package adversary is omniscient and
// deliberately sequential, which contradicts a concurrent runtime by
// construction, so a Config with a Placement or Strategy is refused. Use
// sim.Run for adversarial experiments.
package actor

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"bftbcast/internal/grid"
	"bftbcast/internal/plan"
	"bftbcast/internal/protocol"
	"bftbcast/internal/radio"
	"bftbcast/internal/sim"
)

// node is the per-goroutine transmission actor.
type node struct {
	value   radio.Value
	pending int
	sent    int32
	cmds    chan command
}

type cmdKind int

const (
	cmdQuery cmdKind = iota + 1
	cmdSched
	cmdStop
)

type command struct {
	kind  cmdKind
	value radio.Value
	n     int
	reply chan reply
}

type reply struct {
	emit  bool
	value radio.Value
	sent  int32
}

func (n *node) run(wg *sync.WaitGroup) {
	defer wg.Done()
	for cmd := range n.cmds {
		switch cmd.kind {
		case cmdQuery:
			r := reply{}
			if n.pending > 0 {
				n.pending--
				n.sent++
				r = reply{emit: true, value: n.value}
			}
			cmd.reply <- r
		case cmdSched:
			n.value = cmd.value
			n.pending += cmd.n
			cmd.reply <- reply{}
		case cmdStop:
			cmd.reply <- reply{sent: n.sent}
			return
		}
	}
}

// Run executes the configured broadcast with one goroutine per node. Spec
// runs as protocol.NewThreshold(Spec) unless cfg.Machine is set; the
// callbacks run on the coordinator goroutine, in the order the slot's
// deliveries are handed to the protocol, so observers need no
// synchronization of their own.
func Run(cfg sim.Config) (*sim.Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cooperative cancellation: the coordinator
// checks ctx once per slot; on cancellation it stops every node
// goroutine, waits for them to exit (no leaks), and returns ctx.Err().
// A nil ctx behaves like context.Background().
func RunContext(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Placement != nil || cfg.Strategy != nil {
		return nil, errors.New("actor: the actor engine is fault-free; run adversarial scenarios on the fast or ref engine")
	}
	if cfg.Topo == nil {
		return nil, errors.New("actor: config needs a topology")
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if cfg.Machine == nil {
		if err := cfg.Spec.Validate(); err != nil {
			return nil, err
		}
		cfg.Machine = protocol.NewThreshold(cfg.Spec)
	}
	if cfg.Params.R != cfg.Topo.Range() {
		return nil, fmt.Errorf("actor: params r=%d but topology r=%d", cfg.Params.R, cfg.Topo.Range())
	}
	p := plan.For(cfg.Topo)
	schedule, err := p.TDMA()
	if err != nil {
		return nil, err
	}
	n := cfg.Topo.Size()
	if int(cfg.Source) < 0 || int(cfg.Source) >= n {
		return nil, fmt.Errorf("actor: source %d out of range", cfg.Source)
	}

	inst, err := cfg.Machine.Attach(protocol.Env{
		Plan:   p,
		Params: cfg.Params,
		Source: cfg.Source,
		Seed:   cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	st := inst.State()
	hooks := protocol.Hooks{
		OnSend:    cfg.OnSend,
		OnDeliver: cfg.OnDeliver,
		OnAccept:  cfg.OnAccept,
	}

	nodes := make([]*node, n)
	// One reply channel per node, allocated once and reused every slot:
	// the coordinator fully drains each slot's replies before the next
	// command reaches the node, so a buffered(1) channel never carries
	// two outstanding replies.
	replies := make([]chan reply, n)
	var nodeWG sync.WaitGroup
	for i := 0; i < n; i++ {
		nodes[i] = &node{cmds: make(chan command, 1)}
		replies[i] = make(chan reply, 1)
	}
	nodeWG.Add(n)
	for _, nd := range nodes {
		go nd.run(&nodeWG)
	}

	colorNodes := p.ColorClasses() // shared, read-only
	medium := radio.NewMediumShared(p.Adjacency())

	maxSlots := cfg.MaxSlots
	if maxSlots <= 0 {
		sourceSends, maxSends := inst.Sizing()
		maxSlots = schedule.Period() * (sourceSends +
			cfg.Topo.DiameterHint()*(maxSends+1) + 2*schedule.Period())
	}

	// Per-node message budgets, enforced at scheduling time on the
	// coordinator (the node goroutines own emission, so the slot
	// engines' emission-time TrySpend has no home here): clamping every
	// Send against the remaining budget yields the same emission stream,
	// because pending sends drain in order. The source stays unlimited,
	// mirroring the slot engines.
	budget := make([]int, n)
	for i := range budget {
		if grid.NodeID(i) == cfg.Source {
			budget[i] = -1
		} else {
			budget[i] = inst.GoodBudget(grid.NodeID(i))
		}
	}
	schedReply := make(chan reply, 1)
	var pendingTotal int64
	schedule1 := func(s protocol.Send) {
		sn := s.N
		if left := budget[s.ID]; left >= 0 {
			if sn > left {
				sn = left
			}
			budget[s.ID] = left - sn
		}
		if sn <= 0 {
			return
		}
		nodes[s.ID].cmds <- command{kind: cmdSched, value: st.Value[s.ID], n: sn, reply: schedReply}
		<-schedReply
		pendingTotal += int64(sn)
	}
	for _, s := range inst.Bootstrap(nil) {
		schedule1(s)
	}

	var (
		txs        []radio.Tx
		deliveries []radio.Delivery
		sendBuf    []protocol.Send
		runErr     error
	)
	res := &sim.Result{TotalGood: n, Sent: make([]int32, n)}
	slot := 0
	for ; pendingTotal > 0 && slot < maxSlots; slot++ {
		if runErr = ctx.Err(); runErr != nil {
			break
		}
		if cfg.OnSlotStart != nil {
			cfg.OnSlotStart(slot)
		}
		color := schedule.SlotColor(slot)
		// Query the slot's color class concurrently.
		candidates := colorNodes[color]
		for _, id := range candidates {
			nodes[id].cmds <- command{kind: cmdQuery, reply: replies[id]}
		}
		txs = txs[:0]
		for _, id := range candidates {
			r := <-replies[id]
			if r.emit {
				pendingTotal--
				res.GoodMessages++
				if cfg.OnSend != nil {
					cfg.OnSend(slot, id, r.value, false)
				}
				txs = append(txs, radio.Tx{From: id, Value: r.value})
			}
		}
		if len(txs) == 0 {
			continue
		}
		deliveries = deliveries[:0]
		if deliveries, err = medium.ResolveAppend(txs, deliveries); err != nil {
			runErr = err
			break
		}
		if len(deliveries) == 0 {
			continue
		}
		sendBuf = sendBuf[:0]
		if sendBuf, err = inst.Deliver(slot, deliveries, &hooks, sendBuf); err != nil {
			runErr = err
			break
		}
		sendBuf = inst.Tick(slot, sendBuf)
		for _, s := range sendBuf {
			schedule1(s)
		}
	}

	// Stop all nodes and gather final states. The stop sweep runs on
	// cancellation and machine errors too, so no failure mode leaves
	// node goroutines behind.
	stopCh := make(chan reply, 1)
	for i, nd := range nodes {
		nd.cmds <- command{kind: cmdStop, reply: stopCh}
		res.Sent[i] = (<-stopCh).sent
	}
	nodeWG.Wait()
	if runErr != nil {
		return nil, runErr
	}
	inst.Finish(slot)

	// The slot engines' classification (sim.Runner.finish) with no bad
	// nodes: Completed is "every node decided Vtrue", whatever is still
	// pending at the slot cap.
	res.Slots = slot
	res.TimedOut = pendingTotal > 0 && slot >= maxSlots
	res.GoodGoodCollisions = medium.GoodGoodCollisions
	res.Decided = append([]bool(nil), st.Decided...)
	res.DecidedValue = append([]radio.Value(nil), st.Value...)
	res.Correct = append([]int32(nil), st.Correct...)
	res.Wrong = append([]int32(nil), st.Wrong...)
	var sumSends int
	for i := 0; i < n; i++ {
		if res.Decided[i] {
			res.DecidedGood++
			if res.DecidedValue[i] != radio.ValueTrue {
				res.WrongDecisions++
			}
		}
		if grid.NodeID(i) != cfg.Source {
			sumSends += int(res.Sent[i])
			res.MaxGoodSends = max(res.MaxGoodSends, int(res.Sent[i]))
		}
	}
	res.Completed = res.DecidedGood == n && res.WrongDecisions == 0
	res.Stalled = !res.Completed && !res.TimedOut
	if n > 1 {
		res.AvgGoodSends = float64(sumSends) / float64(n-1)
	}
	return res, nil
}
