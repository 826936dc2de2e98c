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
// Adversarial strategies are not supported here: the worst-case adversary
// of package adversary is omniscient and deliberately sequential, which
// contradicts a concurrent runtime by construction. Use sim.Run for
// adversarial experiments.
package actor

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"bftbcast/internal/core"
	"bftbcast/internal/grid"
	"bftbcast/internal/plan"
	"bftbcast/internal/protocol"
	"bftbcast/internal/radio"
	"bftbcast/internal/topo"
)

// Config describes a fault-free concurrent run.
type Config struct {
	// Topo is the network topology (grid.Torus, topo.Bounded, topo.RGG).
	Topo   topo.Topology
	Params core.Params
	// Spec is the threshold protocol; it runs as
	// protocol.NewThreshold(Spec). Ignored when Machine is set.
	Spec core.Spec
	// Machine, when non-nil, is the protocol state machine to run
	// instead (protocol.Multi, protocol.Reactive, a custom one).
	Machine protocol.Machine
	// Seed drives machine-level randomness.
	Seed     uint64
	Source   grid.NodeID
	MaxSlots int
	// OnSlotStart, when non-nil, observes every coordinated slot.
	OnSlotStart func(slot int)
	// OnSend, when non-nil, observes every transmission (the fault-free
	// runtime has no adversarial sends).
	OnSend func(slot int, from grid.NodeID, v radio.Value)
	// OnDeliver, when non-nil, observes every delivery of the radio
	// medium.
	OnDeliver func(slot int, d radio.Delivery)
	// OnAccept, when non-nil, observes every acceptance. Like the other
	// callbacks it runs on the coordinator goroutine, in the order the
	// slot's deliveries are handed to the protocol, so observers need no
	// synchronization of their own.
	OnAccept func(slot int, id grid.NodeID, v radio.Value)
}

// Result mirrors the sequential engine's outcome for the fields the
// fault-free setting produces.
type Result struct {
	Completed bool
	// TimedOut is true when MaxSlots elapsed with transmissions pending,
	// mirroring the slot-level engines' classification.
	TimedOut     bool
	Slots        int
	DecidedGood  int
	TotalGood    int
	GoodMessages int // total transmissions, source included
	Sent         []int32
	Decided      []bool
	DecidedValue []radio.Value
}

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

// Run executes the configured broadcast with one goroutine per node.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cooperative cancellation: the coordinator
// checks ctx once per slot; on cancellation it stops every node
// goroutine, waits for them to exit (no leaks), and returns ctx.Err().
// A nil ctx behaves like context.Background().
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
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
		OnDeliver: cfg.OnDeliver,
		OnAccept:  cfg.OnAccept,
	}
	if cfg.OnSend != nil {
		// The fault-free runtime has no adversarial sends; bridge the
		// machine's hook to the actor callback shape anyway.
		hooks.OnSend = func(slot int, from grid.NodeID, v radio.Value, _ bool) {
			cfg.OnSend(slot, from, v)
		}
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
		goodMsgs   int
	)
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
				goodMsgs++
				if cfg.OnSend != nil {
					cfg.OnSend(slot, id, r.value)
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
	res := &Result{
		Slots: slot, TotalGood: n,
		TimedOut:     pendingTotal > 0 && slot >= maxSlots,
		GoodMessages: goodMsgs,
		Sent:         make([]int32, n),
	}
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
	res.Decided = append([]bool(nil), st.Decided...)
	res.DecidedValue = append([]radio.Value(nil), st.Value...)
	completed := true
	for i := 0; i < n; i++ {
		if res.Decided[i] && res.DecidedValue[i] == radio.ValueTrue {
			res.DecidedGood++
		} else {
			completed = false
		}
	}
	res.Completed = completed && pendingTotal == 0
	return res, nil
}
