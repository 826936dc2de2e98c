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
// out — for fault-free configs. The run frame every engine shares
// (sim.Frame) validates the config, takes the plan, attaches the machine
// (a Spec runs as protocol.NewThreshold), seeds the budgets, derives the
// slot cap and classifies the final State; what is the actor's own is the
// goroutines, the channel protocol, and the budget clamp at scheduling
// time, since the node goroutines own emission. Adversaries are not
// supported: the worst-case adversary of package adversary is omniscient
// and deliberately sequential, which contradicts a concurrent runtime by
// construction, so a Config with a Placement or Strategy is refused. Use
// sim.RunContext for adversarial experiments.
package actor

import (
	"context"
	"errors"
	"sync"

	"bftbcast/internal/core"
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

// RunContext executes the configured broadcast with one goroutine per
// node. Spec runs as protocol.NewThreshold(Spec) unless cfg.Machine is
// set; the hooks run on the coordinator goroutine, in the order the slot's
// deliveries are handed to the protocol, so observers need no
// synchronization of their own. The coordinator checks ctx once per
// slot; on cancellation it stops every node goroutine, waits for them to
// exit (no leaks), and returns ctx.Err(). A nil ctx behaves like
// context.Background().
func RunContext(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Placement != nil || cfg.Strategy != nil {
		return nil, errors.New("actor: the actor engine is fault-free; run adversarial scenarios on the fast or ref engine")
	}
	var f sim.Frame
	if err := f.Begin(cfg, attachThreshold); err != nil {
		return nil, err
	}
	n := cfg.Topo.Size()

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

	colorNodes := f.Plan.ColorClasses() // shared, read-only
	medium := radio.NewMediumShared(f.Plan.Adjacency())

	// The frame's per-node budgets, enforced at scheduling time on the
	// coordinator (the node goroutines own emission, so the slot engines'
	// emission-time TrySpend has no home here): clamping every Send
	// against the remaining budget yields the same emission stream,
	// because pending sends drain in order.
	schedReply := make(chan reply, 1)
	var pendingTotal int64
	schedule1 := func(s protocol.Send) {
		sn := s.N
		b := &f.GoodBudget[s.ID]
		if left := b.Left(); left >= 0 && sn > left {
			sn = left
		}
		if sn <= 0 {
			return
		}
		for range sn {
			b.TrySpend()
		}
		nodes[s.ID].cmds <- command{kind: cmdSched, value: f.St.Value[s.ID], n: sn, reply: schedReply}
		<-schedReply
		pendingTotal += int64(sn)
	}
	for _, s := range f.Inst.Bootstrap(nil) {
		schedule1(s)
	}

	var (
		txs        []radio.Tx
		deliveries []radio.Delivery
		sendBuf    []protocol.Send
		runErr     error
	)
	hooks := &f.Cfg.Hooks
	slot := 0
	for ; pendingTotal > 0 && slot < f.MaxSlots; slot++ {
		if runErr = ctx.Err(); runErr != nil {
			break
		}
		if hooks.OnSlotStart != nil {
			hooks.OnSlotStart(slot)
		}
		color := f.Plan.SlotColor(slot)
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
				f.Res.GoodMessages++
				if hooks.OnSend != nil {
					hooks.OnSend(slot, id, r.value, false)
				}
				txs = append(txs, radio.Tx{From: id, Value: r.value})
			}
		}
		if len(txs) == 0 {
			continue
		}
		if deliveries, runErr = medium.ResolveAppend(txs, deliveries[:0]); runErr != nil {
			break
		}
		if len(deliveries) == 0 {
			continue
		}
		if sendBuf, runErr = f.Inst.Deliver(slot, deliveries, hooks, sendBuf[:0]); runErr != nil {
			break
		}
		sendBuf = f.Inst.Tick(slot, sendBuf)
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
		f.Sent[i] = (<-stopCh).sent
	}
	nodeWG.Wait()
	if runErr != nil {
		return nil, runErr
	}
	return f.Finish(slot, pendingTotal > 0, medium.GoodGoodCollisions), nil
}

// attachThreshold is the actor's Spec instance: the shared counts-threshold
// machine.
func attachThreshold(env protocol.Env, spec core.Spec) (protocol.Instance, error) {
	return protocol.NewThreshold(spec).Attach(env)
}
