// Package transport provides the in-process message fabric connecting peer
// servers. It reproduces the communication structure of SHORE described in
// the paper's §3.2: each pair of peers is connected by several independent
// paths; message order is preserved along a path, but messages sent on
// different paths may arrive — and be handled — out of order. This loose
// ordering is what gives rise to the callback, purge, and deescalation
// races the consistency algorithm must tolerate.
package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"adaptivecc/internal/sim"
)

// ErrClosed is returned by Send once the network has been shut down. These
// are the only sends that are dropped (and counted as CtrNetDrops): a send
// onto a full path blocks until the path drains, preserving FIFO order,
// instead of failing.
var ErrClosed = errors.New("transport: network closed")

// Message is one datagram between peers. Payload is an arbitrary
// protocol-defined value; CarriesPage marks messages that ship a whole page
// and therefore pay the per-page cost.
type Message struct {
	From        string
	To          string
	Kind        string
	CarriesPage bool
	Payload     any
}

// Handler receives delivered messages. Each delivery runs in its own
// goroutine (the receiving "thread"), so handlers may block.
type Handler func(Message)

// AnyPath requests a randomly chosen path, which is how most protocol
// traffic travels; a non-negative hint pins the message to one path so
// that two messages are guaranteed to stay ordered.
const AnyPath = -1

// Network connects registered endpoints.
type Network struct {
	// faultHost is nil-plan until InjectFaults/Crash/PartitionLink first
	// installs fault machinery; the send and delivery paths load it once
	// per message and skip all fault logic when it is nil.
	faultHost

	costs     sim.CostTable
	stats     *sim.Stats
	numPaths  int
	rng       *rand.Rand
	rngMu     sync.Mutex
	deliverWG sync.WaitGroup
	stopCh    chan struct{} // closed by Close; unblocks senders and pumps

	mu     sync.Mutex
	nodes  map[string]*node
	links  map[linkKey][]*path
	closed bool
}

type linkKey struct{ from, to string }

type node struct {
	name    string
	cpu     *sim.Resource
	handler Handler
}

type path struct {
	ch   chan Message
	done chan struct{}
}

// pathBufSize is the per-path buffer; beyond it, senders block (variable so
// tests can shrink it to exercise backpressure deterministically).
var pathBufSize = 1024

// NewNetwork builds a network where every ordered pair of endpoints is
// connected by numPaths independent FIFO paths (at least 1).
func NewNetwork(costs sim.CostTable, stats *sim.Stats, numPaths int, seed int64) *Network {
	if numPaths < 1 {
		numPaths = 1
	}
	if stats == nil {
		stats = sim.NewStats()
	}
	return &Network{
		costs:    costs,
		stats:    stats,
		numPaths: numPaths,
		rng:      rand.New(rand.NewSource(seed)),
		nodes:    make(map[string]*node),
		links:    make(map[linkKey][]*path),
		stopCh:   make(chan struct{}),
	}
}

// Register attaches an endpoint. cpu is the endpoint's CPU resource, which
// is charged for message sends and receives; handler is invoked (in a fresh
// goroutine) for every delivered message.
func (n *Network) Register(name string, cpu *sim.Resource, handler Handler) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.nodes[name]; ok {
		return fmt.Errorf("transport: endpoint %q already registered", name)
	}
	n.nodes[name] = &node{name: name, cpu: cpu, handler: handler}
	return nil
}

// NumPaths reports the per-pair path count.
func (n *Network) NumPaths() int { return n.numPaths }

func (n *Network) pathsFor(from, to string) ([]*path, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if _, ok := n.nodes[from]; !ok {
		return nil, fmt.Errorf("transport: unknown sender %q", from)
	}
	dst, ok := n.nodes[to]
	if !ok {
		return nil, fmt.Errorf("transport: unknown destination %q", to)
	}
	key := linkKey{from, to}
	ps, ok := n.links[key]
	if !ok {
		ps = make([]*path, n.numPaths)
		for i := range ps {
			p := &path{ch: make(chan Message, pathBufSize), done: make(chan struct{})}
			ps[i] = p
			go n.pump(p, dst)
		}
		n.links[key] = ps
	}
	return ps, nil
}

// pump delivers messages on one path in FIFO order, charging wire latency
// per message, then hands each message to the receiver in a new goroutine.
// On shutdown it first drains messages already queued on the path — those
// were accepted by Send and are delivered, not dropped.
func (n *Network) pump(p *path, dst *node) {
	defer close(p.done)
	deliver := func(msg Message) {
		if d := n.costs.Scaled(n.costs.MsgLatency); d > 0 {
			time.Sleep(d)
		}
		n.deliverWG.Add(1)
		go func(m Message) {
			defer n.deliverWG.Done()
			if fs := n.faults.Load(); fs != nil && fs.isCrashed(m.To) {
				// The destination died while the message was on the wire: a
				// dead peer processes nothing.
				n.stats.Inc(sim.CtrCrashDrops)
				return
			}
			cost := n.costs.MsgCPU
			if m.CarriesPage {
				cost += n.costs.PerPageExtra
			}
			dst.cpu.Use(cost)
			dst.handler(m)
		}(msg)
	}
	for {
		select {
		case msg := <-p.ch:
			deliver(msg)
		case <-n.stopCh:
			for {
				select {
				case msg := <-p.ch:
					deliver(msg)
				default:
					return
				}
			}
		}
	}
}

// Send transmits msg.Payload from msg.From to msg.To over the chosen path
// (AnyPath picks one at random). It charges the sender's CPU and returns
// once the message is queued on the path. A full path exerts backpressure:
// Send blocks until the path drains, so path order is FIFO and no message
// is silently lost under load. The only dropped sends are those racing or
// following Close; they return ErrClosed and are counted as CtrNetDrops.
func (n *Network) Send(msg Message, pathHint int) error {
	ps, err := n.pathsFor(msg.From, msg.To)
	if err != nil {
		if errors.Is(err, ErrClosed) {
			n.stats.Inc(sim.CtrNetDrops)
		}
		return err
	}

	fs := n.faults.Load()
	if fs != nil && (fs.isCrashed(msg.From) || fs.isCrashed(msg.To)) {
		n.stats.Inc(sim.CtrCrashDrops)
		return fmt.Errorf("%w: %s->%s", ErrPeerDown, msg.From, msg.To)
	}

	n.mu.Lock()
	sender := n.nodes[msg.From]
	n.mu.Unlock()
	cost := n.costs.MsgCPU
	if msg.CarriesPage {
		cost += n.costs.PerPageExtra
	}
	sender.cpu.Use(cost)

	action := actDeliver
	var extraDelay time.Duration
	if fs != nil {
		action, extraDelay = fs.decide(linkKey{msg.From, msg.To})
	}
	switch action {
	case actDrop:
		// Silent loss: the sender believes the message is on its way.
		n.stats.Inc(sim.CtrFaultDrops)
		return nil
	case actDelay:
		// Deliver outside the path FIFO after extra latency — the reorder
		// fault. The message is accepted (counted sent) before Send returns
		// so Close's drain guarantee still holds.
		n.stats.Inc(sim.CtrFaultDelays)
		n.countSent(msg, 1)
		n.deliverDirect(msg, extraDelay)
		return nil
	}

	idx := pathHint
	if idx < 0 || idx >= len(ps) {
		n.rngMu.Lock()
		idx = n.rng.Intn(len(ps))
		n.rngMu.Unlock()
	}
	// Counted before the enqueue: once the message is on its path the
	// receiver may answer, and the answer's reader may look at the
	// counters, before this goroutine runs again.
	n.countSent(msg, 1)
	select {
	case ps[idx].ch <- msg:
		if action == actDup {
			// Re-deliver the same message on the same path. Best-effort: a
			// full path or a closing network forgoes the duplicate rather
			// than blocking the sender a second time.
			n.countSent(msg, 1)
			select {
			case ps[idx].ch <- msg:
				n.stats.Inc(sim.CtrFaultDups)
			default:
				n.countSent(msg, -1)
			}
		}
		return nil
	case <-n.stopCh:
		n.countSent(msg, -1)
		n.stats.Inc(sim.CtrNetDrops)
		return fmt.Errorf("%w: %s->%s dropped", ErrClosed, msg.From, msg.To)
	}
}

// countSent adds delta (1, or -1 to take a count back) to the sent-message
// counters.
func (n *Network) countSent(msg Message, delta int64) {
	n.stats.Add(sim.CtrMessages, delta)
	if msg.CarriesPage {
		n.stats.Add(sim.CtrPageTransfers, delta)
	}
}

// deliverDirect hands msg to its destination after the wire latency plus
// extra, bypassing the path FIFOs (used by the delay/reorder fault). The
// delivery is registered with deliverWG before returning so Close waits
// for it; a close during the sleep delivers immediately (accepted messages
// are delivered, not dropped).
func (n *Network) deliverDirect(msg Message, extra time.Duration) {
	n.mu.Lock()
	dst := n.nodes[msg.To]
	n.mu.Unlock()
	n.deliverWG.Add(1)
	go func() {
		defer n.deliverWG.Done()
		wait := n.costs.Scaled(n.costs.MsgLatency) + extra
		select {
		case <-time.After(wait):
		case <-n.stopCh:
		}
		if fs := n.faults.Load(); fs != nil && fs.isCrashed(msg.To) {
			n.stats.Inc(sim.CtrCrashDrops)
			return
		}
		cost := n.costs.MsgCPU
		if msg.CarriesPage {
			cost += n.costs.PerPageExtra
		}
		dst.cpu.Use(cost)
		dst.handler(msg)
	}()
}

// Close shuts the network down: no further sends are accepted, messages
// already queued on paths are delivered, and Close returns after every
// handler goroutine has finished. Path channels are never closed (a sender
// blocked in Send must not panic); senders are unblocked via stopCh. Any
// message a racing sender managed to enqueue after the pumps drained is
// discarded here and counted as a drop.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	var all []*path
	for _, ps := range n.links {
		all = append(all, ps...)
	}
	n.mu.Unlock()

	close(n.stopCh)
	for _, p := range all {
		<-p.done
	}
	n.deliverWG.Wait()

	for _, p := range all {
	drain:
		for {
			select {
			case msg := <-p.ch:
				n.stats.Inc(sim.CtrNetDrops)
				n.countSent(msg, -1) // it was counted as sent
			default:
				break drain
			}
		}
	}
}
