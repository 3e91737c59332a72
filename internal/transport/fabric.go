// Fabric abstracts the message transport connecting peers so the protocol
// layer runs unchanged over the in-process simulated Network (the default,
// and the one all committed figures are generated on) or a real TCP fabric.
// The contract both implementations honor:
//
//   - Per ordered pair of endpoints there are NumPaths independent FIFO
//     paths. Message order is preserved along a path; messages on different
//     paths may arrive and be handled in any order.
//   - Each delivered message invokes the destination's Handler in a fresh
//     goroutine, after charging the receiver's CPU resource.
//   - Send charges the sender's CPU and returns once the message has been
//     accepted by the fabric. CtrNetDrops counts only sends rejected
//     because the fabric was closed or the destination unroutable; injected
//     fault drops are CtrFaultDrops and crashed-peer refusals are
//     CtrCrashDrops + ErrPeerDown.
//   - The fault-injection surface (InjectFaults/Crash/Crashed/
//     PartitionLink/HealLink) makes identical per-link decisions on both
//     fabrics for the same FaultPlan.
//
// Both fabrics embed one implementation of that contract (fabric, below):
// registration, Send, local and delayed delivery, the per-path dequeue loop
// and Close. They differ only in what a path does with a dequeued message
// — the Network sleeps the wire latency and delivers it locally, TCP
// encodes it onto its socket — and in TCP's socket lifecycle.
//
// What TCP does NOT promise that the Network does: lossless delivery of
// accepted messages. A frame in flight when its socket dies is gone, like
// a datagram on a real wire; the resilient-RPC retry/dedup layer above is
// what turns that into exactly-once semantics.
package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"adaptivecc/internal/sim"
)

// Fabric is the transport seen by the protocol layer.
type Fabric interface {
	// Register attaches an endpoint: cpu is charged for sends and
	// receives, handler runs (in a fresh goroutine) per delivered message.
	Register(name string, cpu *sim.Resource, handler Handler) error
	// Send transmits msg over the chosen path (AnyPath picks one).
	Send(msg Message, pathHint int) error
	// NumPaths reports the per-pair independent path count.
	NumPaths() int
	// Close shuts the fabric down and waits for in-flight deliveries.
	Close()

	// Fault-injection surface, shared via faultHost.
	InjectFaults(plan FaultPlan)
	Crash(name string) bool
	Crashed(name string) bool
	PartitionLink(from, to string)
	HealLink(from, to string)
}

// Factory builds a Fabric for a System. The stats sink, cost table, path
// count, and seed come from the owning Config so counters and CPU charging
// are identical across fabrics.
type Factory func(costs sim.CostTable, stats *sim.Stats, numPaths int, seed int64) (Fabric, error)

var (
	_ Fabric = (*Network)(nil)
	_ Fabric = (*TCP)(nil)
)

// ErrNoRoute is returned by Send when the destination is not a local
// endpoint and the fabric has no way to reach it: on TCP, it is neither
// listed in Remotes nor served by a connection a remote peer already
// opened to us. Unlike ErrClosed it indicates a misconfigured topology,
// so the peer layer surfaces it via LastError.
var ErrNoRoute = errors.New("transport: no route to destination")

// pathBufSize is the per-path buffer; beyond it, senders block (variable so
// tests can shrink it to exercise backpressure deterministically).
var pathBufSize = 1024

type linkKey struct{ from, to string }

type node struct {
	name    string
	cpu     *sim.Resource
	handler Handler
}

// path is the queue of one logical FIFO path: Send fills it and a single
// goroutine (fabric.run) drains it.
type path struct {
	ch   chan Message
	done chan struct{} // closed when the draining goroutine has exited
}

func newPath() *path {
	return &path{ch: make(chan Message, pathBufSize), done: make(chan struct{})}
}

func (p *path) fifo() *path { return p }

// pathOf is a backend's per-path state: the shared queue, plus whatever
// that backend's per-path step needs.
type pathOf interface{ fifo() *path }

// backend is what a fabric's transport adds to the shared core.
type backend[P pathOf] interface {
	// routable reports whether frames can reach an endpoint that is not
	// registered here. Called with mu held.
	routable(name string) bool
	// openPath builds path idx of a link being opened to dst (nil when the
	// destination is not local) and starts the goroutine that drains it.
	// Called with mu held.
	openPath(key linkKey, idx int, dst *node) P
	// stopped releases the backend's own resources. Close calls it once
	// every path has drained, before it waits for the handlers.
	stopped()
}

// fabric is the send, deliver and close path both fabrics share.
type fabric[P pathOf] struct {
	// faultHost is nil-plan until InjectFaults/Crash/PartitionLink first
	// installs fault machinery; the send and delivery paths load it once
	// per message and skip all fault logic when it is nil.
	faultHost

	b         backend[P]
	costs     sim.CostTable
	stats     *sim.Stats
	numPaths  int
	rngMu     sync.Mutex
	rng       *rand.Rand
	deliverWG sync.WaitGroup // handler goroutines and delayed deliveries
	stopCh    chan struct{}  // closed by Close; unblocks senders and paths

	mu     sync.Mutex
	nodes  map[string]*node
	links  map[linkKey][]P
	closed bool
}

// setup initialises the core: every ordered pair of endpoints gets
// numPaths (at least 1) paths, opened by b on first use.
func (f *fabric[P]) setup(b backend[P], costs sim.CostTable, stats *sim.Stats, numPaths int, seed int64) {
	if numPaths < 1 {
		numPaths = 1
	}
	if stats == nil {
		stats = sim.NewStats()
	}
	f.b, f.costs, f.stats, f.numPaths = b, costs, stats, numPaths
	f.rng = rand.New(rand.NewSource(seed))
	f.stopCh = make(chan struct{})
	f.nodes = make(map[string]*node)
	f.links = make(map[linkKey][]P)
}

// Register attaches a local endpoint. cpu is the endpoint's CPU resource,
// which is charged for message sends and receives; handler is invoked (in
// a fresh goroutine) for every delivered message.
func (f *fabric[P]) Register(name string, cpu *sim.Resource, handler Handler) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.nodes[name]; ok {
		return fmt.Errorf("transport: endpoint %q already registered", name)
	}
	f.nodes[name] = &node{name: name, cpu: cpu, handler: handler}
	return nil
}

// NumPaths reports the per-pair path count.
func (f *fabric[P]) NumPaths() int { return f.numPaths }

// linkLocked returns the paths of one ordered link, opening it on first
// use. Callers hold mu and have checked closed.
func (f *fabric[P]) linkLocked(key linkKey) []P {
	ps, ok := f.links[key]
	if !ok {
		dst := f.nodes[key.to]
		ps = make([]P, f.numPaths)
		for i := range ps {
			ps[i] = f.b.openPath(key, i, dst)
		}
		f.links[key] = ps
	}
	return ps
}

// Send transmits msg from msg.From to msg.To over the chosen path (AnyPath
// picks one at random). It charges the sender's CPU and returns once the
// message is queued on the path. A full path exerts backpressure: Send
// blocks until the path drains, so path order is FIFO and no message is
// silently lost under load. The only sends counted as CtrNetDrops are
// those the fabric refuses: closed (ErrClosed, including a blocked send
// that Close releases) or unroutable (ErrNoRoute).
func (f *fabric[P]) Send(msg Message, pathHint int) error {
	key := linkKey{msg.From, msg.To}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		f.stats.Inc(sim.CtrNetDrops)
		return fmt.Errorf("%w: %s->%s dropped", ErrClosed, msg.From, msg.To)
	}
	sender, dst := f.nodes[msg.From], f.nodes[msg.To]
	if sender == nil {
		f.mu.Unlock()
		return fmt.Errorf("transport: unknown sender %q", msg.From)
	}
	ps, ok := f.links[key]
	if !ok {
		if dst == nil && !f.b.routable(msg.To) {
			f.mu.Unlock()
			f.stats.Inc(sim.CtrNetDrops)
			return fmt.Errorf("%w: %s->%s", ErrNoRoute, msg.From, msg.To)
		}
		ps = f.linkLocked(key)
	}
	f.mu.Unlock()

	fs := f.faults.Load()
	if fs != nil && (fs.isCrashed(msg.From) || fs.isCrashed(msg.To)) {
		f.stats.Inc(sim.CtrCrashDrops)
		return fmt.Errorf("%w: %s->%s", ErrPeerDown, msg.From, msg.To)
	}

	sender.cpu.Use(f.msgCost(msg))

	action := actDeliver
	var extraDelay time.Duration
	if fs != nil {
		action, extraDelay = fs.decide(key)
	}

	idx := pathHint
	if idx < 0 || idx >= len(ps) {
		f.rngMu.Lock()
		idx = f.rng.Intn(len(ps))
		f.rngMu.Unlock()
	}
	p := ps[idx].fifo()

	switch action {
	case actDrop:
		// Silent loss: the sender believes the message is on its way.
		f.stats.Inc(sim.CtrFaultDrops)
		return nil
	case actDelay:
		// The reorder fault. The message is accepted (counted sent) before
		// Send returns so Close's drain guarantee still holds.
		f.stats.Inc(sim.CtrFaultDelays)
		f.countSent(msg, 1)
		f.deliverLater(msg, dst, p, extraDelay)
		return nil
	}

	// Counted before the enqueue: once the message is on its path the
	// receiver may answer, and the answer's reader may look at the
	// counters, before this goroutine runs again.
	f.countSent(msg, 1)
	select {
	case p.ch <- msg:
		if action == actDup {
			// Re-deliver the same message on the same path. Best-effort: a
			// full path or a closing fabric forgoes the duplicate rather
			// than blocking the sender a second time.
			f.countSent(msg, 1)
			select {
			case p.ch <- msg:
				f.stats.Inc(sim.CtrFaultDups)
			default:
				f.countSent(msg, -1)
			}
		}
		return nil
	case <-f.stopCh:
		f.countSent(msg, -1)
		f.stats.Inc(sim.CtrNetDrops)
		return fmt.Errorf("%w: %s->%s dropped", ErrClosed, msg.From, msg.To)
	}
}

// msgCost is the CPU one end of a message pays, at send and at receipt.
func (f *fabric[P]) msgCost(msg Message) time.Duration {
	cost := f.costs.MsgCPU
	if msg.CarriesPage {
		cost += f.costs.PerPageExtra
	}
	return cost
}

// countSent adds delta (1, or -1 to take a count back) to the sent-message
// counters.
func (f *fabric[P]) countSent(msg Message, delta int64) {
	f.stats.Add(sim.CtrMessages, delta)
	if msg.CarriesPage {
		f.stats.Add(sim.CtrPageTransfers, delta)
	}
}

// run drains one path in FIFO order, handing each message to step. On
// shutdown it first drains what is already queued: those messages were
// accepted by Send and are stepped, not dropped.
func (f *fabric[P]) run(p *path, step func(Message)) {
	defer close(p.done)
	for {
		select {
		case msg := <-p.ch:
			step(msg)
		case <-f.stopCh:
			for {
				select {
				case msg := <-p.ch:
					step(msg)
				default:
					return
				}
			}
		}
	}
}

// deliver hands msg to its local destination in a fresh goroutine, the
// receiving "thread".
func (f *fabric[P]) deliver(dst *node, msg Message) {
	f.deliverWG.Add(1)
	go func() {
		defer f.deliverWG.Done()
		f.handle(dst, msg)
	}()
}

// handle runs the crash check, the receiver's CPU charge and the handler
// for one delivered message. Callers run it from a goroutine already
// counted in deliverWG.
func (f *fabric[P]) handle(dst *node, msg Message) {
	if fs := f.faults.Load(); fs != nil && fs.isCrashed(msg.To) {
		// The destination died while the message was on the wire: a dead
		// peer processes nothing.
		f.stats.Inc(sim.CtrCrashDrops)
		return
	}
	dst.cpu.Use(f.msgCost(msg))
	dst.handler(msg)
}

// deliverLater implements the reorder fault: msg bypasses its path's FIFO
// and arrives after the wire latency plus extra. A local destination is
// handed the message directly; a remote one gets it re-queued on p after
// the wait, which equally breaks FIFO relative to later sends. The wait is
// registered with deliverWG before returning so Close waits for it; a
// close during the wait ends it early (accepted messages are delivered,
// not dropped).
func (f *fabric[P]) deliverLater(msg Message, dst *node, p *path, extra time.Duration) {
	f.deliverWG.Add(1)
	go func() {
		defer f.deliverWG.Done()
		select {
		case <-time.After(f.costs.Scaled(f.costs.MsgLatency) + extra):
		case <-f.stopCh:
		}
		if dst != nil {
			f.handle(dst, msg)
			return
		}
		select {
		case p.ch <- msg:
		default:
			// Queue full: the message was counted as sent, so account the
			// loss. (After its path drained, Close's drain counts it.)
			f.stats.Inc(sim.CtrNetDrops)
			f.countSent(msg, -1)
		}
	}()
}

// Close shuts the fabric down: no further sends are accepted, messages
// already queued on paths are stepped, the backend releases its resources,
// and Close returns after every handler goroutine has finished. Path
// channels are never closed (a sender blocked in Send must not panic);
// senders are unblocked via stopCh. Any message a racing sender managed to
// enqueue after its path drained is discarded here and counted as a drop.
func (f *fabric[P]) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	var all []*path
	for _, ps := range f.links {
		for _, p := range ps {
			all = append(all, p.fifo())
		}
	}
	f.mu.Unlock()

	close(f.stopCh)
	for _, p := range all {
		<-p.done
	}
	f.b.stopped()
	f.deliverWG.Wait()

	for _, p := range all {
	drain:
		for {
			select {
			case msg := <-p.ch:
				f.stats.Inc(sim.CtrNetDrops)
				f.countSent(msg, -1) // it was counted as sent
			default:
				break drain
			}
		}
	}
}
