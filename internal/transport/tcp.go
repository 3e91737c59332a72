// TCP is the real-network Fabric. It preserves the simulated Network's
// delivery semantics over actual sockets:
//
//   - Per ordered pair of endpoints there are numPaths logical paths, each
//     multiplexed onto one TCP connection carrying length-prefixed frames
//     (wire.go). A single writer goroutine per path drains its queue in
//     order, so per-path FIFO holds across the wire; the prefix that was
//     written before a socket died is exactly the prefix that can arrive,
//     so FIFO survives reconnects too. The codec state those frames carry
//     (a gob stream, an interner) belongs to the socket (tcpConn), never
//     to the path: a new socket is a new stream on both ends.
//   - Connections are established by whichever side knows an address: a
//     path whose destination appears in Remotes (or is registered locally,
//     in which case the fabric dials its own listener — the single-process
//     loopback mode the parity and fault tests use) gets a keeper
//     goroutine that dials with exponential backoff and redials whenever
//     the connection dies. Paths with no dialable address (a server's
//     reply path toward a client behind NAT) are fed by the accept loop:
//     the hello frame names the dialing link, and the acceptor offers the
//     socket to the reverse path so replies ride the same connection.
//   - A frame in flight when its socket dies is lost, exactly like a
//     datagram on a real wire. The resilient-RPC layer's retry/dedup is
//     what recovers it; the fabric's only job is to get a fresh socket.
//
// Counter discipline matches the Network: CtrNetDrops counts only sends
// the fabric refused (closed, or no route to the destination); injected
// drops are CtrFaultDrops; crashed-peer traffic is CtrCrashDrops. Socket
// failures surface as CtrTCPReconnects, never as phantom drops.
package transport

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"adaptivecc/internal/obs"
	"adaptivecc/internal/sim"
)

// ErrNoRoute is returned by TCP.Send when the destination is neither a
// local endpoint, nor listed in Remotes, nor reachable over a connection a
// remote peer already opened to us. Unlike ErrClosed it indicates a
// misconfigured topology, so the peer layer surfaces it via LastError.
var ErrNoRoute = errors.New("transport: no route to destination")

// TCPOptions configures a TCP fabric. The zero value listens on an
// ephemeral loopback port with sane timeouts.
type TCPOptions struct {
	// ListenAddr is the address to listen on (default "127.0.0.1:0").
	ListenAddr string
	// Remotes maps peer names to dial addresses for endpoints living in
	// other processes. Locally registered endpoints need no entry: the
	// fabric dials its own listener for them.
	Remotes map[string]string
	// DialTimeout bounds one dial attempt and the hello exchange
	// (default 5s).
	DialTimeout time.Duration
	// WriteTimeout bounds each frame write so a wedged peer cannot stall
	// a writer forever (default 10s).
	WriteTimeout time.Duration
	// KeepAlive is the TCP keepalive period (default 15s).
	KeepAlive time.Duration
	// ReconnectMin/ReconnectMax bound the keeper's exponential redial
	// backoff (defaults 20ms and 1s).
	ReconnectMin time.Duration
	ReconnectMax time.Duration
}

func (o TCPOptions) withDefaults() TCPOptions {
	if o.ListenAddr == "" {
		o.ListenAddr = "127.0.0.1:0"
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 10 * time.Second
	}
	if o.KeepAlive <= 0 {
		o.KeepAlive = 15 * time.Second
	}
	if o.ReconnectMin <= 0 {
		o.ReconnectMin = 20 * time.Millisecond
	}
	if o.ReconnectMax <= 0 {
		o.ReconnectMax = time.Second
	}
	return o
}

// TCP is a Fabric over real sockets. See the package comment above.
type TCP struct {
	faultHost

	costs    sim.CostTable
	stats    *sim.Stats
	numPaths int
	opts     TCPOptions

	rngMu sync.Mutex
	rng   *rand.Rand

	ln        net.Listener
	stopCh    chan struct{}
	deliverWG sync.WaitGroup // handler invocations
	loopWG    sync.WaitGroup // accept loop, readers, keepers, delayed deliveries

	mu     sync.Mutex
	nodes  map[string]*node
	links  map[linkKey][]*tcpPath
	conns  map[*tcpConn]linkKey // every live socket end and the link it serves
	obsSet *obs.Set             // nil until AttachObs; guarded by mu
	closed bool

	streamErrors atomic.Int64 // sockets killed by ErrBadStream
}

// tcpConn is one socket end plus the write half of its codec. The encoder
// hangs off the socket so that whatever replaces the socket on a path — a
// redial, an accepted socket offered to a reply path — starts a fresh
// stream. At most one path holds a conn, and only that path's writer
// touches enc. The read half lives in the conn's readLoop.
type tcpConn struct {
	net.Conn
	enc *StreamEncoder
}

func newTCPConn(c net.Conn) *tcpConn { return &tcpConn{Conn: c, enc: NewStreamEncoder()} }

// tcpPath is one logical FIFO path of an ordered link: a message queue, a
// single writer goroutine, and at most one live socket at a time.
type tcpPath struct {
	t       *TCP
	key     linkKey
	idx     int
	out     chan Message
	drained chan struct{} // closed when the writer has exited
	reg     atomic.Pointer[obs.Registry]

	connMu sync.Mutex
	conn   *tcpConn
	ever   bool          // some conn has been attached before (reconnect accounting)
	connCh chan struct{} // cap 1: pulsed when a conn is attached
	downCh chan struct{} // cap 1: pulsed when the conn is lost (wakes the keeper)
}

// NewTCP builds a TCP fabric, binds its listener, and starts accepting.
// costs/stats/numPaths/seed have the same meaning as for NewNetwork.
func NewTCP(costs sim.CostTable, stats *sim.Stats, numPaths int, seed int64, opts TCPOptions) (*TCP, error) {
	if numPaths < 1 {
		numPaths = 1
	}
	if stats == nil {
		stats = sim.NewStats()
	}
	opts = opts.withDefaults()
	ln, err := net.Listen("tcp", opts.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", opts.ListenAddr, err)
	}
	t := &TCP{
		costs:    costs,
		stats:    stats,
		numPaths: numPaths,
		opts:     opts,
		rng:      rand.New(rand.NewSource(seed)),
		ln:       ln,
		stopCh:   make(chan struct{}),
		nodes:    make(map[string]*node),
		links:    make(map[linkKey][]*tcpPath),
		conns:    make(map[*tcpConn]linkKey),
	}
	t.loopWG.Add(1)
	go t.acceptLoop()
	return t, nil
}

// TCPFactory adapts NewTCP to the Factory signature for core.Config.
func TCPFactory(opts TCPOptions) Factory {
	return func(costs sim.CostTable, stats *sim.Stats, numPaths int, seed int64) (Fabric, error) {
		return NewTCP(costs, stats, numPaths, seed, opts)
	}
}

// Addr reports the listener's bound address (useful with ListenAddr ":0").
func (t *TCP) Addr() string { return t.ln.Addr().String() }

// AttachObs hooks the fabric into a system's observability Set: every
// path (existing and future) gets a per-path registry recording frame
// sizes, frame write latency, and reconnect-backoff sleeps, plus an
// outbound queue-depth gauge. Core calls this right after building the
// Set — the Factory signature predates observability, so the fabric is
// constructed first and instrumented second. Idempotent per path; nil
// set is a no-op.
func (t *TCP) AttachObs(set *obs.Set) {
	if set == nil {
		return
	}
	t.mu.Lock()
	t.obsSet = set
	var all []*tcpPath
	for _, l := range t.links {
		all = append(all, l...)
	}
	t.mu.Unlock()
	for _, p := range all {
		p.instrument(set)
	}
}

// instrument attaches this path's observability handle: a registry with a
// minimal trace ring (path registries record histograms, never events)
// and a queue-depth gauge sampled at scrape time.
func (p *tcpPath) instrument(set *obs.Set) {
	if set == nil || p.reg.Load() != nil {
		return
	}
	site := fmt.Sprintf("tcp:%s->%s#%d", p.key.from, p.key.to, p.idx)
	p.reg.Store(set.NewRegistryCap(site, 1))
	set.RegisterGauge("tcp_queue_depth",
		map[string]string{"link": p.key.from + "->" + p.key.to, "path": strconv.Itoa(p.idx)},
		func() int64 { return int64(len(p.out)) })
}

// Register attaches a local endpoint, as on the simulated Network.
func (t *TCP) Register(name string, cpu *sim.Resource, handler Handler) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.nodes[name]; ok {
		return fmt.Errorf("transport: endpoint %q already registered", name)
	}
	t.nodes[name] = &node{name: name, cpu: cpu, handler: handler}
	return nil
}

// NumPaths reports the per-pair path count.
func (t *TCP) NumPaths() int { return t.numPaths }

// addrFor resolves a dial address for an endpoint: an explicit Remotes
// entry wins; a locally registered endpoint is reached through our own
// listener. Empty means not dialable (accept-fed only). Callers hold t.mu.
func (t *TCP) addrFor(name string) string {
	if addr, ok := t.opts.Remotes[name]; ok {
		return addr
	}
	if _, ok := t.nodes[name]; ok {
		return t.ln.Addr().String()
	}
	return ""
}

// pathsFor returns (creating on first use) the paths of one ordered link.
// mustRoute demands a way for frames to ever flow: a dialable destination
// or an already-open link. The accept loop passes false — it is the party
// creating the route.
func (t *TCP) pathsFor(key linkKey, mustRoute bool) ([]*tcpPath, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, ErrClosed
	}
	if ps, ok := t.links[key]; ok {
		t.mu.Unlock()
		return ps, nil
	}
	addr := t.addrFor(key.to)
	if mustRoute && addr == "" {
		t.mu.Unlock()
		return nil, fmt.Errorf("%w: %s->%s", ErrNoRoute, key.from, key.to)
	}
	ps := make([]*tcpPath, t.numPaths)
	for i := range ps {
		p := &tcpPath{
			t:       t,
			key:     key,
			idx:     i,
			out:     make(chan Message, pathBufSize),
			drained: make(chan struct{}),
			connCh:  make(chan struct{}, 1),
			downCh:  make(chan struct{}, 1),
		}
		ps[i] = p
		p.instrument(t.obsSet)
		go p.writeLoop()
		if addr != "" {
			t.loopWG.Add(1)
			go t.keep(p, addr)
		}
	}
	t.links[key] = ps
	t.mu.Unlock()
	return ps, nil
}

// Send queues msg on one of its link's paths. Semantics mirror
// Network.Send: the sender's CPU is charged, fault decisions use the same
// per-link streams, a full path blocks (backpressure, never loss), and the
// only counted drops (CtrNetDrops) are sends the fabric refused outright —
// closed fabric or unroutable destination.
func (t *TCP) Send(msg Message, pathHint int) error {
	t.mu.Lock()
	sender := t.nodes[msg.From]
	closed := t.closed
	t.mu.Unlock()
	if closed {
		t.stats.Inc(sim.CtrNetDrops)
		return fmt.Errorf("%w: %s->%s dropped", ErrClosed, msg.From, msg.To)
	}
	if sender == nil {
		return fmt.Errorf("transport: unknown sender %q", msg.From)
	}
	ps, err := t.pathsFor(linkKey{msg.From, msg.To}, true)
	if err != nil {
		t.stats.Inc(sim.CtrNetDrops)
		return err
	}

	fs := t.faults.Load()
	if fs != nil && (fs.isCrashed(msg.From) || fs.isCrashed(msg.To)) {
		t.stats.Inc(sim.CtrCrashDrops)
		return fmt.Errorf("%w: %s->%s", ErrPeerDown, msg.From, msg.To)
	}

	sender.cpu.Use(t.msgCost(msg))

	action := actDeliver
	var extraDelay time.Duration
	if fs != nil {
		action, extraDelay = fs.decide(linkKey{msg.From, msg.To})
	}

	idx := pathHint
	if idx < 0 || idx >= len(ps) {
		t.rngMu.Lock()
		idx = t.rng.Intn(len(ps))
		t.rngMu.Unlock()
	}

	switch action {
	case actDrop:
		// Silent loss: the sender believes the message is on its way.
		t.stats.Inc(sim.CtrFaultDrops)
		return nil
	case actDelay:
		// Reorder fault: deliver outside the path FIFO after extra
		// latency. Counted as sent now, like the simulated fabric.
		t.stats.Inc(sim.CtrFaultDelays)
		t.countSent(msg, 1)
		t.deliverDelayed(msg, ps[idx], extraDelay)
		return nil
	}

	// Counted before the enqueue, as on the Network: once the message is on
	// its path the receiver may answer, and the answer's reader may look at
	// the counters, before this goroutine runs again.
	t.countSent(msg, 1)
	select {
	case ps[idx].out <- msg:
		if action == actDup {
			// Best-effort duplicate on the same path, as on the Network.
			t.countSent(msg, 1)
			select {
			case ps[idx].out <- msg:
				t.stats.Inc(sim.CtrFaultDups)
			default:
				t.countSent(msg, -1)
			}
		}
		return nil
	case <-t.stopCh:
		t.countSent(msg, -1)
		t.stats.Inc(sim.CtrNetDrops)
		return fmt.Errorf("%w: %s->%s dropped", ErrClosed, msg.From, msg.To)
	}
}

func (t *TCP) msgCost(msg Message) time.Duration {
	cost := t.costs.MsgCPU
	if msg.CarriesPage {
		cost += t.costs.PerPageExtra
	}
	return cost
}

// countSent adds delta (1, or -1 to take a count back) to the sent-message
// counters.
func (t *TCP) countSent(msg Message, delta int64) {
	t.stats.Add(sim.CtrMessages, delta)
	if msg.CarriesPage {
		t.stats.Add(sim.CtrPageTransfers, delta)
	}
}

// deliverDelayed implements the reorder fault. A local destination is
// delivered directly (bypassing the path FIFO) after the extra latency,
// mirroring Network.deliverDirect; a remote one is re-queued on its path
// after the sleep, which equally breaks FIFO relative to later sends.
func (t *TCP) deliverDelayed(msg Message, p *tcpPath, extra time.Duration) {
	t.mu.Lock()
	dst := t.nodes[msg.To]
	t.mu.Unlock()
	wait := t.costs.Scaled(t.costs.MsgLatency) + extra
	if dst != nil {
		t.deliverWG.Add(1)
		go func() {
			defer t.deliverWG.Done()
			select {
			case <-time.After(wait):
			case <-t.stopCh:
			}
			t.handleLocal(dst, msg)
		}()
		return
	}
	t.loopWG.Add(1)
	go func() {
		defer t.loopWG.Done()
		select {
		case <-time.After(wait):
		case <-t.stopCh:
		}
		select {
		case p.out <- msg:
		default:
			// Queue full or already drained during shutdown: the message
			// was counted as sent, so account the loss.
			t.stats.Inc(sim.CtrNetDrops)
			t.countSent(msg, -1)
		}
	}()
}

// handleLocal runs the crash check, CPU charge, and handler for one
// delivered message. Callers run it from a goroutine already counted in
// deliverWG.
func (t *TCP) handleLocal(dst *node, msg Message) {
	if fs := t.faults.Load(); fs != nil && fs.isCrashed(msg.To) {
		// The destination died while the message was on the wire.
		t.stats.Inc(sim.CtrCrashDrops)
		return
	}
	dst.cpu.Use(t.msgCost(msg))
	dst.handler(msg)
}

// deliver hands a decoded inbound frame to its destination endpoint, one
// fresh goroutine per message like the simulated pump. Frames for unknown
// endpoints (misrouted, or a peer registered elsewhere) are discarded.
func (t *TCP) deliver(msg Message) {
	t.mu.Lock()
	dst := t.nodes[msg.To]
	t.mu.Unlock()
	if dst == nil {
		return
	}
	t.deliverWG.Add(1)
	go func() {
		defer t.deliverWG.Done()
		t.handleLocal(dst, msg)
	}()
}

// --- connection lifecycle ---------------------------------------------

// trackConn records a live socket end; false means the fabric is closed
// and the caller must close the conn itself.
func (t *TCP) trackConn(c *tcpConn, key linkKey) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return false
	}
	t.conns[c] = key
	return true
}

// dropConn closes a socket and detaches it from whichever path holds it,
// pulsing that path's keeper to redial.
func (t *TCP) dropConn(c *tcpConn) {
	c.Close()
	t.mu.Lock()
	delete(t.conns, c)
	var ps []*tcpPath
	for _, l := range t.links {
		ps = append(ps, l...)
	}
	t.mu.Unlock()
	for _, p := range ps {
		p.clearConn(c)
	}
}

// acceptLoop admits inbound connections until the listener closes.
func (t *TCP) acceptLoop() {
	defer t.loopWG.Done()
	for {
		c, err := t.ln.Accept()
		if err != nil {
			return
		}
		t.loopWG.Add(1)
		go t.handshake(c)
	}
}

// handshake validates an inbound connection's hello, starts its reader,
// and offers the socket to the reverse path so replies can ride it when
// that path has no dialed connection of its own.
func (t *TCP) handshake(nc net.Conn) {
	defer t.loopWG.Done()
	c := newTCPConn(nc)
	_ = c.SetReadDeadline(time.Now().Add(t.opts.DialTimeout))
	payload, err := readFrame(c)
	if err != nil {
		c.Close()
		return
	}
	h, err := decodeHello(payload)
	if err != nil {
		c.Close()
		return
	}
	_ = c.SetReadDeadline(time.Time{})
	t.mu.Lock()
	_, local := t.nodes[h.To]
	t.mu.Unlock()
	if !local || h.Path < 0 || h.Path >= t.numPaths {
		c.Close()
		return
	}
	if !t.trackConn(c, linkKey{h.From, h.To}) {
		c.Close()
		return
	}
	t.stats.Inc(sim.CtrTCPConns)
	t.loopWG.Add(1)
	go t.readLoop(c)
	if ps, err := t.pathsFor(linkKey{h.To, h.From}, false); err == nil {
		ps[h.Path].offerConn(c)
	}
}

// readBufSize is each socket reader's buffer. It holds a whole page-ship
// frame (9 + ~4 200 bytes with the default 4 KB page), so one read
// syscall brings in a page; bufio's 4 096-byte default took two.
const readBufSize = 16 << 10

// readLoop decodes frames off one socket end and delivers them until the
// socket dies or a bad frame poisons the stream. The decoder is the read
// half of the socket's codec: created here, just past the hello, and gone
// when the loop drops the socket.
func (t *TCP) readLoop(c *tcpConn) {
	defer t.loopWG.Done()
	defer t.dropConn(c)
	dec := NewStreamDecoder(bufio.NewReaderSize(c, readBufSize))
	for {
		msg, err := dec.Decode()
		if err != nil {
			if errors.Is(err, ErrBadStream) {
				t.streamErrors.Add(1)
			}
			return
		}
		t.deliver(msg)
	}
}

// StreamErrors reports how many sockets this fabric has killed because a
// frame that passed the length, version and CRC checks was not the next
// message of its connection's stream. It stays zero between well-behaved
// peers, socket loss included: a stream never continues on another socket.
func (t *TCP) StreamErrors() int64 { return t.streamErrors.Load() }

// keep maintains one path's dialed connection: dial, hand the socket to
// the writer, sleep until it dies, redial with exponential backoff.
func (t *TCP) keep(p *tcpPath, addr string) {
	defer t.loopWG.Done()
	backoff := t.opts.ReconnectMin
	for {
		select {
		case <-t.stopCh:
			return
		default:
		}
		if p.hasConn() {
			select {
			case <-p.downCh:
			case <-t.stopCh:
				return
			}
			continue
		}
		if t.Crashed(p.key.from) || t.Crashed(p.key.to) {
			// A crashed endpoint stays down (fail-stop); poll slowly in
			// case the test heals the world by other means.
			select {
			case <-time.After(t.opts.ReconnectMax):
			case <-t.stopCh:
				return
			}
			continue
		}
		c, err := t.dialPath(p, addr)
		if err != nil {
			p.reg.Load().Observe(obs.HistTCPBackoff, backoff)
			select {
			case <-time.After(backoff):
			case <-t.stopCh:
				return
			}
			if backoff *= 2; backoff > t.opts.ReconnectMax {
				backoff = t.opts.ReconnectMax
			}
			continue
		}
		backoff = t.opts.ReconnectMin
		p.setConn(c)
	}
}

// dialPath opens and tracks one socket for a path: dial, send the hello,
// start the reader.
func (t *TCP) dialPath(p *tcpPath, addr string) (*tcpConn, error) {
	d := net.Dialer{Timeout: t.opts.DialTimeout, KeepAlive: t.opts.KeepAlive}
	nc, err := d.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := newTCPConn(nc)
	hello, err := encodeHello(wireHello{From: p.key.from, To: p.key.to, Path: p.idx})
	if err != nil {
		c.Close()
		return nil, err
	}
	_ = c.SetWriteDeadline(time.Now().Add(t.opts.DialTimeout))
	if err := writeFrame(c, hello); err != nil {
		c.Close()
		return nil, err
	}
	_ = c.SetWriteDeadline(time.Time{})
	if !t.trackConn(c, p.key) {
		c.Close()
		return nil, ErrClosed
	}
	t.stats.Inc(sim.CtrTCPConns)
	t.loopWG.Add(1)
	go t.readLoop(c)
	return c, nil
}

// Crash marks an endpoint dead (shared fault semantics) and additionally
// tears down every live socket touching it, so the death is a real
// connection-reset event on the wire, not just a bookkeeping bit.
func (t *TCP) Crash(name string) bool {
	if !t.faultHost.Crash(name) {
		return false
	}
	t.severConns(name)
	return true
}

// DropConnections severs every live socket touching peer without crashing
// anyone: keepers redial, frames in flight are lost. A pure network blip,
// for reconnect tests. Returns the number of socket ends closed.
func (t *TCP) DropConnections(peer string) int {
	return t.severConns(peer)
}

func (t *TCP) severConns(peer string) int {
	t.mu.Lock()
	var dead []*tcpConn
	for c, k := range t.conns {
		if k.from == peer || k.to == peer {
			dead = append(dead, c)
		}
	}
	t.mu.Unlock()
	for _, c := range dead {
		t.dropConn(c)
	}
	return len(dead)
}

// Close shuts the fabric down: stop accepting, let the writers flush what
// was queued onto live sockets, cut every socket, and wait for readers,
// keepers, and handler goroutines. Messages a racing sender enqueued after
// the writers drained are discarded and counted, mirroring Network.Close.
func (t *TCP) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	var all []*tcpPath
	for _, l := range t.links {
		all = append(all, l...)
	}
	t.mu.Unlock()

	close(t.stopCh)
	t.ln.Close()
	for _, p := range all {
		<-p.drained
	}
	t.mu.Lock()
	conns := make([]*tcpConn, 0, len(t.conns))
	for c := range t.conns {
		conns = append(conns, c)
	}
	t.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	t.loopWG.Wait()
	t.deliverWG.Wait()

	for _, p := range all {
	drain:
		for {
			select {
			case msg := <-p.out:
				t.stats.Inc(sim.CtrNetDrops)
				t.countSent(msg, -1) // it was counted as sent
			default:
				break drain
			}
		}
	}
}

// --- tcpPath ----------------------------------------------------------

func (p *tcpPath) hasConn() bool {
	p.connMu.Lock()
	defer p.connMu.Unlock()
	return p.conn != nil
}

// setConn attaches a freshly dialed socket. Any previous attachment is
// only detached, never closed here: a dialed socket is replaced solely
// when it already died (the keeper redials only after clearConn), and an
// accepted socket that raced in via offerConn stays open because its
// reader — and the dialing side's path — still depend on it.
func (p *tcpPath) setConn(c *tcpConn) {
	p.connMu.Lock()
	p.conn = c
	if p.ever {
		p.t.stats.Inc(sim.CtrTCPReconnects)
	}
	p.ever = true
	p.connMu.Unlock()
	select {
	case p.connCh <- struct{}{}:
	default:
	}
}

// offerConn attaches an accepted socket only if the path has none — a
// dialed connection always wins, and an extra offer is simply ignored
// (the socket still serves its reader on the other side).
func (p *tcpPath) offerConn(c *tcpConn) {
	p.connMu.Lock()
	if p.conn != nil {
		p.connMu.Unlock()
		return
	}
	p.conn = c
	if p.ever {
		p.t.stats.Inc(sim.CtrTCPReconnects)
	}
	p.ever = true
	p.connMu.Unlock()
	select {
	case p.connCh <- struct{}{}:
	default:
	}
}

// clearConn detaches a dead socket and wakes the keeper.
func (p *tcpPath) clearConn(c *tcpConn) {
	p.connMu.Lock()
	if p.conn == c {
		p.conn = nil
	}
	p.connMu.Unlock()
	select {
	case p.downCh <- struct{}{}:
	default:
	}
}

// waitConn blocks until the path has a socket. During shutdown it returns
// whatever is attached — possibly nil — so the drain can finish.
func (p *tcpPath) waitConn() *tcpConn {
	for {
		p.connMu.Lock()
		c := p.conn
		p.connMu.Unlock()
		if c != nil {
			return c
		}
		select {
		case <-p.connCh:
		case <-p.t.stopCh:
			p.connMu.Lock()
			c = p.conn
			p.connMu.Unlock()
			return c
		}
	}
}

// writeLoop is the path's single writer: it preserves FIFO order by being
// the only goroutine that touches the socket's write side. On shutdown it
// flushes everything already queued before exiting.
func (p *tcpPath) writeLoop() {
	defer close(p.drained)
	for {
		select {
		case msg := <-p.out:
			p.ship(msg)
		case <-p.t.stopCh:
			for {
				select {
				case msg := <-p.out:
					p.ship(msg)
				default:
					return
				}
			}
		}
	}
}

// ship writes one message to the path's current socket, encoded by that
// socket's own encoder. A write error poisons the socket (the frame may be
// half-written): the connection is dropped and the message is lost in
// flight — real-wire loss that the retry/dedup layer above recovers. It is
// deliberately NOT counted as a CtrNetDrops: the fabric accepted the
// message; the wire ate it.
func (p *tcpPath) ship(msg Message) {
	t := p.t
	if fs := t.faults.Load(); fs != nil && fs.isCrashed(msg.To) {
		// Destination died after the message was queued: a dead peer
		// processes nothing, as at the simulated pump.
		t.stats.Inc(sim.CtrCrashDrops)
		return
	}
	conn := p.waitConn()
	if conn == nil {
		// Shutdown with no socket: the message was counted as sent but
		// cannot leave the process.
		t.stats.Inc(sim.CtrNetDrops)
		t.countSent(msg, -1)
		return
	}
	frame, err := conn.enc.Encode(msg)
	if err != nil {
		// An unregistered gob payload type or a binary body the codec does
		// not know: a programming error. The message was counted as sent
		// and can never travel; account it as refused. A failed gob Encode
		// may have marked type descriptors as sent that the peer never saw,
		// so the stream is out of step: drop the socket and let the path's
		// next one start a fresh stream.
		t.stats.Inc(sim.CtrNetDrops)
		t.countSent(msg, -1)
		t.dropConn(conn)
		return
	}
	_ = conn.SetWriteDeadline(time.Now().Add(t.opts.WriteTimeout))
	reg := p.reg.Load()
	timed := reg.Active()
	var start time.Time
	if timed {
		reg.ObserveValue(obs.HistTCPFrameSize, int64(len(frame)-wireHeaderSize))
		start = time.Now()
	}
	_, err = conn.Write(frame)
	if timed {
		reg.Observe(obs.HistTCPFrameWrite, time.Since(start))
	}
	if err != nil {
		t.dropConn(conn)
	}
}
