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
// Registration, Send and its counters, local and delayed delivery and the
// close-time drain are the shared fabric core's (fabric.go); TCP adds a
// path step that writes frames and the socket lifecycle below. A socket
// failure surfaces as CtrTCPReconnects, never as a phantom CtrNetDrops.
package transport

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"adaptivecc/internal/obs"
	"adaptivecc/internal/sim"
)

// tcpWriteTimeout bounds each frame write, so a wedged peer cannot stall a
// writer forever; tcpKeepAlive is the TCP keepalive period of every
// socket the fabric dials.
const (
	tcpWriteTimeout = 10 * time.Second
	tcpKeepAlive    = 15 * time.Second
)

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
	fabric[*tcpPath]

	opts   TCPOptions
	ln     net.Listener
	loopWG sync.WaitGroup // accept loop, handshakes, readers, keepers

	conns  map[*tcpConn]linkKey // every live socket end and the link it serves; guarded by mu
	obsSet *obs.Set             // nil until AttachObs; guarded by mu

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

// tcpPath is one logical FIFO path of an ordered link: the shared queue,
// drained by a single writer (ship), and at most one live socket at a time.
type tcpPath struct {
	*path
	t   *TCP
	key linkKey
	idx int
	reg atomic.Pointer[obs.Registry]

	connMu sync.Mutex
	conn   *tcpConn
	ever   bool          // some conn has been attached before (reconnect accounting)
	connCh chan struct{} // cap 1: pulsed when a conn is attached
	downCh chan struct{} // cap 1: pulsed when the conn is lost (wakes the keeper)
}

// NewTCP builds a TCP fabric, binds its listener, and starts accepting.
// costs/stats/numPaths/seed have the same meaning as for NewNetwork.
func NewTCP(costs sim.CostTable, stats *sim.Stats, numPaths int, seed int64, opts TCPOptions) (*TCP, error) {
	opts = opts.withDefaults()
	ln, err := net.Listen("tcp", opts.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", opts.ListenAddr, err)
	}
	t := &TCP{opts: opts, ln: ln, conns: make(map[*tcpConn]linkKey)}
	t.setup(t, costs, stats, numPaths, seed)
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
		func() int64 { return int64(len(p.ch)) })
}

// routable reports whether name, registered elsewhere, has a Remotes
// address. A link a remote peer dialed to us needs none: the accept loop
// opened it, so Send finds it before asking.
func (t *TCP) routable(name string) bool {
	_, ok := t.opts.Remotes[name]
	return ok
}

// openPath starts one path of a link: its writer, and a keeper when the
// destination has a dial address — an explicit Remotes entry, or our own
// listener for a local endpoint. A path with neither is accept-fed: it
// waits for the socket a remote peer dials on the reverse link.
func (t *TCP) openPath(key linkKey, idx int, dst *node) *tcpPath {
	p := &tcpPath{
		path:   newPath(),
		t:      t,
		key:    key,
		idx:    idx,
		connCh: make(chan struct{}, 1),
		downCh: make(chan struct{}, 1),
	}
	p.instrument(t.obsSet)
	go t.run(p.path, p.ship)
	addr, ok := t.opts.Remotes[key.to]
	if !ok && dst != nil {
		addr = t.ln.Addr().String()
	}
	if addr != "" {
		t.loopWG.Add(1)
		go t.keep(p, addr)
	}
	return p
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
	// The socket is the reply link's route: open it without Send's check.
	t.mu.Lock()
	var ps []*tcpPath
	if !t.closed {
		ps = t.linkLocked(linkKey{h.To, h.From})
	}
	t.mu.Unlock()
	if ps != nil {
		ps[h.Path].offerConn(c)
	}
}

// readBufSize is each socket reader's buffer. It holds a whole page-ship
// frame (9 + ~4 200 bytes with the default 4 KB page), so one read
// syscall brings in a page; bufio's 4 096-byte default took two.
const readBufSize = 16 << 10

// readLoop decodes frames off one socket end and delivers them until the
// socket dies or a bad frame poisons the stream. Frames for endpoints not
// registered here (misrouted, or a peer registered elsewhere) are
// discarded. The decoder is the read half of the socket's codec: created
// here, just past the hello, and gone when the loop drops the socket.
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
		t.mu.Lock()
		dst := t.nodes[msg.To]
		t.mu.Unlock()
		if dst != nil {
			t.deliver(dst, msg)
		}
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
	d := net.Dialer{Timeout: t.opts.DialTimeout, KeepAlive: tcpKeepAlive}
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

// stopped ends the socket side once Close has let the writers flush what
// was queued onto live sockets: stop accepting, cut every socket, and wait
// for the accept loop, handshakes, readers and keepers.
func (t *TCP) stopped() {
	t.ln.Close()
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

// ship is the path's step: it writes one message to the path's current
// socket, encoded by that socket's own encoder. Being the path's only
// writer, it keeps the socket's frames in path order. A write error poisons the socket (the frame may be
// half-written): the connection is dropped and the message is lost in
// flight — real-wire loss that the retry/dedup layer above recovers. It is
// deliberately NOT counted as a CtrNetDrops: the fabric accepted the
// message; the wire ate it.
func (p *tcpPath) ship(msg Message) {
	t := p.t
	if fs := t.faults.Load(); fs != nil && fs.isCrashed(msg.To) {
		// Destination died after the message was queued: a dead peer
		// processes nothing.
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
	_ = conn.SetWriteDeadline(time.Now().Add(tcpWriteTimeout))
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
