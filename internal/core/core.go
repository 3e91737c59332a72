// Package core implements the paper's contribution: hierarchical, adaptive
// cache consistency for a page server OODBMS, in the peer-servers model.
//
// Every peer server plays two roles. As the owner of its volumes it is the
// "server": it maintains the authoritative copies, the global lock table
// entries, the copy table, and runs callback operations on behalf of
// writers. As the local agent of its applications it is a "client": it
// caches remote pages with per-object availability bits, acquires local
// locks, generates redo log records, and answers callbacks from owners.
//
// The package implements only the mechanism — buffer pools, copy table,
// lock manager, transport, WAL, callback plumbing. Every per-access
// protocol decision (lock grain, transfer unit, callback strategy,
// escalation) is delegated to an internal/consistency.Policy, one
// implementation per protocol:
//
//	PS    — the basic page server: page-grain locking and callbacks.
//	PSOO  — object-grain locking with pure object callbacks.
//	PSOA  — object-grain locking with adaptive callbacks (whole-page
//	        invalidation attempted first).
//	PSAA  — PSOA plus adaptive locking: object writes opportunistically
//	        escalate to per-transaction adaptive page locks, deescalated
//	        on remote conflict.
//	OS    — pure object server baseline: objects are the unit of
//	        transfer and caching.
//	PSAH  — PSAA plus a history-driven advisor that picks lock grain and
//	        callback strategy per page (see internal/consistency).
package core

import (
	"fmt"
	"sync"
	"time"

	"adaptivecc/internal/consistency"
	"adaptivecc/internal/lock"
	"adaptivecc/internal/obs"
	"adaptivecc/internal/obs/audit"
	"adaptivecc/internal/placement"
	"adaptivecc/internal/sim"
	"adaptivecc/internal/storage"
	"adaptivecc/internal/transport"
)

// Protocol selects the cache consistency algorithm. The type and its
// values live in internal/consistency; they are re-exported here so users
// of core need not import the policy package.
type Protocol = consistency.Protocol

// The implemented protocols. See internal/consistency for descriptions.
const (
	PS   = consistency.PS
	PSOO = consistency.PSOO
	PSOA = consistency.PSOA
	PSAA = consistency.PSAA
	OS   = consistency.OS
	PSAH = consistency.PSAH
)

// Config parameterizes a System.
type Config struct {
	// Protocol selects the cache consistency algorithm (default PSAA).
	Protocol Protocol
	// Costs is the simulated hardware cost table.
	Costs sim.CostTable
	// ObjectsPerPage and ObjectSize shape pages (defaults 20 and 200,
	// mirroring the paper's 4 KB pages with 20 objects).
	ObjectsPerPage int
	ObjectSize     int
	// ClientPoolPages and ServerPoolPages size the two buffer pools.
	ClientPoolPages int
	ServerPoolPages int
	// NumPaths is the number of independent FIFO paths between each pair
	// of peers (default 3).
	NumPaths int
	// Seed drives path selection.
	Seed int64
	// UseTimeouts enables lock-wait timeouts (SHORE's distributed deadlock
	// resolution). Off by default: a zero Config waits for locks forever.
	UseTimeouts bool
	// FixedTimeout, when positive, is the lock-wait timeout; zero selects
	// the paper's adaptive heuristic (mean wait + one standard deviation,
	// ×1.5, clamped to [50ms, 30×RPCTimeout]). A lock wait must end inside
	// the 39×RPCTimeout retry budget: the adaptive ceiling does by
	// construction, a FixedTimeout must be chosen to.
	FixedTimeout time.Duration
	// PropagateSHPage disables the hierarchical-callback optimization of
	// §4.3.2: explicit SH/IS page locks always propagate to the server
	// (the simplified algorithm of §4.3.1). For the ablation benchmark.
	PropagateSHPage bool

	// RPCTimeout bounds each request/reply attempt (default 500ms). Every
	// other deadline of the RPC discipline is derived from it: a timed-out
	// request is resent 6 times with exponential backoff capped at
	// 8×RPCTimeout (a 39×RPCTimeout budget; the adaptive lock-wait
	// timeout's ceiling is 30×RPCTimeout), a callback round aborts its
	// write request after 4×RPCTimeout without progress, and a prepared
	// cross-shard transaction is resolved after 16×RPCTimeout in doubt.
	RPCTimeout time.Duration
	// DeadClientStalls declares a persistently silent client dead: after
	// this many consecutive zero-progress callback-round stalls implicating
	// the same client — any reply from it resets the streak — the server
	// fences it (the transport refuses its traffic from then on) and
	// reclaims everything it left behind, exactly as CrashPeer would.
	// Without it a SIGKILLed remote client's copy-table entries stall every
	// later callback round against them, forever. Zero (the default)
	// disables detection. Enable only on transports that do not lose
	// frames (real TCP): under injected message loss a live client's lost
	// ack is indistinguishable from silence.
	DeadClientStalls int

	// Obs enables the observability subsystem (latency histograms, trace
	// rings, metrics registration). The zero value keeps it off: no
	// registries exist and every instrumentation site is a nil check.
	Obs obs.Config

	// Audit, when non-nil, attaches the online invariant auditor: it is
	// subscribed to the event stream (implying Obs.Enabled) and given a
	// state view of every peer, so Sweep/Check can verify the protocol's
	// consistency invariants while the system runs. Nil (the default)
	// leaves the protocol entirely audit-free.
	Audit *audit.Auditor

	// Transport, when non-nil, builds the message fabric — e.g.
	// transport.TCPFactory for real sockets. Nil (the default) builds the
	// in-process simulated Network, which all committed figures use; runs
	// on the default fabric are bit-identical to the pre-Fabric system.
	Transport transport.Factory

	// TwoPCGate, when non-nil, is a fault-injection hook called between the
	// prepare and decide phases of a cross-shard commit, with the home peer
	// and transaction about to be decided. Tests and the e2e harness use it
	// to hold a transaction mid-2PC while a shard or the client is killed.
	TwoPCGate func(home string, tx lock.TxID)
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	c.Protocol = consistency.OrDefault(c.Protocol)
	if c.ObjectsPerPage == 0 {
		c.ObjectsPerPage = storage.DefaultObjectsPerPage
	}
	if c.ObjectSize == 0 {
		c.ObjectSize = storage.DefaultPageSize / storage.DefaultObjectsPerPage
	}
	if c.ClientPoolPages == 0 {
		c.ClientPoolPages = 256
	}
	if c.ServerPoolPages == 0 {
		c.ServerPoolPages = 512
	}
	if c.NumPaths == 0 {
		c.NumPaths = 3
	}
	if c.RPCTimeout <= 0 {
		c.RPCTimeout = 500 * time.Millisecond
	}
	if c.Audit != nil {
		// The auditor's event-driven half rides the obs sink; chain rather
		// than replace a caller-provided sink.
		c.Obs.Enabled = true
		aud, prev := c.Audit, c.Obs.Sink
		c.Obs.Sink = func(ev obs.Event) {
			aud.OnEvent(ev)
			if prev != nil {
				prev(ev)
			}
		}
	}
	if c.Obs.Enabled && c.Obs.TimeScale == 0 {
		// Histograms and trace timestamps report paper time by default.
		c.Obs.TimeScale = c.Costs.Scale
	}
	return c
}

// System wires peers together: the shared network, the page directory, and
// the placement map resolving every item to its owning server.
type System struct {
	cfg   Config
	stats *sim.Stats
	net   transport.Fabric
	dir   *storage.Directory
	// place resolves item→owner for every routing decision; AddPeer and
	// AddRemoteOwner populate it with their volume claims.
	place  *placement.Table
	peers  map[string]*Peer
	obsSet *obs.Set // nil unless cfg.Obs.Enabled

	closeOnce sync.Once
	closed    chan struct{} // closed by Close; stops background resolvers
}

// NewSystem builds an empty system. Lock-wait timeouts are off unless
// Config.UseTimeouts is set. It panics if the configured transport
// factory fails (only possible with a non-nil Config.Transport; use
// NewSystemFabric to handle that error).
func NewSystem(cfg Config) *System {
	s, err := NewSystemFabric(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// NewSystemFabric is NewSystem with the transport factory's error
// surfaced — a TCP fabric may fail to bind its listener.
func NewSystemFabric(cfg Config) (*System, error) {
	cfg = cfg.withDefaults()
	stats := sim.NewStats()
	var net transport.Fabric
	if cfg.Transport != nil {
		f, err := cfg.Transport(cfg.Costs, stats, cfg.NumPaths, cfg.Seed)
		if err != nil {
			return nil, err
		}
		net = f
	} else {
		net = transport.NewNetwork(cfg.Costs, stats, cfg.NumPaths, cfg.Seed)
	}
	s := &System{
		cfg:    cfg,
		stats:  stats,
		net:    net,
		dir:    storage.NewDirectory(),
		place:  placement.NewTable(),
		peers:  make(map[string]*Peer),
		closed: make(chan struct{}),
	}
	if cfg.Obs.Enabled {
		s.obsSet = obs.NewSet(cfg.Obs, stats)
		obs.RegisterSet(s.obsSet, cfg.Protocol.String())
		// The Factory signature predates observability, so the fabric is
		// built before the Set exists; fabrics that can self-instrument
		// (the TCP transport's per-path frame/backoff histograms and
		// queue-depth gauges) attach here.
		if ao, ok := net.(interface{ AttachObs(*obs.Set) }); ok {
			ao.AttachObs(s.obsSet)
		}
	}
	return s, nil
}

// Stats exposes the shared counter set.
func (s *System) Stats() *sim.Stats { return s.stats }

// Config returns the effective configuration.
func (s *System) Config() Config { return s.cfg }

// Directory exposes the global page directory; the harness populates it
// while creating volumes.
func (s *System) Directory() *storage.Directory { return s.dir }

// AddPeer creates a peer server owning the given volumes and registers it
// on the network, with the system-wide buffer pool sizes.
func (s *System) AddPeer(name string, vols ...*storage.Volume) (*Peer, error) {
	return s.AddPeerWithPools(name, s.cfg.ServerPoolPages, s.cfg.ClientPoolPages, vols...)
}

// AddPeerWithPools creates a peer with explicit buffer pool sizes; the
// peer-servers harness uses it to split each peer's 25%-of-DB buffer
// between the server pool (sized to its partition) and the client pool.
func (s *System) AddPeerWithPools(name string, serverPoolPages, clientPoolPages int, vols ...*storage.Volume) (*Peer, error) {
	if _, ok := s.peers[name]; ok {
		return nil, fmt.Errorf("core: peer %q already exists", name)
	}
	for _, v := range vols {
		if owner, ok := s.place.VolumeOwner(v.ID); ok {
			return nil, fmt.Errorf("core: volume %d already owned by %q", v.ID, owner)
		}
	}
	p := newPeer(s, name, serverPoolPages, clientPoolPages, vols)
	if err := s.net.Register(name, p.cpu, p.handle); err != nil {
		return nil, err
	}
	for _, v := range vols {
		s.place.SetVolume(v.ID, name)
	}
	s.peers[name] = p
	p.startResolver()
	if s.cfg.Audit != nil {
		s.cfg.Audit.AttachView(peerView{p})
	}
	return p, nil
}

// Peer returns a peer by name.
func (s *System) Peer(name string) (*Peer, bool) {
	p, ok := s.peers[name]
	return p, ok
}

// Peers lists all peers.
func (s *System) Peers() []*Peer {
	out := make([]*Peer, 0, len(s.peers))
	for _, p := range s.peers {
		out = append(out, p)
	}
	return out
}

// ownerOf resolves the peer name owning an item, through the placement map.
func (s *System) ownerOf(item storage.ItemID) (string, error) {
	return s.place.Owner(item)
}

// Close shuts the network down, draining in-flight messages, stops
// background 2PC resolvers, and retires the system from the metrics
// surface. The obs Set itself stays readable: callers may still harvest
// histograms and trace events after Close.
func (s *System) Close() {
	s.closeOnce.Do(func() { close(s.closed) })
	s.net.Close()
	if s.obsSet != nil {
		obs.UnregisterSet(s.obsSet)
	}
}

// Obs exposes the observability state (nil when disabled).
func (s *System) Obs() *obs.Set { return s.obsSet }

// Net exposes the transport fabric (fault injection, runtime partitions).
// Type-assert to *transport.TCP for socket-level controls (Addr,
// DropConnections) when the system was built with a TCP factory.
func (s *System) Net() transport.Fabric { return s.net }

// AddRemoteOwner declares that the named peer lives in another process and
// owns the given volumes: requests for items on them are routed to it over
// the fabric (which must know how to reach it — see
// transport.TCPOptions.Remotes). No local Peer is created.
func (s *System) AddRemoteOwner(name string, vols ...storage.VolumeID) error {
	if _, ok := s.peers[name]; ok {
		return fmt.Errorf("core: peer %q exists locally", name)
	}
	for _, v := range vols {
		if owner, ok := s.place.VolumeOwner(v); ok {
			return fmt.Errorf("core: volume %d already owned by %q", v, owner)
		}
		s.place.SetVolume(v, name)
	}
	return nil
}

// CrashPeer kills a peer: the network refuses its traffic both ways, and
// every surviving peer synchronously reclaims the state the dead peer left
// behind — its transactions' locks and copy-table entries are released,
// and its uncommitted shipped updates are rolled back from the WAL's
// before-images (presumed abort). A survivor with a request outstanding at
// the dead peer gets an error when the attempt's RPCTimeout expires.
func (s *System) CrashPeer(name string) error {
	if _, ok := s.peers[name]; !ok {
		return fmt.Errorf("core: unknown peer %q", name)
	}
	s.fenceDead(name)
	return nil
}

// fenceDead declares a peer dead after repeated silent callback stalls
// (Config.DeadClientStalls): the transport refuses its traffic from here
// on — if it is in fact alive it is fenced out, an availability loss but
// never a consistency one — and every local peer reclaims its leavings.
// CrashPeer runs it for a local peer; here the name may also be a remote
// process this System never hosted, which is the usual case on a real
// server.
func (s *System) fenceDead(name string) {
	if !s.net.Crash(name) {
		return // already fenced
	}
	for n, q := range s.peers {
		if n != name {
			q.peerDown(name)
		}
	}
}
