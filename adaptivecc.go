// Package adaptivecc is a from-scratch Go implementation of hierarchical,
// adaptive cache consistency for a page server OODBMS, reproducing
// Zaharioudakis & Carey (ICDCS 1997 / IEEE ToC 1998).
//
// A Cluster is a set of peer servers connected by an in-process message
// fabric. In the client-server configuration one peer owns the whole
// database and the others act as caching clients; in the peer-servers
// configuration the database is partitioned and every peer plays both
// roles. Transactions read and write fixed-size objects that live twenty
// to a 4 KB page; consistency of the client caches is maintained by
// callback locking at a granularity chosen by the Protocol:
//
//	PS    — page-grain locking and callbacks (the basic page server)
//	PSOO  — object-grain locking, pure object callbacks
//	PSOA  — object-grain locking, adaptive callbacks
//	PSAA  — adaptive locking and adaptive callbacks (the paper's best)
//	PSAH  — PSAA plus a per-page conflict-history advisor that steers
//	        grain choices (suppresses futile escalation, demotes hot
//	        callbacks to object grain, widens quiet private writes)
//	OS    — the object-server baseline: objects, not pages, on the wire
//
// The quickstart:
//
//	cluster, _ := adaptivecc.NewClientServer(adaptivecc.Options{NumClients: 2})
//	defer cluster.Close()
//	c := cluster.Client(0)
//	tx := c.Begin()
//	tx.Write(7, 3, []byte("hello"))   // page 7, slot 3
//	tx.Commit()
package adaptivecc

import (
	"fmt"
	"time"

	"adaptivecc/internal/core"
	"adaptivecc/internal/lock"
	"adaptivecc/internal/placement"
	"adaptivecc/internal/sim"
	"adaptivecc/internal/storage"
)

// Protocol selects the cache consistency algorithm.
type Protocol = core.Protocol

// The implemented protocols (see the package comment).
const (
	PS   = core.PS
	PSOO = core.PSOO
	PSOA = core.PSOA
	PSAA = core.PSAA
	PSAH = core.PSAH
	OS   = core.OS
)

// LockMode is an explicit hierarchical lock mode for Tx.LockPage /
// Tx.LockFile.
type LockMode = lock.Mode

// The five multigranularity modes plus NL.
const (
	NL  = lock.NL
	IS  = lock.IS
	IX  = lock.IX
	SH  = lock.SH
	SIX = lock.SIX
	EX  = lock.EX
)

// Errors a transaction operation can return; after any error the
// transaction must be aborted (and may be retried).
var (
	// ErrDeadlock marks a transaction chosen as a deadlock victim.
	ErrDeadlock = lock.ErrDeadlock
	// ErrTimeout marks a lock wait that exceeded the timeout (SHORE's
	// distributed deadlock resolution).
	ErrTimeout = lock.ErrTimeout
	// ErrTxNotActive is returned by operations on finished transactions.
	ErrTxNotActive = core.ErrTxNotActive
)

// Options configures a Cluster.
type Options struct {
	// Protocol defaults to PSAA.
	Protocol Protocol
	// NumClients is the number of caching peers in client-server mode, or
	// the number of peers in peer-servers mode (default 4).
	NumClients int
	// DatabasePages sizes the database (default 1200).
	DatabasePages uint32
	// ObjectsPerPage defaults to 20, ObjectSize to PageSize/ObjectsPerPage.
	ObjectsPerPage int
	// ClientCachePages / ServerCachePages size the buffer pools (defaults
	// 25% and 50% of the database).
	ClientCachePages int
	ServerCachePages int
	// TimeScale enables the simulated hardware cost model: 0 (default)
	// disables all simulated delays; 1.0 runs at the paper's SP2
	// magnitudes.
	TimeScale float64
	// Seed drives message path selection (default 1).
	Seed int64
	// LockTimeout fixes the lock-wait timeout; zero selects the adaptive
	// mean+stddev heuristic of the paper.
	LockTimeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.Protocol == 0 {
		o.Protocol = PSAA
	}
	if o.NumClients == 0 {
		o.NumClients = 4
	}
	if o.DatabasePages == 0 {
		o.DatabasePages = 1200
	}
	if o.ObjectsPerPage == 0 {
		o.ObjectsPerPage = storage.DefaultObjectsPerPage
	}
	if o.ClientCachePages == 0 {
		o.ClientCachePages = int(o.DatabasePages / 4)
	}
	if o.ServerCachePages == 0 {
		o.ServerCachePages = int(o.DatabasePages / 2)
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

func (o Options) coreConfig() core.Config {
	return core.Config{
		Protocol:        o.Protocol,
		Costs:           sim.DefaultCosts(o.TimeScale),
		ObjectsPerPage:  o.ObjectsPerPage,
		ObjectSize:      storage.DefaultPageSize / o.ObjectsPerPage,
		ClientPoolPages: o.ClientCachePages,
		ServerPoolPages: o.ServerCachePages,
		UseTimeouts:     true,
		FixedTimeout:    o.LockTimeout,
		Seed:            o.Seed,
	}
}

// Cluster is a running system of peer servers.
type Cluster struct {
	sys     *core.System
	clients []*Client
}

// Client is the application view of one peer: a home for transactions.
type Client struct {
	cluster *Cluster
	peer    *core.Peer
}

// Tx is a transaction. All operations address objects as (page, slot) in
// the flat database page space.
type Tx struct {
	c     *Client
	inner *core.Tx
}

// NewClientServer builds a cluster with one dedicated server peer owning
// the whole database and NumClients caching client peers.
func NewClientServer(opts Options) (*Cluster, error) {
	opts = opts.withDefaults()
	cfg := opts.coreConfig()
	sys := core.NewSystem(cfg)

	vol := storage.NewVolume(1, cfg.Costs, sys.Stats())
	if _, err := vol.CreateFile(1, 0, opts.DatabasePages, opts.ObjectsPerPage, cfg.ObjectSize); err != nil {
		return nil, err
	}
	sys.Directory().AddExtent(1, 1, 0, opts.DatabasePages)
	if _, err := sys.AddPeer("srv", vol); err != nil {
		return nil, err
	}
	cl := &Cluster{sys: sys}
	for i := 0; i < opts.NumClients; i++ {
		p, err := sys.AddPeer(fmt.Sprintf("c%d", i+1))
		if err != nil {
			sys.Close()
			return nil, err
		}
		cl.clients = append(cl.clients, &Client{cluster: cl, peer: p})
	}
	return cl, nil
}

// NewPeerServers builds a cluster of NumClients peers with the database
// partitioned into equal contiguous slices, one per peer. Transactions may
// start at any peer and access any page; remote pages are cached locally
// under the callback protocol.
func NewPeerServers(opts Options) (*Cluster, error) {
	opts = opts.withDefaults()
	cfg := opts.coreConfig()
	sys := core.NewSystem(cfg)

	n := opts.NumClients
	cl := &Cluster{sys: sys}
	for i := 0; i < n; i++ {
		count, err := placement.EqualSlice(opts.DatabasePages, n, i)
		if err != nil {
			sys.Close()
			return nil, fmt.Errorf("adaptivecc: %w", err)
		}
		vol := storage.NewVolume(storage.VolumeID(i+1), cfg.Costs, sys.Stats())
		if _, err := vol.CreateFile(1, 0, count, opts.ObjectsPerPage, cfg.ObjectSize); err != nil {
			sys.Close()
			return nil, err
		}
		sys.Directory().AddExtent(storage.VolumeID(i+1), 1, 0, count)
		p, err := sys.AddPeer(fmt.Sprintf("p%d", i+1), vol)
		if err != nil {
			sys.Close()
			return nil, err
		}
		cl.clients = append(cl.clients, &Client{cluster: cl, peer: p})
	}
	return cl, nil
}

// Client returns the i-th client (or peer). It panics on a bad index, like
// a slice access.
func (cl *Cluster) Client(i int) *Client { return cl.clients[i] }

// NumClients reports the number of clients/peers.
func (cl *Cluster) NumClients() int { return len(cl.clients) }

// Stats exposes the cluster-wide operation counters.
func (cl *Cluster) Stats() map[string]int64 { return cl.sys.Stats().Snapshot() }

// Protocol reports the configured consistency protocol.
func (cl *Cluster) Protocol() Protocol { return cl.sys.Config().Protocol }

// Close shuts the cluster down, draining in-flight messages.
func (cl *Cluster) Close() { cl.sys.Close() }

// Name reports the client's peer name.
func (c *Client) Name() string { return c.peer.Name() }

// Begin starts a transaction at this client.
func (c *Client) Begin() *Tx {
	return &Tx{c: c, inner: c.peer.Begin()}
}

// object resolves a (page, slot) address.
func (c *Client) object(page uint32, slot uint16) (storage.ItemID, error) {
	return c.cluster.sys.Directory().LookupObject(page, slot)
}

// Read returns the current value of the object at (page, slot). The
// returned bytes are a read-only view of the value read — a cache hit hands
// out the cached bytes themselves — and never change afterwards; copy
// before modifying.
func (t *Tx) Read(page uint32, slot uint16) ([]byte, error) {
	obj, err := t.c.object(page, slot)
	if err != nil {
		return nil, err
	}
	return t.inner.Read(obj)
}

// Write updates the object at (page, slot).
func (t *Tx) Write(page uint32, slot uint16, data []byte) error {
	obj, err := t.c.object(page, slot)
	if err != nil {
		return err
	}
	return t.inner.Write(obj, data)
}

// LockPage takes an explicit page-level lock (paper §4.3): SH/IS stay
// local when the page is fully cached; IX/SIX/EX involve the owner.
func (t *Tx) LockPage(page uint32, mode LockMode) error {
	pid, err := t.c.cluster.sys.Directory().Lookup(page)
	if err != nil {
		return err
	}
	return t.inner.LockItem(pid, mode)
}

// LockFile takes an explicit file-level lock covering the database slice
// that contains the given page. File locks always involve the owner; EX
// purges the file from every other cache.
func (t *Tx) LockFile(page uint32, mode LockMode) error {
	pid, err := t.c.cluster.sys.Directory().Lookup(page)
	if err != nil {
		return err
	}
	return t.inner.LockItem(storage.FileItem(pid.Vol, pid.File), mode)
}

// Commit makes the transaction's updates durable and visible.
func (t *Tx) Commit() error { return t.inner.Commit() }

// Abort rolls the transaction back.
func (t *Tx) Abort() error { return t.inner.Abort() }
